"""Generation bytes, pinned: SHA-256 over every event's JSONL line.

A trace is a function of the *order* of RNG draws, and VCover's traffic is
chaotic in the trace, so a generator, mixer or trace-container change is
either byte-identical or a different experiment.  Each digest below hashes
``json.dumps(event_to_dict(event), sort_keys=True)`` of every event, one line
per event, and was recorded before the one-pass build path replaced the
per-event walk.  Every case is hashed through the materialised builder and
the lazy stream; both must give the recorded digest.

A speed-up never edits these digests.  Change them only for a change that is
*meant* to alter the generated workload, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Tuple

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    _query_workload_config,
    _update_workload_config,
    build_catalog,
    build_scenario,
    build_scenario_stream,
)
from repro.workload.mixer import interleave, slot_timestamps
from repro.workload.sdss import SDSSQueryGenerator
from repro.workload.stream import EvolvingTraceStream
from repro.workload.trace import TraceEvent, TraceStream, event_to_dict
from repro.workload.updates import SurveyUpdateGenerator

BENCH = ExperimentConfig(seed=7)

CONFIGS = {
    "default": ExperimentConfig(),
    "dispatch-80k": BENCH.scaled(
        query_count=40000,
        update_count=40000,
        sample_every=2000,
        query_traffic_fraction=10.0,
        update_traffic_fraction=10.0,
    ),
    "seed3-flare0.1": ExperimentConfig(seed=3, flare_probability=0.1),
    "flash_crowd-8k": BENCH.scaled(
        workload_model="flash_crowd", query_count=4000, update_count=4000
    ),
    "update_storm-1k2": BENCH.scaled(
        workload_model="update_storm", query_count=600, update_count=600
    ),
    "lopsided-3q-500u": BENCH.scaled(query_count=3, update_count=500),
}

DIGESTS = {
    "default": "71ab0bf70659c66476c4c9ddea6570c7a2363efd2d079f321ca0861933aa66ed",
    "dispatch-80k": "b7f24975c6149b62b05c5ca4f281ec68140872cab173dab27789911311616c31",
    "seed3-flare0.1": "a0cc2a46b980e1343e556ee568a3fd60c1dec0eb6cb86d8c5457235a9e55ebc6",
    "flash_crowd-8k": "fcf3211b10d0947427ff492a710dc48eb3f6e4f8b0aee77d476aebda84dccfbb",
    "update_storm-1k2": "02e3ff64515fd39ac6da8d3741d4edc2a168d3176185c678658d47dff94445a2",
    "lopsided-3q-500u": "1463a7b10fc0a6206e4546121242d45cfa0f158ee6e83e12306fd131de5c3459",
    "random-interleave": "28f3ea739d624610c7f122e1f49f3ae727a5eea87c6284bd82d7f6b8d9cb64ce",
}

#: The ``mode="random"`` case: the default shape at seed 5, merged with seed 13.
RANDOM_CONFIG = ExperimentConfig(seed=5).scaled(query_count=2500, update_count=3000)
RANDOM_SEED = 13


def digest(events: Iterable[TraceEvent]) -> str:
    sha = hashlib.sha256()
    for event in events:
        sha.update(json.dumps(event_to_dict(event), sort_keys=True).encode() + b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_build_scenario_bytes(name):
    assert digest(build_scenario(CONFIGS[name]).trace.iter_events()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_build_scenario_stream_bytes(name):
    _, stream = build_scenario_stream(CONFIGS[name])
    assert digest(stream.iter_events()) == DIGESTS[name]


def random_mode_generators() -> Tuple[SDSSQueryGenerator, SurveyUpdateGenerator, TraceStream]:
    config = RANDOM_CONFIG
    catalog = build_catalog(config)
    update_config = _update_workload_config(config, catalog.total_size)
    updates = SurveyUpdateGenerator(catalog, update_config)
    query_config = _query_workload_config(config, catalog.total_size, updates.observed_region)
    stream = EvolvingTraceStream(
        catalog, query_config, update_config, mode="random", seed=RANDOM_SEED
    )
    return SDSSQueryGenerator(catalog, query_config), updates, stream


@pytest.mark.parametrize("stamped", [False, True], ids=["restamped", "stamped-at-source"])
def test_random_interleave_bytes(stamped):
    queries, updates, _ = random_mode_generators()
    if stamped:
        query_slots, update_slots = slot_timestamps(
            RANDOM_CONFIG.query_count, RANDOM_CONFIG.update_count, mode="random", seed=RANDOM_SEED
        )
        trace = interleave(
            queries.generate(timestamps=query_slots),
            updates.generate(timestamps=update_slots),
            mode="random",
            seed=RANDOM_SEED,
        )
    else:
        trace = interleave(queries.generate(), updates.generate(), mode="random", seed=RANDOM_SEED)
    assert digest(trace.iter_events()) == DIGESTS["random-interleave"]


def test_random_interleave_stream_bytes():
    _, _, stream = random_mode_generators()
    assert digest(stream.iter_events()) == DIGESTS["random-interleave"]
