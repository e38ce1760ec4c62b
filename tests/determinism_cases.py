"""Shared scenario definitions for the determinism harness.

The hot-path optimisations (engine dispatch, warm-started flow structures,
``__slots__`` records, cached interacting-update lookups) are only acceptable
if they change *nothing* about what a run computes.  This module pins down
the scenarios the harness replays and renders their results in a canonical
byte form, so that ``tests/test_determinism.py`` can compare the optimized
engine against payloads recorded from the pre-optimisation seed tree
(``tests/fixtures/determinism/``).

Run ``python tests/generate_determinism_fixtures.py`` to (re)record the
fixtures.  Only do that when a change is *meant* to alter simulation results;
refreshing the fixtures to silence a determinism failure defeats the harness.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.spec import ScenarioSpec
from repro.sim.engine import EngineConfig
from repro.sim.multicache import TopologySpec
from repro.sim.runner import default_policy_specs
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint, SweepRunner

#: Where the recorded seed payloads live.
FIXTURE_DIR = Path(__file__).parent / "fixtures" / "determinism"

#: The committed sample query log the ingested-scenario fixture calibrates.
SAMPLE_LOG = Path(__file__).parent.parent / "examples" / "logs" / "sdss_day.csv"

#: All five paper policies, in the order the fixtures record them.
POLICIES = ("nocache", "replica", "benefit", "vcover", "soptimal")

#: Headline-shaped scenario, reduced so the harness stays in the seconds
#: range: the same workload generators and policy set as the headline
#: experiment, with a shorter trace over a smaller sky.
HEADLINE_CONFIG = ExperimentConfig(
    object_count=32,
    query_count=600,
    update_count=600,
    cache_fraction=0.3,
    sample_every=150,
    seed=7,
)

#: Cache fraction of the headline experiment's "one-fifth cache" run.
SMALL_CACHE_FRACTION = 0.2

#: Multisite scenario: two-site fleets sharing one repository.
MULTISITE_CONFIG = ExperimentConfig(
    object_count=32,
    query_count=500,
    update_count=500,
    cache_fraction=0.3,
    sample_every=150,
    seed=11,
)

#: Number of cache sites in the multisite fixture.
MULTISITE_SITES = 2

#: Flash-crowd scenario: the streaming pipeline's determinism anchor.  One
#: fixture pins the payloads; the test replays it both materialised and
#: through the streaming trace pipeline, so the two paths can never drift.
FLASHCROWD_CONFIG = ExperimentConfig(
    object_count=32,
    query_count=600,
    update_count=600,
    cache_fraction=0.3,
    sample_every=150,
    seed=13,
    workload_model="flash_crowd",
    flash_crowd_count=2,
    flash_crowd_arrival=0.25,
    flash_crowd_duration=0.15,
)


def canonical(payload: object) -> str:
    """Render a payload as canonical JSON (the byte form fixtures store)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def headline_payloads(jobs: int = 1) -> Dict[str, Dict[str, object]]:
    """Per-policy ``RunResult`` payloads for both headline cache sizes."""
    spec = ScenarioSpec(HEADLINE_CONFIG, name="determinism-headline")
    payloads: Dict[str, Dict[str, object]] = {}
    for label, fraction in (
        ("small", SMALL_CACHE_FRACTION),
        ("default", HEADLINE_CONFIG.cache_fraction),
    ):
        comparison = api.run_scenario(
            spec, policies=POLICIES, jobs=jobs, cache_fraction=fraction
        )
        payloads[label] = {name: comparison[name].as_payload() for name in POLICIES}
    return payloads


def multisite_payloads(jobs: int = 1) -> Dict[str, object]:
    """Aggregate ``RunResult`` payloads for two-site vcover/nocache fleets."""
    config = MULTISITE_CONFIG
    engine = EngineConfig(
        sample_every=config.sample_every, measure_from=config.measure_from
    )
    specs = default_policy_specs(include=("vcover", "nocache"))
    points = [
        SweepPoint(
            key=f"{spec.name}-x{MULTISITE_SITES}",
            spec=spec,
            engine=engine,
            seed=config.seed,
            topology=TopologySpec.uniform(
                spec, MULTISITE_SITES, cache_fraction=config.cache_fraction
            ),
        )
        for spec in specs
    ]
    scenarios = {DEFAULT_SCENARIO: ScenarioSpec(config, name="determinism-multisite")}
    result = SweepRunner(jobs=jobs).run(points, scenarios)
    return {item.point.key: item.run.as_payload() for item in result.points}


def flashcrowd_payloads(jobs: int = 1, streaming: bool = False) -> Dict[str, object]:
    """Per-policy ``RunResult`` payloads for the flash-crowd scenario.

    ``streaming=True`` replays the lazily-generated stream instead of the
    materialised trace; both must match the same recorded fixture.
    """
    spec = ScenarioSpec(FLASHCROWD_CONFIG, name="determinism-flashcrowd")
    comparison = api.run_scenario(
        spec, policies=POLICIES, jobs=jobs, streaming=streaming
    )
    return {name: comparison[name].as_payload() for name in POLICIES}


def ingested_payloads(jobs: int = 1, streaming: bool = False) -> Dict[str, object]:
    """Per-policy payloads for the scenario calibrated from the sample log.

    The whole ingest pipeline is pinned here: reading the committed CSV,
    fitting the scenario knobs, and replaying the emitted spec.  As with the
    flash-crowd case, one fixture covers both the materialised and the
    streaming replay path.
    """
    from repro.experiments.spec import ingest_scenario

    spec, _ = ingest_scenario(SAMPLE_LOG, name="determinism-ingested")
    spec = spec.scaled(sample_every=200)
    comparison = api.run_scenario(
        spec, policies=POLICIES, jobs=jobs, streaming=streaming
    )
    return {name: comparison[name].as_payload() for name in POLICIES}


#: Fixture name -> capture function, shared by the generator and the tests.
CASES = {
    "headline": headline_payloads,
    "multisite": multisite_payloads,
    "flashcrowd": flashcrowd_payloads,
    "ingested": ingested_payloads,
}
