"""The streaming trace pipeline: contract, mixer and equivalence tests.

The load-bearing claim is byte-identity: replaying a scenario through its
lazily-generated :class:`~repro.workload.trace.TraceStream` must produce
exactly the ``RunResult`` payloads the materialised replay produces, for
every workload model, serial or parallel.  The flash-crowd determinism
fixture pins one of these equalities against bytes on disk
(``tests/test_determinism.py``); this module covers the rest of the matrix
plus the stream contract itself.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import api
from repro.experiments.config import (
    WORKLOAD_MODELS,
    ExperimentConfig,
    build_model_stream,
    build_scenario,
    build_scenario_stream,
)
from repro.experiments.spec import ScenarioSpec
from repro.repository.catalog import sdss_catalog
from repro.workload.mixer import interleave, iter_interleaved
from repro.workload.scenarios import FlashCrowdStream
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.stream import EvolvingTraceStream
from repro.workload.trace import Trace, TraceStream
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig

SMALL = ExperimentConfig(
    object_count=24, query_count=300, update_count=300, sample_every=100, seed=5
)


def small_config(model: str) -> ExperimentConfig:
    return SMALL.scaled(workload_model=model)


def canonical_payloads(comparison, policies) -> str:
    return json.dumps(
        {name: comparison[name].as_payload() for name in policies}, sort_keys=True
    )


# ----------------------------------------------------------------------
# The TraceStream contract
# ----------------------------------------------------------------------
class TestStreamContract:
    @pytest.mark.parametrize("model", WORKLOAD_MODELS)
    def test_streams_are_restartable_and_sized(self, model):
        _, stream = build_scenario_stream(small_config(model))
        assert isinstance(stream, TraceStream)
        assert len(stream) == SMALL.total_events
        first = list(stream.iter_tagged())
        second = list(stream.iter_tagged())
        assert first == second
        assert len(first) == len(stream)

    @pytest.mark.parametrize("model", WORKLOAD_MODELS)
    def test_materialise_matches_build_scenario(self, model):
        config = small_config(model)
        _, stream = build_scenario_stream(config)
        materialised = stream.materialise()
        scenario = build_scenario(config)
        assert isinstance(materialised, Trace)
        assert list(materialised) == list(scenario.trace)

    def test_describe_matches_materialised_describe(self):
        _, stream = build_scenario_stream(small_config("flash_crowd"))
        assert stream.describe() == stream.materialise().describe()

    def test_chunks_partition_the_stream(self):
        _, stream = build_scenario_stream(small_config("diurnal"))
        chunks = list(stream.iter_chunks(64))
        assert all(len(chunk) == 64 for chunk in chunks[:-1])
        assert [e for chunk in chunks for e in chunk] == list(stream.iter_tagged())
        with pytest.raises(ValueError):
            next(stream.iter_chunks(0))

    def test_queries_and_updates_are_lazy_filters(self):
        _, stream = build_scenario_stream(small_config("update_storm"))
        queries = list(stream.queries())
        updates = list(stream.updates())
        assert len(queries) == SMALL.query_count
        assert len(updates) == SMALL.update_count
        assert [q.query_id for q in queries] == sorted(q.query_id for q in queries)

    @pytest.mark.parametrize("model", WORKLOAD_MODELS)
    def test_streams_survive_pickling(self, model):
        _, stream = build_scenario_stream(small_config(model))
        clone = pickle.loads(pickle.dumps(stream))
        assert list(clone.iter_tagged()) == list(stream.iter_tagged())

    def test_model_streams_expose_counts(self):
        _, stream = build_scenario_stream(small_config("flash_crowd"))
        assert stream.query_count == SMALL.query_count
        assert stream.update_count == SMALL.update_count

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="workload_model"):
            ExperimentConfig(workload_model="tsunami")
        catalog = sdss_catalog(object_count=8, scale=0.001, seed=1)
        with pytest.raises(ValueError):
            build_model_stream(catalog, SMALL)  # "evolving" has no model stream


# ----------------------------------------------------------------------
# Streaming mixer vs materialised mixer
# ----------------------------------------------------------------------
class TestStreamingMixer:
    def _streams(self, query_count: int, update_count: int):
        catalog = sdss_catalog(object_count=16, scale=0.001, seed=3)
        queries = SDSSQueryGenerator(
            catalog, SDSSWorkloadConfig(query_count=query_count, seed=11)
        ).generate()
        updates = SurveyUpdateGenerator(
            catalog, UpdateWorkloadConfig(update_count=update_count, seed=12)
        ).generate()
        return queries, updates

    @pytest.mark.parametrize("mode", ["uniform", "random"])
    @pytest.mark.parametrize("counts", [(40, 40), (50, 13), (3, 60), (0, 10), (10, 0)])
    def test_iter_interleaved_matches_interleave(self, mode, counts):
        queries, updates = self._streams(*counts)
        materialised = interleave(queries, updates, mode=mode, seed=42)
        streamed = list(
            iter_interleaved(
                iter(queries), iter(updates), len(queries), len(updates),
                mode=mode, seed=42,
            )
        )
        assert streamed == list(materialised)

    def test_timestamps_are_consecutive(self):
        queries, updates = self._streams(20, 30)
        events = list(
            iter_interleaved(iter(queries), iter(updates), len(queries), len(updates))
        )
        assert [event.timestamp for event in events] == [
            float(i + 1) for i in range(50)
        ]


# ----------------------------------------------------------------------
# Evolving stream calibration
# ----------------------------------------------------------------------
class TestEvolvingStream:
    def test_cost_scales_are_cached_and_dropped_on_pickle(self):
        _, stream = build_scenario_stream(small_config("evolving"))
        assert isinstance(stream, EvolvingTraceStream)
        assert stream._scales is None
        first = stream._cost_scales()
        assert stream._cost_scales() is first
        clone = pickle.loads(pickle.dumps(stream))
        assert clone._scales is None
        assert clone._cost_scales() == first

    def test_total_costs_hit_the_calibration_targets(self):
        config = small_config("evolving")
        catalog, stream = build_scenario_stream(config)
        stats = stream.describe()
        assert stats["total_query_cost"] == pytest.approx(
            catalog.total_size * config.query_traffic_fraction
        )
        assert stats["total_update_cost"] == pytest.approx(
            catalog.total_size * config.update_traffic_fraction
        )


# ----------------------------------------------------------------------
# Streaming-vs-materialised replay equivalence
# ----------------------------------------------------------------------
class TestReplayEquivalence:
    POLICIES = ("nocache", "replica", "vcover", "soptimal")

    @pytest.mark.parametrize("model", WORKLOAD_MODELS)
    def test_run_results_byte_identical(self, model):
        spec = ScenarioSpec(small_config(model), name=f"equiv-{model}")
        materialised = api.run_scenario(spec, policies=self.POLICIES)
        streamed = api.run_scenario(spec, policies=self.POLICIES, streaming=True)
        assert canonical_payloads(materialised, self.POLICIES) == canonical_payloads(
            streamed, self.POLICIES
        )
        assert materialised.trace_description == streamed.trace_description

    def test_streaming_parallel_matches_serial(self):
        spec = ScenarioSpec(small_config("flash_crowd"))
        serial = api.run_scenario(spec, policies=self.POLICIES, streaming=True, jobs=1)
        parallel = api.run_scenario(
            spec, policies=self.POLICIES, streaming=True, jobs=2
        )
        assert canonical_payloads(serial, self.POLICIES) == canonical_payloads(
            parallel, self.POLICIES
        )

    def test_multicache_replays_streams(self):
        from repro.sim.engine import EngineConfig
        from repro.sim.multicache import TopologySpec, run_topology
        from repro.sim.runner import vcover_spec

        config = small_config("flash_crowd")
        catalog, stream = build_scenario_stream(config)
        topology = TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.3)
        engine = EngineConfig(sample_every=config.sample_every)
        from_stream = run_topology(topology, catalog, stream, engine)
        from_trace = run_topology(topology, catalog, stream.materialise(), engine)
        assert json.dumps(from_stream.aggregate.as_payload(), sort_keys=True) == (
            json.dumps(from_trace.aggregate.as_payload(), sort_keys=True)
        )

    def test_flash_crowd_windows_shape_the_trace(self):
        """The crowd actually migrates the hotspot (guards test vacuity)."""
        config = small_config("flash_crowd").scaled(
            object_count=64,
            query_count=800,
            flash_crowd_count=1,
            flash_crowd_arrival=0.5,
            flash_crowd_duration=0.4,
        )
        catalog, stream = build_scenario_stream(config)
        assert isinstance(stream, FlashCrowdStream)
        queries = list(stream.queries())
        (start, stop) = stream._crowd_windows()[0]

        def top_objects(window):
            counts = {}
            for query in window:
                for oid in query.object_ids:
                    counts[oid] = counts.get(oid, 0) + 1
            ranked = sorted(counts, key=counts.get, reverse=True)
            return set(ranked[: stream.focus_size])

        before_top = top_objects(queries[:start])
        during_top = top_objects(queries[start:stop])
        # The migrated focus concentrates the crowd on different objects
        # than the pre-crowd hotspot (seeded, so deterministic).
        assert before_top != during_top
