"""Shape tests for the scenario-diversity workload models.

Every model is deterministic in its seed, so these tests assert the
*qualitative* property each model exists for -- migration, modulation,
correlation -- on fixed-seed streams, plus the declarative plumbing
(ExperimentConfig knobs, ScenarioSpec round-trips, registered experiments).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from repro import api
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.experiments.spec import ScenarioError, ScenarioSpec, load_scenario
from repro.repository.catalog import sdss_catalog
from repro.workload.fuzz import STREAM_CLASSES, check_stream_invariants
from repro.workload.scenarios import (
    CacheAdversaryStream,
    DiurnalStream,
    FlashCrowdStream,
    UpdateStormStream,
)
from tests.strategies import segment_specs


@pytest.fixture(scope="module")
def catalog():
    return sdss_catalog(object_count=48, scale=0.002, seed=21)


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class TestFlashCrowdModel:
    def test_crowd_intensifies_focus(self, catalog):
        stream = FlashCrowdStream(
            catalog=catalog,
            query_count=1200,
            update_count=0,
            mean_query_cost=2.0,
            mean_update_cost=2.0,
            seed=3,
            crowd_count=1,
            crowd_arrival=0.5,
            crowd_duration=0.4,
            base_intensity=0.5,
            crowd_intensity=0.95,
        )
        queries = list(stream.queries())
        start, stop = stream._crowd_windows()[0]

        def hot_fraction(window, top=6):
            counts = {}
            for query in window:
                for oid in query.object_ids:
                    counts[oid] = counts.get(oid, 0) + 1
            ranked = sorted(counts.values(), reverse=True)
            return sum(ranked[:top]) / max(1, sum(ranked))

        # During the crowd, accesses concentrate much harder on the top
        # objects than the stationary pre-crowd mix.
        assert hot_fraction(queries[start:stop]) > hot_fraction(queries[:start]) + 0.1

    def test_windows_do_not_overlap_and_respect_arrival(self, catalog):
        stream = FlashCrowdStream(
            catalog=catalog,
            query_count=1000,
            update_count=0,
            mean_query_cost=1.0,
            mean_update_cost=1.0,
            crowd_count=3,
            crowd_arrival=0.3,
            crowd_duration=0.5,
        )
        windows = stream._crowd_windows()
        assert windows[0][0] == 300
        for (_, stop), (start, _) in zip(windows, windows[1:], strict=False):
            assert stop <= start

    def test_back_to_back_crowds_all_fire(self, catalog):
        # duration >= spacing makes the windows tile the tail of the stream;
        # every crowd must still get its arrival transition (regression: the
        # window-exit branch used to swallow the next window's start index).
        stream = FlashCrowdStream(
            catalog=catalog,
            query_count=1000,
            update_count=0,
            mean_query_cost=2.0,
            mean_update_cost=2.0,
            cost_sigma=0.0,
            crowd_count=3,
            crowd_arrival=0.3,
            crowd_duration=0.5,
            base_intensity=0.0,
            crowd_intensity=1.0,
            crowd_cost_factor=1.5,
            background_cost_factor=0.25,
        )
        windows = stream._crowd_windows()
        assert [start for start, _ in windows] == [300, 533, 766]
        queries = list(stream.queries())
        crowd_cost = 2.0 * 1.5
        for start, stop in windows:
            assert all(
                query.cost == pytest.approx(crowd_cost)
                for query in queries[start:stop]
            ), (start, stop)
        assert all(
            query.cost == pytest.approx(2.0 * 0.25) for query in queries[:300]
        )

    def test_update_region_matches_update_stream(self, catalog):
        stream = FlashCrowdStream(
            catalog=catalog,
            query_count=0,
            update_count=2000,
            mean_query_cost=1.0,
            mean_update_cost=1.0,
            seed=8,
        )
        region = set(stream.update_region())
        hits = sum(1 for u in stream.updates() if u.object_id in region)
        # scan_probability-style 0.8 of updates land inside the region.
        assert hits / 2000 > 0.7


class TestDiurnalModel:
    def test_query_and_update_costs_run_anti_phase(self, catalog):
        stream = DiurnalStream(
            catalog=catalog,
            query_count=2000,
            update_count=2000,
            mean_query_cost=2.0,
            mean_update_cost=2.0,
            seed=4,
            cycles=1,
            amplitude=0.8,
        )
        queries = list(stream.queries())
        updates = list(stream.updates())
        half = len(queries) // 2
        # First half-cycle: sin > 0 -> query costs above their mean, update
        # costs below theirs; second half-cycle reverses.
        assert _mean(q.cost for q in queries[:half]) > _mean(
            q.cost for q in queries[half:]
        )
        assert _mean(u.cost for u in updates[:half]) < _mean(
            u.cost for u in updates[half:]
        )

    def test_amplitude_zero_is_flat(self, catalog):
        stream = DiurnalStream(
            catalog=catalog,
            query_count=1000,
            update_count=0,
            mean_query_cost=2.0,
            mean_update_cost=2.0,
            cost_sigma=0.0,
            amplitude=0.0,
        )
        hot_costs = {round(q.cost, 9) for q in stream.queries()}
        # With no wobble and no modulation only the hot/background split remains.
        assert len(hot_costs) == 2


class TestUpdateStormModel:
    def _stream(self, catalog, **overrides):
        kwargs = dict(
            catalog=catalog,
            query_count=0,
            update_count=3000,
            mean_query_cost=1.0,
            mean_update_cost=1.0,
            seed=6,
            storm_count=4,
            storm_length=200,
            storm_width=3,
            storm_cost_factor=4.0,
        )
        kwargs.update(overrides)
        return UpdateStormStream(**kwargs)

    def test_storms_are_correlated_bursts(self, catalog):
        stream = self._stream(catalog)
        updates = list(stream.updates())
        for start, stop in stream._storm_windows():
            window = updates[start:stop]
            touched = {u.object_id for u in window}
            assert len(touched) <= stream.storm_width
            assert _mean(u.cost for u in window) > 2.0 * _mean(
                u.cost for u in updates[: stream._storm_windows()[0][0]]
            )

    def test_back_to_back_storms_all_fire(self, catalog):
        # storm_length >= spacing: every storm window must still break
        # (regression: only the first storm used to fire).
        stream = self._stream(
            catalog,
            update_count=1400,
            storm_count=6,
            storm_length=300,
            cost_sigma=0.0,
        )
        windows = stream._storm_windows()
        assert len(windows) == 6
        updates = list(stream.updates())
        storm_cost = 1.0 * stream.storm_cost_factor
        for start, stop in windows:
            window = updates[start:stop]
            assert len({u.object_id for u in window}) <= stream.storm_width
            assert all(u.cost == pytest.approx(storm_cost) for u in window), (
                start,
                stop,
            )

    def test_storms_target_focus_block_when_asked(self, catalog):
        stream = self._stream(catalog, storm_on_focus=1.0, query_count=10)
        focus = set(stream.update_region())
        updates = list(stream.updates())
        for start, stop in stream._storm_windows():
            assert {u.object_id for u in updates[start:stop]} <= focus


class TestCacheAdversaryModel:
    def _stream(self, catalog, **overrides):
        kwargs = dict(
            catalog=catalog,
            query_count=600,
            update_count=600,
            mean_query_cost=1.0,
            mean_update_cost=1.0,
            seed=9,
            working_set_bytes=0.15 * catalog.total_size,
        )
        kwargs.update(overrides)
        return CacheAdversaryStream(**kwargs)

    def test_working_set_just_exceeds_the_requested_bytes(self, catalog):
        stream = self._stream(catalog)
        working = stream._working_set()
        sizes = [catalog.size_of(oid) for oid in working]
        assert sum(sizes) > stream.working_set_bytes
        # "Just" past: dropping the last member falls back under the target
        # (unless the two-object floor is what kept it).
        assert len(working) >= 2
        if len(working) > 2:
            assert sum(sizes[:-1]) <= stream.working_set_bytes

    def test_cycle_is_strict_round_robin_over_the_working_set(self, catalog):
        stream = self._stream(catalog, scan_probability=0.0, update_count=0)
        working = stream._working_set()
        queries = list(stream.queries())
        for index, query in enumerate(queries):
            assert query.object_ids == frozenset(
                {working[index % len(working)]}
            )

    def test_scans_march_beyond_the_working_set(self, catalog):
        stream = self._stream(catalog, scan_probability=1.0, update_count=0)
        touched = set()
        for query in stream.queries():
            assert len(query.object_ids) == stream.footprint_span
            touched |= query.object_ids
        # A pure scan sweeps the whole catalogue, not just the hot cycle.
        assert touched == set(catalog.object_ids)

    def test_updates_concentrate_on_the_working_set(self, catalog):
        stream = self._stream(catalog, query_count=0, update_in_set=1.0)
        region = set(stream.update_region())
        assert region == set(stream._working_set())
        assert all(u.object_id in region for u in stream.updates())

    def test_validators_reject_bad_knobs(self, catalog):
        with pytest.raises(ValueError, match="working_set_bytes"):
            self._stream(catalog, working_set_bytes=0.0)
        with pytest.raises(ValueError, match="scan_probability"):
            self._stream(catalog, scan_probability=1.5)
        with pytest.raises(ValueError, match="update_in_set"):
            self._stream(catalog, update_in_set=-0.1)


#: Module-scoped so the hypothesis property below can reuse one catalogue.
INVARIANT_CATALOG = sdss_catalog(object_count=32, scale=0.001, seed=17)


@given(segment=segment_specs(max_events=60))
def test_property_every_model_stream_holds_the_trace_invariants(segment):
    """Any model under any valid knobs yields a structurally sound stream.

    This is the per-model form of the composition invariants the fuzzer
    suite checks: driven by the shared ``segment_specs`` strategy, so the
    knob ranges widen in one place for both suites.
    """
    stream = STREAM_CLASSES[segment.model](
        catalog=INVARIANT_CATALOG,
        query_count=segment.query_count,
        update_count=segment.update_count,
        mean_query_cost=2.0,
        mean_update_cost=2.0,
        seed=11,
        **dict(segment.knobs),
    )
    check_stream_invariants(stream, INVARIANT_CATALOG)


class TestDeclarativePlumbing:
    def test_scenario_spec_round_trips_workload_model(self, tmp_path):
        spec = ScenarioSpec.from_knobs(
            name="stormy",
            workload_model="update_storm",
            query_count=200,
            update_count=200,
            storm_count=2,
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        path = tmp_path / "stormy.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert load_scenario(path) == spec

    def test_workload_model_knob_is_validated(self):
        with pytest.raises(ScenarioError, match="must be a string"):
            ScenarioSpec.from_knobs(workload_model=3)
        with pytest.raises(ScenarioError, match="unknown workload_model"):
            ScenarioSpec.from_knobs(workload_model="tsunami")

    def test_build_scenario_dispatches_models(self):
        config = ExperimentConfig(
            object_count=16,
            query_count=120,
            update_count=120,
            workload_model="diurnal",
        )
        scenario = build_scenario(config)
        assert len(scenario.trace) == 240
        assert scenario.update_region == []

    @pytest.mark.parametrize(
        "name", ["flash_crowd", "diurnal", "update_storm", "cache_adversary"]
    )
    def test_registered_experiments_run(self, name):
        result = api.run_experiment(
            name,
            overrides={
                "object_count": 16,
                "query_count": 150,
                "update_count": 150,
                "policies": ("nocache", "vcover"),
            },
        )
        assert result.axis == (name,)
        assert api.get_experiment(name).knobs["streaming"] is True
        assert api.get_experiment(name).config.workload_model == name
        assert result.comparisons[0].traffic_of("nocache") > 0
        assert name in api.format_result(name, result)

    def test_experiment_forces_its_model(self):
        # A caller config with the default workload_model still runs the
        # experiment's own model: the traffic is the flash crowd's.
        overrides = {
            "object_count": 16,
            "query_count": 100,
            "update_count": 100,
            "policies": ("nocache", "vcover"),
        }
        pinned = api.run_experiment("flash_crowd", overrides=overrides)
        forced = api.run_experiment(
            "flash_crowd", overrides={**overrides, "workload_model": "evolving"}
        )
        evolving = api.run_experiment("fig7b", overrides=overrides)
        for policy in overrides["policies"]:
            assert forced.series(policy) == pinned.series(policy)
        assert forced.series("nocache") != evolving.series("nocache")
