"""The adversarial scenario fuzzer (``repro.workload.fuzz``).

Three layers of coverage:

* hypothesis properties over *composed scenarios*: every drawn composition
  (numpy-seeded draws and hypothesis-built specs alike) satisfies the
  structural stream invariants, round-trips through JSON, and replays
  byte-identically streaming vs materialised;
* unit tests for the spec validation, the invariant checker's detection of
  each violation class, and the minimal-repro save/load path;
* the ``fuzzed`` registry experiment end to end, including the
  VCover-lost-to-NoCache regression flagging hook.

The property tests deliberately carry no ``max_examples`` of their own:
the hypothesis profile in ``tests/conftest.py`` governs their budget, so
the nightly ``HYPOTHESIS_PROFILE=fuzz`` CI job searches far deeper than
the quick per-PR profile without any test edits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import find, given, settings
from hypothesis.errors import NoSuchExample

from repro import api
from repro.experiments.fuzzed import maybe_save_regression
from repro.workload.fuzz import (
    ComposedScenarioStream,
    CompositionSpec,
    FuzzError,
    SegmentSpec,
    StreamInvariantError,
    _draw_segment_knobs,
    check_stream_invariants,
    draw_composition_spec,
    load_composition,
    save_composition,
    save_regression,
)
from repro.workload.scenarios import (
    MODEL_NAMES,
    STREAM_CLASSES,
    CacheAdversaryStream,
    model_knobs,
)
from repro.workload.trace import (
    QueryEvent,
    TraceEvent,
    TraceStream,
    UpdateEvent,
)
from tests.strategies import composition_specs, fuzz_seeds, knob_strategies


def canonical_payloads(comparison, policies) -> str:
    return json.dumps(
        {name: comparison[name].as_payload() for name in policies}, sort_keys=True
    )


# ----------------------------------------------------------------------
# Hypothesis properties over composed scenarios
# ----------------------------------------------------------------------
@given(seed=fuzz_seeds)
def test_property_drawn_compositions_satisfy_invariants(seed):
    """Every numpy-seeded fuzzer draw builds a structurally sound stream."""
    spec = draw_composition_spec(seed, max_events_per_segment=120)
    catalog, stream = spec.realise_stream()
    check_stream_invariants(stream, catalog)


@given(spec=composition_specs())
def test_property_hypothesis_compositions_satisfy_invariants(spec):
    """Arbitrary valid specs (hypothesis-built) also hold the invariants."""
    catalog, stream = spec.realise_stream()
    check_stream_invariants(stream, catalog)


@given(spec=composition_specs())
def test_property_compositions_round_trip_through_json(spec):
    """to_dict/from_dict is the identity, through real JSON text too."""
    assert CompositionSpec.from_dict(spec.to_dict()) == spec
    assert CompositionSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@given(seed=fuzz_seeds)
def test_property_draws_are_deterministic_in_the_seed(seed):
    """The same seed always yields the same composition (and cache key)."""
    first = draw_composition_spec(seed)
    second = draw_composition_spec(seed)
    assert first == second
    assert first.cache_key() == second.cache_key()


@given(spec=composition_specs(max_segments=2, max_events=40))
def test_property_streaming_matches_materialised_events(spec):
    """The lazy composed stream and its materialised trace never drift."""
    catalog, stream = spec.realise_stream()
    _, trace = spec.realise()
    assert len(stream) == len(trace)
    assert list(stream.iter_tagged()) == list(trace.iter_tagged())
    assert catalog.total_size == spec.build_catalog().total_size


# ----------------------------------------------------------------------
# One knob table behind the sampler, the strategies and the validators
# ----------------------------------------------------------------------
class _EdgeRng:
    """Stands in for a Generator: every draw lands on one end of its range."""

    def __init__(self, top: bool) -> None:
        self._top = top

    def integers(self, low, high):
        return high - 1 if self._top else low

    def uniform(self, low, high):
        return high if self._top else low


class TestKnobTable:
    def test_draws_are_pinned(self):
        # A seed names a scenario (repro files, the fuzzed experiment), so the
        # sampler must keep making the same draws in the same order.
        sha = hashlib.sha256()
        for seed in range(32):
            spec = draw_composition_spec(seed)
            sha.update(json.dumps(spec.to_dict(), sort_keys=True).encode())
        assert sha.hexdigest() == (
            "fcbd6da1797bb35d3ab6afd5a1e59f01d715d70ea927697b2f3299302bc17e29"
        )

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_strategies_span_exactly_what_the_sampler_draws(self, model):
        lows = dict(_draw_segment_knobs(_EdgeRng(top=False), model))
        highs = dict(_draw_segment_knobs(_EdgeRng(top=True), model))
        strategies = knob_strategies(model)
        assert set(strategies) == set(lows)
        quick = settings(max_examples=300, database=None, derandomize=True)
        for name, strategy in strategies.items():
            low, high = lows[name], highs[name]
            assert find(strategy, lambda v: v >= high, settings=quick) == high
            with pytest.raises(NoSuchExample):
                find(strategy, lambda v: not low <= v <= high, settings=quick)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_fuzz_ranges_lie_inside_the_valid_ranges(self, model):
        for row in model_knobs(STREAM_CLASSES[model]):
            if row.fuzz is not None and row.valid is not None:
                assert row.fuzz[0] in row.valid and row.fuzz[1] in row.valid, row


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSegmentSpec:
    def test_unknown_model_rejected(self):
        with pytest.raises(FuzzError, match="tsunami"):
            SegmentSpec(model="tsunami", query_count=10, update_count=10)

    def test_unknown_knob_names_the_key(self):
        with pytest.raises(FuzzError, match="crowd_sise"):
            SegmentSpec(
                model="flash_crowd",
                query_count=10,
                update_count=10,
                knobs=(("crowd_sise", 3),),
            )

    def test_reserved_plumbing_fields_are_not_knobs(self):
        with pytest.raises(FuzzError, match="seed"):
            SegmentSpec(
                model="diurnal", query_count=10, update_count=10,
                knobs=(("seed", 3),),
            )

    def test_non_numeric_knob_rejected(self):
        with pytest.raises(FuzzError, match="amplitude"):
            SegmentSpec(
                model="diurnal", query_count=10, update_count=10,
                knobs=(("amplitude", "big"),),
            )
        with pytest.raises(FuzzError, match="must be a number"):
            SegmentSpec(
                model="diurnal", query_count=10, update_count=10,
                knobs=(("amplitude", True),),
            )

    def test_empty_segment_rejected(self):
        with pytest.raises(FuzzError, match="at least one event"):
            SegmentSpec(model="diurnal", query_count=0, update_count=0)
        with pytest.raises(FuzzError, match="non-negative"):
            SegmentSpec(model="diurnal", query_count=-1, update_count=5)

    def test_knobs_are_canonically_sorted(self):
        segment = SegmentSpec(
            model="update_storm",
            query_count=5,
            update_count=5,
            knobs=(("storm_width", 2), ("storm_count", 1)),
        )
        assert segment.knobs == (("storm_count", 1), ("storm_width", 2))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FuzzError, match="colour"):
            SegmentSpec.from_dict(
                {"model": "diurnal", "query_count": 5, "update_count": 5,
                 "colour": "red"}
            )
        with pytest.raises(FuzzError, match="missing required key"):
            SegmentSpec.from_dict({"model": "diurnal", "query_count": 5})


class TestCompositionSpec:
    def test_needs_a_segment(self):
        with pytest.raises(FuzzError, match="at least one segment"):
            CompositionSpec(segments=())

    def test_catalogue_knobs_validated(self):
        segment = SegmentSpec(model="diurnal", query_count=5, update_count=5)
        with pytest.raises(FuzzError, match="object_count"):
            CompositionSpec(segments=(segment,), object_count=1)
        with pytest.raises(FuzzError, match="positive"):
            CompositionSpec(segments=(segment,), cache_fraction=0.0)

    def test_cache_key_ignores_the_name(self):
        spec = draw_composition_spec(5)
        renamed = dataclasses.replace(spec, name="elsewhere")
        assert spec.cache_key() == renamed.cache_key()
        assert dataclasses.replace(spec, seed=6).cache_key() != spec.cache_key()

    def test_counts_sum_over_segments(self):
        spec = CompositionSpec(
            segments=(
                SegmentSpec(model="diurnal", query_count=5, update_count=7),
                SegmentSpec(model="update_storm", query_count=11, update_count=13),
            )
        )
        assert spec.query_count == 16
        assert spec.update_count == 20

    def test_adversary_segment_sized_just_past_the_cache(self):
        spec = CompositionSpec(
            segments=(
                SegmentSpec(model="cache_adversary", query_count=20, update_count=20),
            ),
            cache_fraction=0.2,
        )
        catalog = spec.build_catalog()
        stream = spec.build_stream(catalog)
        (adversary,) = stream.streams
        assert isinstance(adversary, CacheAdversaryStream)
        assert adversary.working_set_bytes == pytest.approx(
            catalog.total_size * 0.2 * 1.25
        )

    def test_bad_segment_knob_value_reported_with_its_segment(self):
        spec = CompositionSpec(
            segments=(
                SegmentSpec(
                    model="diurnal", query_count=5, update_count=5,
                    knobs=(("amplitude", 7.0),),
                ),
            )
        )
        with pytest.raises(FuzzError, match="segment 0 .*diurnal.* rejected"):
            spec.build_stream()
        # A segment is held to the ranges ExperimentConfig enforces: the same
        # table feeds both checks, and the message names knob and value.
        for model, knob, value in [
            ("flash_crowd", "crowd_intensity", 1.7),
            ("update_storm", "storm_cost_factor", -3.0),
            ("cache_adversary", "zipf_exponent", 0.0),
        ]:
            segment = SegmentSpec(
                model=model, query_count=5, update_count=5, knobs=((knob, value),)
            )
            with pytest.raises(
                FuzzError, match=f"segment 0 .*{model}.* rejected its knobs: {knob} .*{value}"
            ):
                CompositionSpec(segments=(segment,)).build_stream()

    def test_from_dict_rejects_malformed_input(self):
        with pytest.raises(FuzzError, match="segments"):
            CompositionSpec.from_dict({"seed": 3})
        with pytest.raises(FuzzError, match="mood"):
            CompositionSpec.from_dict(
                {"segments": [
                    {"model": "diurnal", "query_count": 5, "update_count": 5}
                 ], "mood": "grim"}
            )


# ----------------------------------------------------------------------
# The composed stream
# ----------------------------------------------------------------------
class TestComposedStream:
    SPEC = CompositionSpec(
        segments=(
            SegmentSpec(model="flash_crowd", query_count=40, update_count=20),
            SegmentSpec(model="cache_adversary", query_count=30, update_count=30),
        ),
        object_count=24,
        seed=9,
    )

    def test_ids_are_globally_unique_and_timestamps_consecutive(self):
        _, stream = self.SPEC.realise_stream()
        events = list(stream.iter_events())
        assert [e.timestamp for e in events] == [float(i + 1) for i in range(120)]
        query_ids = [e.query.query_id for e in events if isinstance(e, QueryEvent)]
        update_ids = [e.update.update_id for e in events if isinstance(e, UpdateEvent)]
        assert len(query_ids) == len(set(query_ids)) == 70
        assert len(update_ids) == len(set(update_ids)) == 50

    def test_update_region_is_the_union_of_segments(self):
        _, stream = self.SPEC.realise_stream()
        region = stream.update_region()
        assert len(region) == len(set(region))
        union = set()
        for segment in stream.streams:
            union |= set(segment.update_region())
        assert set(region) == union

    def test_needs_at_least_one_segment(self):
        catalog = self.SPEC.build_catalog()
        with pytest.raises(FuzzError, match="at least one segment"):
            ComposedScenarioStream(catalog=catalog, streams=())


# ----------------------------------------------------------------------
# The invariant checker catches each violation class
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StubStream(TraceStream):
    events: Tuple[TraceEvent, ...]
    advertised: int

    def __len__(self) -> int:
        return self.advertised

    def iter_events(self):
        return iter(self.events)


class TestInvariantChecker:
    def _catalog(self):
        return draw_composition_spec(1, object_count=24).build_catalog()

    def _events(self):
        catalog, stream = draw_composition_spec(
            1, object_count=24, max_events_per_segment=60
        ).realise_stream()
        return catalog, tuple(stream.iter_events())

    def test_accepts_a_sound_stream(self):
        catalog, events = self._events()
        check_stream_invariants(_StubStream(events, len(events)), catalog)

    def test_rejects_non_consecutive_timestamps(self):
        catalog, events = self._events()
        broken = events[:1] + events[2:]
        with pytest.raises(StreamInvariantError, match="timestamp"):
            check_stream_invariants(_StubStream(broken, len(broken)), catalog)

    def test_rejects_duplicate_ids(self):
        catalog, events = self._events()
        queries = [e for e in events if isinstance(e, QueryEvent)]
        clone = QueryEvent(
            dataclasses.replace(queries[0].query, timestamp=float(len(events) + 1))
        )
        broken = events + (clone,)
        with pytest.raises(StreamInvariantError, match="duplicate query id"):
            check_stream_invariants(_StubStream(broken, len(broken)), catalog)

    def test_rejects_unknown_object_ids(self):
        catalog, events = self._events()
        queries = [e for e in events if isinstance(e, QueryEvent)]
        rogue = QueryEvent(
            dataclasses.replace(
                queries[0].query,
                query_id=10**6,
                object_ids=frozenset({10**6}),
                timestamp=float(len(events) + 1),
            )
        )
        broken = events + (rogue,)
        with pytest.raises(StreamInvariantError, match="missing from the catalogue"):
            check_stream_invariants(_StubStream(broken, len(broken)), catalog)

    def test_rejects_non_positive_costs(self):
        catalog, events = self._events()
        queries = [e for e in events if isinstance(e, QueryEvent)]
        cheap = QueryEvent(
            dataclasses.replace(
                queries[0].query, query_id=10**6, cost=0.0,
                timestamp=float(len(events) + 1),
            )
        )
        broken = events + (cheap,)
        with pytest.raises(StreamInvariantError, match="cost"):
            check_stream_invariants(_StubStream(broken, len(broken)), catalog)

    def test_rejects_wrong_advertised_length(self):
        catalog, events = self._events()
        with pytest.raises(StreamInvariantError, match="advertises"):
            check_stream_invariants(_StubStream(events, len(events) + 1), catalog)


# ----------------------------------------------------------------------
# Minimal-repro files
# ----------------------------------------------------------------------
class TestReproFiles:
    def test_save_load_round_trip(self, tmp_path):
        spec = draw_composition_spec(17)
        path = save_composition(spec, tmp_path / "repro.json")
        assert load_composition(path) == spec

    def test_save_regression_names_after_the_spec(self, tmp_path):
        spec = draw_composition_spec(23)
        path = save_regression(spec, tmp_path / "repros")
        assert path == tmp_path / "repros" / f"{spec.name}.json"
        assert load_composition(path) == spec

    def test_load_errors_are_fuzz_errors(self, tmp_path):
        with pytest.raises(FuzzError, match="cannot read"):
            load_composition(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(FuzzError, match="not valid JSON"):
            load_composition(bad)

    def test_draw_rejects_bad_max_segments(self):
        with pytest.raises(FuzzError, match="max_segments"):
            draw_composition_spec(1, max_segments=0)


class _StubComparison:
    def __init__(self, traffic):
        self._traffic = traffic

    def traffic_of(self, name: str) -> float:
        return self._traffic[name]


class TestRegressionFlagging:
    SPEC = draw_composition_spec(31, max_events_per_segment=60)

    def test_vcover_loss_saves_a_repro_file(self, tmp_path):
        comparison = _StubComparison({"vcover": 120.0, "nocache": 100.0})
        path = maybe_save_regression(self.SPEC, comparison, tmp_path)
        assert path is not None
        assert load_composition(path) == self.SPEC

    def test_vcover_win_saves_nothing(self, tmp_path):
        comparison = _StubComparison({"vcover": 80.0, "nocache": 100.0})
        assert maybe_save_regression(self.SPEC, comparison, tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_missing_policy_or_disabled_dir_saves_nothing(self, tmp_path):
        losing = _StubComparison({"vcover": 120.0, "nocache": 100.0})
        assert maybe_save_regression(
            self.SPEC, _StubComparison({"vcover": 1.0}), tmp_path
        ) is None
        assert maybe_save_regression(self.SPEC, losing, None) is None


# ----------------------------------------------------------------------
# Replay byte-identity and the registry experiment
# ----------------------------------------------------------------------
class TestFuzzedReplay:
    POLICIES = ("nocache", "vcover")
    SPEC = draw_composition_spec(3, max_events_per_segment=120)

    def test_streaming_matches_materialised_payloads(self):
        materialised = api.run_scenario(self.SPEC, policies=self.POLICIES)
        streamed = api.run_scenario(
            self.SPEC, policies=self.POLICIES, streaming=True
        )
        assert canonical_payloads(materialised, self.POLICIES) == (
            canonical_payloads(streamed, self.POLICIES)
        )

    def test_parallel_matches_serial(self):
        serial = api.run_scenario(
            self.SPEC, policies=self.POLICIES, streaming=True, jobs=1
        )
        parallel = api.run_scenario(
            self.SPEC, policies=self.POLICIES, streaming=True, jobs=2
        )
        assert canonical_payloads(serial, self.POLICIES) == (
            canonical_payloads(parallel, self.POLICIES)
        )

    def test_multicache_engine_replays_compositions(self):
        from repro.sim.engine import EngineConfig
        from repro.sim.multicache import run_topology
        from repro.sim.runner import vcover_spec
        from repro.topology.spec import TopologySpec

        catalog, stream = self.SPEC.realise_stream()
        topology = TopologySpec.uniform(
            vcover_spec(), 2, cache_fraction=self.SPEC.cache_fraction
        )
        engine = EngineConfig(sample_every=100)
        from_stream = run_topology(topology, catalog, stream, engine)
        from_trace = run_topology(topology, catalog, stream.materialise(), engine)
        assert json.dumps(from_stream.aggregate.as_payload(), sort_keys=True) == (
            json.dumps(from_trace.aggregate.as_payload(), sort_keys=True)
        )

    def test_loaded_repro_replays_identically(self, tmp_path):
        path = save_composition(self.SPEC, tmp_path / "case.json")
        direct = api.run_scenario(self.SPEC, policies=self.POLICIES, streaming=True)
        reloaded = api.run_scenario(
            api.load_fuzzed_scenario(path), policies=self.POLICIES, streaming=True
        )
        assert canonical_payloads(direct, self.POLICIES) == (
            canonical_payloads(reloaded, self.POLICIES)
        )


class TestFuzzedExperiment:
    def test_runs_from_a_config_seed(self, tmp_path):
        result = api.run_experiment(
            "fuzzed",
            overrides={
                "seed": 5,
                "policies": ("nocache", "vcover"),
                "max_segments": 1,
                "repro_dir": str(tmp_path / "repros"),
            },
        )
        assert result.spec == draw_composition_spec(5, max_segments=1)
        assert result.streaming is True
        assert result.comparison.traffic_of("nocache") > 0
        rendered = api.format_result("fuzzed", result)
        assert "Fuzzed composition" in rendered
        assert result.models in rendered
        if result.regression_path is not None:
            assert "REGRESSION" in rendered
            assert load_composition(result.regression_path) == result.spec

    def test_draw_api_matches_experiment_draw(self):
        assert api.draw_fuzzed_scenario(5, max_segments=1) == (
            draw_composition_spec(5, max_segments=1)
        )
