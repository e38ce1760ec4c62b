"""Tests for the experiment registry and the ``repro.api`` facade."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    DuplicateExperimentError,
    ExperimentGrid,
    ExperimentSpec,
    UnknownExperimentError,
    UnknownOverrideError,
    register_experiment,
)

#: Every experiment the paper reproduction registers.
EXPECTED_EXPERIMENTS = {
    "ablations",
    "cache_adversary",
    "cache_size",
    "diurnal",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "flash_crowd",
    "headline",
    "multisite",
    "update_storm",
    "warmup",
}

#: A scenario small enough for full experiment runs in tests.
TINY = {"object_count": 20, "query_count": 500, "update_count": 500,
        "sample_every": 100, "benefit_window": 200}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(api.list_experiments()) == EXPECTED_EXPERIMENTS

    def test_names_are_unique(self):
        names = api.list_experiments()
        assert len(names) == len(set(names))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateExperimentError):
            register_experiment(
                name="headline", title="imposter", summarise=lambda ctx: None
            )(lambda config, knobs: ExperimentGrid())

    def test_unknown_experiment_raises_with_known_names(self):
        with pytest.raises(UnknownExperimentError, match="headline"):
            api.get_experiment("nope")

    def test_every_spec_round_trips_to_dict(self):
        for name in api.list_experiments():
            spec = api.get_experiment(name)
            payload = spec.to_dict()
            # Through real JSON, as a saved registry dump would be.
            restored = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
            assert restored == spec, name

    def test_spec_hooks_are_importable_references(self):
        for name in api.list_experiments():
            payload = api.get_experiment(name).to_dict()
            assert payload["build_grid"].startswith("repro.experiments."), name
            assert ":" in payload["summarise"], name


class TestOverrides:
    def test_config_field_override(self):
        spec = api.get_experiment("fig7a")
        assert spec.config.query_count != 300
        result = api.run_experiment(
            "fig7a", overrides={"object_count": 16, "query_count": 300,
                               "update_count": 300}
        )
        assert result.query_points

    def test_knob_override(self):
        result = api.run_experiment(
            "cache_size",
            overrides={**TINY, "fractions": (0.2, 0.5),
                       "policies": ("nocache", "vcover")},
        )
        assert result.axis == (0.2, 0.5)
        assert result.comparisons[0].policy_names() == ["nocache", "vcover"]

    def test_unknown_override_rejected_with_candidates(self):
        with pytest.raises(UnknownOverrideError, match="fractions"):
            api.run_experiment("cache_size", overrides={"fraktions": (0.2,)})

    def test_unknown_override_on_knobless_experiment(self):
        with pytest.raises(UnknownOverrideError):
            api.run_experiment("fig7b", overrides={"multipliers": (1.0,)})

    def test_non_numeric_config_override_rejected_early(self):
        # A typo'd CLI value must fail with the offending key, not a deep
        # TypeError inside trace generation.
        with pytest.raises(ValueError, match="query_count"):
            api.run_experiment("headline", overrides={"query_count": "lots"})

    def test_wrong_shaped_knob_override_rejected_early(self):
        with pytest.raises(api.InvalidOverrideError, match="top"):
            api.run_experiment("fig7a", overrides={"top": 2.5})
        with pytest.raises(api.InvalidOverrideError, match="fractions"):
            api.run_experiment("cache_size", overrides={"fractions": 0.3})

    def test_wrong_element_type_in_tuple_knob_rejected_early(self):
        with pytest.raises(api.InvalidOverrideError, match="object_counts"):
            api.run_experiment("fig8b", overrides={"object_counts": (10.5,)})

    def test_float_config_override_for_integer_field_rejected(self):
        with pytest.raises(ValueError, match="query_count"):
            api.run_experiment("fig7a", overrides={"query_count": 200.5})

    def test_spec_from_dict_rejects_unknown_config_key(self):
        payload = api.get_experiment("fig7a").to_dict()
        payload["config"] = {"object_cout": 20}
        with pytest.raises(ValueError, match="object_cout"):
            ExperimentSpec.from_dict(payload)

    def test_warmup_sampling_knob_is_not_shadowed(self):
        # occupancy_sample_every must actually change the sampling grid
        # (a knob named sample_every would be swallowed by the config field).
        small = {"object_count": 16, "query_count": 300, "update_count": 300}
        coarse = api.run_experiment(
            "warmup", overrides={**small, "occupancy_sample_every": 300}
        )
        fine = api.run_experiment(
            "warmup", overrides={**small, "occupancy_sample_every": 100}
        )
        assert len(fine.occupancy) > len(coarse.occupancy)

    def test_knob_shadowing_config_field_rejected_at_registration(self):
        from repro.experiments.registry import ExperimentGrid

        with pytest.raises(ValueError, match="shadow"):
            register_experiment(
                name="shadow-test", title="x", summarise=lambda ctx: None,
                knobs={"sample_every": 1},
            )(lambda config, knobs: ExperimentGrid())


class TestLegacyEquivalence:
    """``repro.api.run_experiment`` must match the per-part module functions."""

    def test_ablations_match_individual_functions(self):
        from repro.experiments import ablations
        from repro.experiments.config import build_scenario

        config = ExperimentConfig(**TINY)
        combined = api.run_experiment(
            "ablations", overrides={**TINY, "ablations": ("loading", "eviction")}
        )
        scenario = build_scenario(config)
        loading = ablations.run_loading_ablation(config, scenario)
        eviction = ablations.run_eviction_ablation(config, scenario)
        assert combined["loading"].traffic == loading.traffic
        assert combined["eviction"].traffic == eviction.traffic

    def test_jobs_do_not_change_results(self):
        serial = api.run_experiment(
            "headline", overrides={**TINY, "small_cache_fraction": 0.25}, jobs=1
        )
        parallel = api.run_experiment(
            "headline", overrides={**TINY, "small_cache_fraction": 0.25}, jobs=2
        )
        claims = serial.figure.claims
        assert [c.measure(serial) for c in claims] == [c.measure(parallel) for c in claims]
        assert [c.summary() for c in serial.comparisons] == [
            c.summary() for c in parallel.comparisons
        ]


class TestFacade:
    def test_format_result_uses_registered_formatter(self):
        result = api.run_experiment(
            "fig7a", overrides={"object_count": 16, "query_count": 300,
                               "update_count": 300}
        )
        assert "query hotspots" in api.format_result("fig7a", result)

    def test_run_scenario_accepts_spec_config_and_path(self, tmp_path):
        spec = api.ScenarioSpec.from_knobs(object_count=16, query_count=200,
                                           update_count=200)
        from_spec = api.run_scenario(spec, policies=("nocache",))
        from_config = api.run_scenario(spec.config, policies=("nocache",))
        path = api.save_scenario(spec, tmp_path / "spec.json")
        from_path = api.run_scenario(path, policies=("nocache",))
        assert (from_spec.traffic_of("nocache")
                == from_config.traffic_of("nocache")
                == from_path.traffic_of("nocache"))

    def test_run_scenario_rejects_a_repeated_policy(self):
        spec = api.ScenarioSpec.from_knobs(object_count=16, query_count=20, update_count=20)
        with pytest.raises(ValueError, match=r"^policies repeats 'vcover'; name each once$"):
            api.run_scenario(spec, policies=("vcover", "nocache", "vcover"))
