"""Tests for the declarative scenario layer (``repro.experiments.spec``)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.spec import (
    CONFIG_FIELDS,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    save_scenario,
)
from repro.workload.trace import InlineScenario, ScenarioSource

#: Small knobs shared by the tests here.
SMALL = dict(object_count=16, query_count=200, update_count=200, seed=5)


class TestScenarioSpec:
    def test_is_a_scenario_source(self):
        spec = ScenarioSpec.from_knobs(**SMALL)
        assert isinstance(spec, ScenarioSource)
        assert isinstance(spec.inline(), ScenarioSource)

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec.from_knobs(name="tiny", **SMALL)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # And through actual JSON text, which is what scenario files hold.
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_flat_dict_accepted(self):
        spec = ScenarioSpec.from_dict({"name": "flat", **SMALL})
        assert spec.name == "flat"
        assert spec.config.object_count == SMALL["object_count"]

    def test_unknown_knob_rejected_with_key(self):
        with pytest.raises(ScenarioError, match="num_objects"):
            ScenarioSpec.from_dict({"num_objects": 10})

    def test_invalid_value_rejected(self):
        with pytest.raises(ScenarioError, match="invalid scenario config"):
            ScenarioSpec.from_dict({"object_count": 0})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ScenarioError, match="query_count"):
            ScenarioSpec.from_dict({"query_count": "lots"})

    def test_unknown_workload_model_reports_key_value_and_choices(self):
        # The boundary error must carry everything needed to fix the file:
        # the offending knob name, the bad value, and the known models.
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict({"workload_model": "tsunami"})
        message = str(excinfo.value)
        assert "'workload_model'" in message
        assert "'tsunami'" in message
        assert "cache_adversary" in message and "flash_crowd" in message

    def test_non_string_workload_model_reports_key_and_value(self):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict({"workload_model": 3})
        message = str(excinfo.value)
        assert "'workload_model'" in message
        assert "must be a string" in message
        assert "3" in message

    def test_invalid_model_knob_value_reports_key_and_value(self):
        # Out-of-range values for the model knobs surface the knob name and
        # the rejected value through the config validator.
        with pytest.raises(ScenarioError, match="adversary_scan_probability.*2.0"):
            ScenarioSpec.from_dict({"adversary_scan_probability": 2.0})
        with pytest.raises(ScenarioError, match="zipf_exponent.*-1.0"):
            ScenarioSpec.from_dict({"zipf_exponent": -1.0})

    def test_float_for_integer_knob_rejected(self):
        # 200.5 events would pass a bare numeric check and explode deep in
        # trace generation; the validator must catch it at the boundary.
        with pytest.raises(ScenarioError, match="query_count.*integer"):
            ScenarioSpec.from_dict({"query_count": 200.5})
        # Float knobs still accept ints.
        spec = ScenarioSpec.from_dict({"cache_fraction": 1})
        assert spec.config.cache_fraction == 1

    def test_scaled_copy(self):
        spec = ScenarioSpec.from_knobs(**SMALL)
        scaled = spec.scaled(query_count=50)
        assert scaled.config.query_count == 50
        assert spec.config.query_count == SMALL["query_count"]

    def test_cache_key_distinguishes_configs(self):
        first = ScenarioSpec.from_knobs(**SMALL)
        second = first.scaled(seed=6)
        assert first.cache_key() != second.cache_key()
        assert first.cache_key() == ScenarioSpec.from_knobs(**SMALL).cache_key()

    def test_cache_key_ignores_the_name(self):
        # The name is a label, not a build input; same-config specs under
        # different names must memoise to one build per worker.
        config = ExperimentConfig(**SMALL)
        assert (ScenarioSpec(config, name="a").cache_key()
                == ScenarioSpec(config, name="b").cache_key())


class TestInlineDrift:
    def test_recipe_and_inline_paths_build_identical_traces(self, tmp_path):
        """Regression: the declarative and prebuilt paths can never drift.

        The recipe path rebuilds from knobs inside a worker; the inline path
        ships a parent-built trace.  Both must produce byte-identical traces
        for the same knobs.
        """
        spec = ScenarioSpec.from_knobs(**SMALL)
        _, recipe_trace = spec.realise()
        inline = spec.inline()
        assert isinstance(inline, InlineScenario)
        _, inline_trace = inline.realise()
        recipe_path = tmp_path / "recipe.jsonl"
        inline_path = tmp_path / "inline.jsonl"
        recipe_trace.to_jsonl(recipe_path)
        inline_trace.to_jsonl(inline_path)
        assert recipe_path.read_bytes() == inline_path.read_bytes()


class TestScenarioFiles:
    def test_json_round_trip(self, tmp_path):
        spec = ScenarioSpec.from_knobs(name="filed", **SMALL)
        path = save_scenario(spec, tmp_path / "filed.json")
        assert load_scenario(path) == spec

    def test_unnamed_file_takes_stem(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"object_count": 12}), encoding="utf-8")
        assert load_scenario(path).name == "mystery"

    def test_toml_file(self, tmp_path):
        path = tmp_path / "survey.toml"
        path.write_text(
            'name = "survey"\n[config]\nobject_count = 12\nquery_count = 150\n'
            "update_count = 150\n",
            encoding="utf-8",
        )
        spec = load_scenario(path)
        assert spec.name == "survey"
        assert spec.config.object_count == 12

    def test_missing_file_raises_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_malformed_json_raises_scenario_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_file_scenario_runs_end_to_end(self, tmp_path):
        """A scenario defined purely as JSON runs with no Python authored."""
        from repro import api

        path = tmp_path / "e2e.json"
        path.write_text(json.dumps({"config": SMALL}), encoding="utf-8")
        comparison = api.run_scenario(path, policies=("nocache", "vcover"))
        assert set(comparison.runs) == {"nocache", "vcover"}
        assert comparison.traffic_of("nocache") > 0


class TestConfigFieldsConstant:
    def test_matches_experiment_config(self):
        import dataclasses

        assert set(CONFIG_FIELDS) == {
            f.name for f in dataclasses.fields(ExperimentConfig)
        }
