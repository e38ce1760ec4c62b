"""Tests for the parallel sweep runner (repro.sim.sweep).

The load-bearing guarantees: a sweep's results are independent of the worker
count (``jobs=1`` and ``jobs=4`` produce byte-identical traffic totals),
every policy spec the repo ships can cross a process boundary, and the JSON
artifacts round-trip losslessly.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.benefit import BenefitConfig
from repro.core.vcover import VCoverConfig
from repro import api
from repro.experiments import ablations
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.experiments.spec import ScenarioSpec
from repro.network.link import NetworkLink
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig
from repro.sim.runner import (
    benefit_spec,
    compare_policies,
    default_policy_specs,
    vcover_spec,
)
from repro.sim.sweep import (
    DEFAULT_SCENARIO,
    SweepPoint,
    SweepRunner,
    derive_seed,
    load_artifacts,
)
from repro.workload.trace import InlineScenario


#: The small scenario's knobs, as flat experiment overrides.
SMALL = {"object_count": 12, "query_count": 300, "update_count": 300, "sample_every": 100}


@pytest.fixture(scope="module")
def small_config() -> ExperimentConfig:
    return ExperimentConfig(**SMALL)


@pytest.fixture(scope="module")
def small_scenario(small_config):
    return build_scenario(small_config)


def _grid_points(small_config, fractions=(0.2, 0.4), seeds=(3, 5)):
    """A policy x fraction x seed grid of 2 x 2 x 2 = 8 points."""
    specs = default_policy_specs(include=("nocache", "vcover"))
    points = [
        SweepPoint(
            key=f"{spec.name}-c{fraction:g}-s{seed}",
            spec=spec,
            scenario=f"seed{seed}",
            cache_fraction=fraction,
            engine=EngineConfig(sample_every=100),
            seed=seed,
            tags=(("fraction", fraction), ("seed", seed)),
        )
        for seed in seeds
        for fraction in fractions
        for spec in specs
    ]
    scenarios = {
        f"seed{seed}": ScenarioSpec(small_config.scaled(seed=seed))
        for seed in seeds
    }
    return points, scenarios


class TestPicklability:
    def test_default_specs_survive_pickling(self):
        for spec in default_policy_specs(
            vcover_config=VCoverConfig(eviction_policy="lru"),
            benefit_config=BenefitConfig(window_size=123),
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == spec.name

    def test_unpickled_factory_builds_a_working_policy(self, small_scenario):
        spec = pickle.loads(pickle.dumps(vcover_spec(VCoverConfig(seed=5))))
        repository = Repository(small_scenario.catalog)
        policy = spec.factory(repository, 100.0, NetworkLink())
        assert policy.name == "vcover"

    def test_ablation_variant_specs_survive_pickling(self):
        variants = [
            vcover_spec(VCoverConfig(randomized_loading=False), name="vcover-counter"),
            vcover_spec(VCoverConfig(eviction_policy="lru"), name="vcover-lru"),
            benefit_spec(BenefitConfig(window_size=250, alpha=0.9), name="benefit-a0.9"),
        ]
        for spec in variants:
            assert pickle.loads(pickle.dumps(spec)).name == spec.name

    def test_sweep_points_and_scenarios_survive_pickling(self, small_config):
        points, scenarios = _grid_points(small_config)
        for point in points:
            assert pickle.loads(pickle.dumps(point)).key == point.key
        for scenario in scenarios.values():
            assert pickle.loads(pickle.dumps(scenario)).config == scenario.config


class TestDeterminism:
    def test_compare_policies_parallel_matches_serial(self, small_config, small_scenario):
        engine = EngineConfig(sample_every=100, measure_from=small_config.measure_from)
        serial = compare_policies(
            small_scenario.catalog, small_scenario.trace,
            cache_fraction=0.3, engine_config=engine, jobs=1,
        )
        parallel = compare_policies(
            small_scenario.catalog, small_scenario.trace,
            cache_fraction=0.3, engine_config=engine, jobs=4,
        )
        assert serial.policy_names() == parallel.policy_names()
        for name in serial.policy_names():
            assert serial[name].total_traffic == parallel[name].total_traffic
            assert serial[name].warmup_traffic == parallel[name].warmup_traffic
            assert serial[name].traffic_by_mechanism == parallel[name].traffic_by_mechanism
            assert (
                serial[name].queries_answered_at_cache
                == parallel[name].queries_answered_at_cache
            )

    def test_grid_sweep_parallel_matches_serial(self, small_config):
        points, scenarios = _grid_points(small_config)
        assert len(points) >= 8
        serial = SweepRunner(jobs=1).run(points, scenarios)
        parallel = SweepRunner(jobs=4).run(points, scenarios)
        assert len(serial) == len(parallel) == len(points)
        for one, other in zip(serial.points, parallel.points, strict=True):
            assert one.point.key == other.point.key
            assert one.payload() == other.payload()

    def test_derive_seed_is_stable_and_spreads(self):
        assert derive_seed(7, "vcover", 0.3) == derive_seed(7, "vcover", 0.3)
        seeds = {derive_seed(7, name, i) for i, name in enumerate(("a", "b", "c", "d"))}
        assert len(seeds) == 4


class TestArtifacts:
    def test_one_json_artifact_per_point_plus_manifest(self, small_config, tmp_path):
        points, scenarios = _grid_points(small_config)
        out = tmp_path / "artifacts"
        result = SweepRunner(jobs=2, output_dir=out).run(points, scenarios)
        assert result.artifact_dir == out
        files = sorted(path.name for path in out.glob("*.json"))
        assert len(files) == len(points) + 1  # one per point + manifest
        payloads = load_artifacts(out)
        assert set(payloads) == {point.key for point in points}

    def test_artifact_round_trip(self, small_config, tmp_path):
        points, scenarios = _grid_points(small_config, fractions=(0.3,), seeds=(3,))
        result = SweepRunner(jobs=1, output_dir=tmp_path).run(points, scenarios)
        payloads = load_artifacts(tmp_path)
        for point_result in result.points:
            assert payloads[point_result.point.key] == point_result.payload()

    def test_truncated_artifact_dir_detected(self, small_config, tmp_path):
        points, scenarios = _grid_points(small_config, fractions=(0.3,), seeds=(3,))
        SweepRunner(jobs=1, output_dir=tmp_path).run(points, scenarios)
        (tmp_path / f"{points[0].key}.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_artifacts(tmp_path)


class TestRunnerValidation:
    def test_duplicate_keys_rejected(self, small_scenario):
        spec = default_policy_specs(include=("nocache",))[0]
        points = [SweepPoint(key="dup", spec=spec), SweepPoint(key="dup", spec=spec)]
        scenarios = {
            DEFAULT_SCENARIO: InlineScenario(small_scenario.catalog, small_scenario.trace)
        }
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner().run(points, scenarios)

    def test_unknown_scenario_rejected(self, small_scenario):
        spec = default_policy_specs(include=("nocache",))[0]
        points = [SweepPoint(key="p", spec=spec, scenario="missing")]
        scenarios = {
            DEFAULT_SCENARIO: InlineScenario(small_scenario.catalog, small_scenario.trace)
        }
        with pytest.raises(ValueError, match="unknown scenario"):
            SweepRunner().run(points, scenarios)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_progress_fires_once_per_point(self, small_config):
        points, scenarios = _grid_points(small_config, fractions=(0.3,), seeds=(3,))
        calls = []
        SweepRunner(progress=lambda done, total, result: calls.append((done, total))).run(
            points, scenarios
        )
        assert calls == [(1, len(points)), (2, len(points))]

    def test_selection_and_comparison_slices(self, small_config):
        points, scenarios = _grid_points(small_config)
        result = SweepRunner(jobs=1).run(points, scenarios)
        slice_points = result.select(fraction=0.2, seed=3)
        assert {p.point.spec.name for p in slice_points} == {"nocache", "vcover"}
        comparison = result.comparison(fraction=0.2, seed=3)
        assert set(comparison.policy_names()) == {"nocache", "vcover"}
        with pytest.raises(ValueError, match="more than once"):
            result.comparison(fraction=0.2)


class TestExperimentsOnSweep:
    def test_cache_size_sweep_parallel_matches_serial(self):
        overrides = {**SMALL, "fractions": (0.2, 0.5), "policies": ("nocache", "vcover")}
        serial = api.run_experiment("cache_size", overrides=overrides, jobs=1)
        parallel = api.run_experiment("cache_size", overrides=overrides, jobs=2)
        for policy in ("nocache", "vcover"):
            assert serial.series(policy) == parallel.series(policy)

    def test_ablation_jobs_matches_serial(self, small_config, small_scenario):
        serial = ablations.run_loading_ablation(small_config, small_scenario, jobs=1)
        parallel = ablations.run_loading_ablation(small_config, small_scenario, jobs=2)
        assert serial.traffic == parallel.traffic

    def test_fig8a_comparisons_carry_trace_description(self):
        result = api.run_experiment(
            "fig8a", overrides={**SMALL, "multipliers": (1.0,), "policies": ("nocache",)}
        )
        assert result.comparisons[0].trace_description["events"] > 0
