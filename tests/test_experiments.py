"""Tests for the experiment harness (small configurations).

The assertions here check the *shape* of each experiment's output -- the
orderings and monotonicities the paper reports -- on configurations small
enough to run in seconds.  The figure claims are gated at their own scale in
``tests/test_figure_claims.py``; the fig7a, warm-up and ablation claims are
gated at theirs at the end of this module.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.experiments import ablations, fig7a, warmup
from repro.experiments.config import ExperimentConfig, build_catalog, build_scenario
from repro.sim.runner import DEFAULT_POLICIES
from repro.sim.sweep import SweepRunner

#: A scaled-down scenario that keeps every experiment fast.
SMALL = {
    "object_count": 30,
    "query_count": 1500,
    "update_count": 1500,
    "sample_every": 300,
    "benefit_window": 500,
}


#: The scales the claim gates hold at: long enough for the paper's
#: qualitative shape to be stable.
CLAIM_SCALE = {"query_count": 6000, "update_count": 6000}
ABLATION_SCALE = {"query_count": 4000, "update_count": 4000}


@pytest.fixture(scope="module")
def small_config() -> ExperimentConfig:
    return ExperimentConfig(**SMALL)


@pytest.fixture(scope="module")
def small_scenario(small_config):
    return build_scenario(small_config)


@pytest.fixture(scope="module")
def claim_config() -> ExperimentConfig:
    return ExperimentConfig(**CLAIM_SCALE)


@pytest.fixture(scope="module")
def claim_scenario(claim_config):
    return build_scenario(claim_config)


@pytest.fixture(scope="module")
def ablation_config() -> ExperimentConfig:
    return ExperimentConfig(**ABLATION_SCALE)


@pytest.fixture(scope="module")
def ablation_scenario(ablation_config):
    return build_scenario(ablation_config)


class TestConfigAndScenario:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(object_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(warmup_fraction=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(cache_fraction=0.0)

    def test_derived_quantities(self, small_config):
        assert small_config.total_events == 3000
        assert small_config.measure_from == 600
        assert small_config.server_size > 0

    def test_scaled_copy(self, small_config):
        scaled = small_config.scaled(query_count=10)
        assert scaled.query_count == 10
        assert small_config.query_count == 1500

    def test_catalog_matches_object_count(self, small_config):
        catalog = build_catalog(small_config)
        assert len(catalog) == small_config.object_count

    def test_scenario_traffic_near_targets(self, small_config, small_scenario):
        trace = small_scenario.trace
        server = small_scenario.catalog.total_size
        assert trace.total_query_cost() == pytest.approx(
            server * small_config.query_traffic_fraction, rel=1e-6
        )
        assert trace.total_update_cost() == pytest.approx(
            server * small_config.update_traffic_fraction, rel=1e-6
        )

    def test_scenario_is_reproducible(self, small_config):
        first = build_scenario(small_config)
        second = build_scenario(small_config)
        assert first.trace.describe() == second.trace.describe()
        assert first.update_region == second.update_region


class TestFig7aWorkload:
    def test_hotspots_are_distinct_and_workload_evolves(self, small_scenario):
        result = fig7a.characterise_trace(small_scenario.trace)
        assert result.hotspot_overlap <= 0.35
        assert result.evolution_distance > 0.05
        assert result.query_points and result.update_points
        report = fig7a.format_report(result)
        assert "query hotspots" in report

    def test_scatter_sample_is_thinned(self, small_scenario):
        result = fig7a.characterise_trace(small_scenario.trace)
        sample = result.scatter_sample(stride=100)
        assert len(sample) < (len(result.query_points) + len(result.update_points)) / 50


class TestFig7bCumulativeTraffic:
    @pytest.fixture(scope="class")
    def result(self):
        return api.run_experiment("fig7b", overrides=SMALL)

    def test_all_policies_present(self, result):
        assert result.comparisons[0].policy_names() == list(DEFAULT_POLICIES)

    def test_vcover_beats_nocache_and_replica(self, result):
        costs = result.comparisons[0]
        assert costs.traffic_of("vcover") < costs.traffic_of("nocache")
        assert costs.traffic_of("vcover") < costs.traffic_of("replica")

    def test_soptimal_is_best(self, result):
        costs = result.comparisons[0]
        best_algorithm = min(costs.traffic_of("vcover"), costs.traffic_of("benefit"))
        assert costs.traffic_of("soptimal") <= best_algorithm + 1e-6

    def test_cumulative_series_are_monotone(self, result):
        for policy in DEFAULT_POLICIES:
            series = [value for _, value in result.comparisons[0][policy].time_series.as_rows()]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:], strict=False))

    def test_format_table_mentions_ratios(self, result):
        text = api.format_result("fig7b", result)
        assert "nocache_over_vcover" in text


class TestFig8aUpdateSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return api.run_experiment("fig8a", overrides={
            **SMALL, "multipliers": (0.5, 1.0, 1.5),
            "policies": ("nocache", "replica", "vcover"),
        })

    def test_nocache_flat_replica_linear(self, result):
        assert result.growth("nocache") == pytest.approx(1.0, rel=0.05)
        assert result.growth("replica") == pytest.approx(3.0, rel=0.15)

    def test_vcover_grows_slower_than_replica(self, result):
        assert result.growth("vcover") < result.growth("replica")

    def test_table_has_one_row_per_policy(self, result):
        text = api.format_result("fig8a", result)
        assert "nocache" in text and "replica" in text and "vcover" in text
        # Columns are the swept update counts.
        assert result.headers == ("750", "1500", "2250")


class TestFig8bGranularity:
    @pytest.fixture(scope="class")
    def result(self):
        return api.run_experiment("fig8b", overrides={**SMALL, "object_counts": (10, 30, 91)})

    def test_granularity_sweep_shape(self, result):
        assert result.axis == (10, 30, 91)
        series = result.series("vcover")
        assert all(value > 0 for value in series)
        assert result.axis[series.index(min(series))] in {10, 30, 91}
        assert "objects" in api.format_result("fig8b", result)

    def test_intermediate_granularity_not_worst(self, result):
        """The coarsest partitioning should not be the best one (Fig 8b shape)."""
        assert result.at(30).traffic_of("vcover") <= result.at(10).traffic_of("vcover") * 1.25


class TestHeadline:
    def test_headline_claims_direction(self):
        result = api.run_experiment("headline", overrides={**SMALL, "small_cache_fraction": 0.2})
        small, default = result.comparisons
        assert 1 - small.ratio("vcover", "nocache") > 0.15
        assert default.ratio("vcover", "soptimal") >= 1.0
        assert "traffic reduction" in api.format_result("headline", result)
        assert "benefit_over_vcover" in default.headline_ratios()


class TestCacheSizeSweep:
    def test_bigger_cache_never_hurts_much(self):
        result = api.run_experiment("cache_size", overrides={
            **SMALL, "fractions": (0.1, 0.3, 1.0), "policies": ("nocache", "vcover"),
        })
        vcover = result.series("vcover")
        assert vcover[-1] <= vcover[0] * 1.1
        nocache = result.series("nocache")
        assert nocache[0] == pytest.approx(nocache[-1])
        assert "vcover" in api.format_result("cache_size", result)

    def test_marginal_gain_length(self):
        result = api.run_experiment("cache_size", overrides={
            **SMALL, "fractions": (0.1, 0.3), "policies": ("vcover",),
        })
        assert result.headers == ("10%", "30%")
        assert len(result.series("vcover")) == 2


class TestWarmup:
    def test_warmup_trajectory(self, small_config):
        result = warmup.run(small_config, sample_every=300)
        assert result.occupancy
        # Occupancy is low during the cheap-query prefix and higher at the end.
        first_occupancy = result.occupancy[0][1]
        last_occupancy = result.occupancy[-1][1]
        assert last_occupancy >= first_occupancy
        assert "Warm-up" in warmup.format_report(result)

    def test_trace_tail_is_sampled(self):
        """The knee is measured against the occupancy at the end of the trace."""
        config = ExperimentConfig(query_count=400, update_count=333)
        result = warmup.run(config, sample_every=250)
        assert [index for index, _ in result.occupancy] == [250, 500, 733]
        assert [index for index, _ in result.hit_rate] == [250, 500, 733]


class TestAblations:
    def test_loading_ablation_runs_both_variants(self, small_config, small_scenario):
        result = ablations.run_loading_ablation(small_config, small_scenario)
        assert set(result.traffic) == {"randomized", "counter"}
        relative = result.relative_to("randomized")
        assert relative["randomized"] == pytest.approx(1.0)

    def test_eviction_ablation(self, small_config, small_scenario):
        result = ablations.run_eviction_ablation(
            small_config, small_scenario, policies=("gds", "lru")
        )
        assert set(result.traffic) == {"gds", "lru"}
        assert "gds" in ablations.format_table("eviction", result)

    def test_unknown_eviction_policy_fails_before_any_replay(self, monkeypatch):
        def no_sweep(self, points, scenarios):
            raise AssertionError("the sweep ran before the policy names were checked")

        monkeypatch.setattr(SweepRunner, "run", no_sweep)
        with pytest.raises(ValueError, match="'vcover-fifo'.*vcover-lru"):
            api.run_experiment(
                "ablations",
                overrides={**SMALL, "ablations": ("eviction",),
                           "eviction_policies": ("gds", "fifo")},
            )

    def test_eviction_names_resolve_like_the_experiment_policies(self, small_config):
        (lru,) = small_config.policy_specs(include=("vcover-lru",))
        assert lru.name == "vcover-lru"
        assert lru.factory.keywords["config"].eviction_policy == "lru"
        with pytest.raises(ValueError, match="known: .*nocache.*vcover-gds"):
            small_config.policy_specs(include=("nocache", "lru"))

    def test_benefit_sensitivity_labels(self, small_config, small_scenario):
        result = ablations.run_benefit_sensitivity(
            small_config, small_scenario, windows=(250,), alphas=(0.3,)
        )
        assert set(result.traffic) == {"window=250", "alpha=0.3"}


class TestFig7aAtScale:
    def test_hotspots_are_distinct_and_workload_evolves(self, claim_scenario):
        result = fig7a.characterise_trace(claim_scenario.trace)
        # Figure 7a's two visual claims: distinct query and update hotspots,
        # and a queried object set that evolves over the trace.
        assert result.hotspot_overlap <= 0.35
        assert result.evolution_distance >= 0.05


class TestWarmupAtScale:
    def test_cache_fills_only_after_the_cheap_prefix(self, claim_config):
        result = warmup.run(claim_config, sample_every=500)
        end = result.configured_warmup_end
        early = [used for event, used in result.occupancy if event <= end]
        late = [used for event, used in result.occupancy if event > end]
        assert early and late
        # The cache is (nearly) empty during the cheap-query prefix and fills
        # afterwards.
        assert max(early) <= 0.5
        assert max(late) > max(early)
        # The cache cannot fill while queries are cheap, so the occupancy knee
        # falls in the neighbourhood of the configured boundary or after it.
        assert result.warmup_knee >= end * 0.5


class TestAblationsAtScale:
    def test_counter_loading_tracks_randomized(self, ablation_config, ablation_scenario):
        result = ablations.run_loading_ablation(ablation_config, ablation_scenario)
        # The randomized mechanism emulates the counters in expectation.
        assert 0.6 <= result.relative_to("randomized")["counter"] <= 1.6

    def test_gds_is_competitive_with_every_eviction_policy(
        self, ablation_config, ablation_scenario
    ):
        result = ablations.run_eviction_ablation(ablation_config, ablation_scenario)
        assert min(result.relative_to("gds").values()) >= 0.75

    def test_preshipping_trades_traffic_for_fewer_delayed_queries(
        self, ablation_config, ablation_scenario
    ):
        result = ablations.run_preship_ablation(ablation_config, ablation_scenario)
        baseline, preship = result["baseline"], result["preship"]
        assert preship.total_traffic >= baseline.total_traffic - 1e-6
        assert (
            preship.response_times.delayed_fraction
            <= baseline.response_times.delayed_fraction + 1e-9
        )

    def test_benefit_depends_visibly_on_its_tuning(self, ablation_config, ablation_scenario):
        result = ablations.run_benefit_sensitivity(
            ablation_config, ablation_scenario, windows=(250, 1000, 2000), alphas=(0.1, 0.3, 0.9)
        )
        values = list(result.traffic.values())
        # The paper's point about heuristic brittleness.
        assert max(values) / min(values) >= 1.02
