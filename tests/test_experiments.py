"""Tests for the experiment harness (small configurations).

The assertions here check the *shape* of each experiment's output -- the
orderings and monotonicities the paper reports -- on configurations small
enough to run in seconds.  The full-size regenerations live in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations, cache_size, fig7a, fig7b, fig8a, fig8b, headline, warmup
from repro.experiments.config import ExperimentConfig, build_catalog, build_scenario


@pytest.fixture(scope="module")
def small_config() -> ExperimentConfig:
    """A scaled-down scenario that keeps every experiment fast."""
    return ExperimentConfig(
        object_count=30,
        query_count=1500,
        update_count=1500,
        sample_every=300,
        benefit_window=500,
    )


@pytest.fixture(scope="module")
def small_scenario(small_config):
    return build_scenario(small_config)


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
    def result(self, small_config):
        return fig7b.run(small_config)

    def test_all_policies_present(self, result):
        assert set(result.final_costs()) == set(fig7b.POLICY_ORDER)

    def test_vcover_beats_nocache_and_replica(self, result):
        costs = result.final_costs()
        assert costs["vcover"] < costs["nocache"]
        assert costs["vcover"] < costs["replica"]

    def test_soptimal_is_best(self, result):
        costs = result.final_costs()
        assert costs["soptimal"] <= min(costs["vcover"], costs["benefit"]) + 1e-6

    def test_cumulative_series_are_monotone(self, result):
        for policy in fig7b.POLICY_ORDER:
            series = [value for _, value in result.series(policy)]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:], strict=False))

    def test_format_table_mentions_ratios(self, result):
        text = fig7b.format_table(result)
        assert "nocache_over_vcover" in text


class TestFig8aUpdateSweep:
    @pytest.fixture(scope="class")
    def result(self, small_config):
        return fig8a.run(small_config, multipliers=(0.5, 1.0, 1.5),
                         policies=("nocache", "replica", "vcover"))

    def test_nocache_flat_replica_linear(self, result):
        assert result.growth("nocache") == pytest.approx(1.0, rel=0.05)
        assert result.growth("replica") == pytest.approx(3.0, rel=0.15)

    def test_vcover_grows_slower_than_replica(self, result):
        assert result.growth("vcover") < result.growth("replica")

    def test_table_has_one_row_per_policy(self, result):
        text = fig8a.format_table(result)
        assert "nocache" in text and "replica" in text and "vcover" in text


class TestFig8bGranularity:
    def test_granularity_sweep_shape(self, small_config):
        result = fig8b.run(small_config, object_counts=(10, 30, 91))
        assert set(result.object_counts) == {10, 30, 91}
        assert all(value > 0 for value in result.traffic.values())
        assert result.best_level() in {10, 30, 91}
        assert "objects" in fig8b.format_table(result)

    def test_intermediate_granularity_not_worst(self, small_config):
        """The coarsest partitioning should not be the best one (Fig 8b shape)."""
        result = fig8b.run(small_config, object_counts=(10, 30, 91))
        assert result.traffic[30] <= result.traffic[10] * 1.25


class TestHeadline:
    def test_headline_claims_direction(self, small_config):
        result = headline.run(small_config, cache_fraction=0.2)
        assert result.traffic_reduction_vs_nocache > 0.15
        assert result.vcover_over_soptimal >= 1.0
        assert "traffic reduction" in headline.format_report(result)
        summary = result.summary()
        assert "benefit_over_vcover" in summary


class TestCacheSizeSweep:
    def test_bigger_cache_never_hurts_much(self, small_config):
        result = cache_size.run(
            small_config, fractions=(0.1, 0.3, 1.0), policies=("nocache", "vcover")
        )
        vcover = result.traffic["vcover"]
        assert vcover[-1] <= vcover[0] * 1.1
        assert result.traffic["nocache"][0] == pytest.approx(result.traffic["nocache"][-1])
        assert "vcover" in cache_size.format_table(result)

    def test_marginal_gain_length(self, small_config):
        result = cache_size.run(small_config, fractions=(0.1, 0.3), policies=("vcover",))
        assert len(result.marginal_gain("vcover")) == 1


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

    def test_benefit_sensitivity_labels(self, small_config, small_scenario):
        result = ablations.run_benefit_sensitivity(
            small_config, small_scenario, windows=(250,), alphas=(0.3,)
        )
        assert set(result.traffic) == {"window=250", "alpha=0.3"}
