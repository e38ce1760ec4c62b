"""Benchmark/regeneration of the paper's headline claims (Section 6 text).

Claim 1: with a cache one-fifth the server size, Delta/VCover cuts traffic by
roughly half versus shipping every query.
Claim 2: VCover beats the Benefit heuristic.
Claim 3: VCover tracks the hindsight-optimal static cache (SOptimal).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_jobs
from repro import api


@pytest.mark.benchmark(group="headline")
def test_headline_claims(benchmark, benchmark_config):
    result = benchmark.pedantic(
        api.run_experiment,
        args=("headline",),
        kwargs={
            "overrides": {
                "query_count": benchmark_config.query_count,
                "update_count": benchmark_config.update_count,
                "small_cache_fraction": 0.2,
            },
            "jobs": bench_jobs(),
        },
        rounds=1, iterations=1,
    )
    print()
    print(api.format_result("headline", result))
    benchmark.extra_info["traffic_reduction_vs_nocache"] = round(
        result.traffic_reduction_vs_nocache, 3
    )
    benchmark.extra_info["benefit_over_vcover"] = round(result.benefit_over_vcover, 3)
    benchmark.extra_info["vcover_over_soptimal"] = round(result.vcover_over_soptimal, 3)

    # Claim 1 (paper: ~50 % reduction with a one-fifth cache).  Our synthetic
    # trace is shorter than the SDSS trace, so accept anything past 25 %.
    assert result.traffic_reduction_vs_nocache >= 0.25
    # Claim 2 (paper: 2-5x).  Direction must hold; magnitude is workload
    # dependent (see docs/experiments.md).
    assert result.benefit_over_vcover >= 1.0
    # Claim 3 (paper: VCover ends ~40 % above SOptimal).
    assert result.vcover_over_soptimal <= 3.0
