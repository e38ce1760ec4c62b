"""Tests for the Delta middleware facade."""

from __future__ import annotations

import tracemalloc

import pytest

from repro import Delta, DeltaConfig
from repro.core.vcover import VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.network.cost import LinearCostModel
from repro.repository.objects import ObjectCatalog
from repro.sim.runner import SERVABLE_POLICIES, policy_spec, run_policy
from tests.conftest import make_query, make_update


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0})


def repository_bytes(catalog, updates):
    """Bytes allocated in ``repro/repository/`` still held after ``updates`` ingests."""
    tracemalloc.start()
    try:
        delta = Delta(catalog)
        for update_id in range(updates):
            delta.ingest_update(
                make_update(update_id, object_id=1 + update_id % 4, cost=1e-6, timestamp=update_id)
            )
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert delta.repository.stats()["updates_received"] == updates
    held = snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/repository/*")])
    return sum(stat.size for stat in held.statistics("filename"))


class TestConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            DeltaConfig(policy="oracle")

    def test_offline_policy_rejected(self, catalog):
        # Delta steps its policy event by event and never prepares it, so
        # SOptimal would silently run as NoCache.
        with pytest.raises(ValueError, match="'soptimal' builds SOptimalPolicy"):
            Delta(catalog, DeltaConfig(policy="soptimal"))

    def test_default_policy_is_vcover(self, catalog):
        delta = Delta(catalog)
        assert isinstance(delta.policy, VCoverPolicy)
        assert delta.config.cache_fraction == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "name,cls", [("nocache", NoCachePolicy), ("replica", ReplicaPolicy)]
    )
    def test_policy_selection_by_name(self, catalog, name, cls):
        delta = Delta(catalog, DeltaConfig(policy=name))
        assert isinstance(delta.policy, cls)

    def test_absolute_capacity_overrides_fraction(self, catalog):
        delta = Delta(catalog, DeltaConfig(cache_capacity=12.0, cache_fraction=0.9))
        assert delta.policy.store.capacity == pytest.approx(12.0)

    @pytest.mark.parametrize("capacity", [-1.0, float("nan")])
    def test_negative_or_nan_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="cache_capacity must be non-negative MB"):
            DeltaConfig(cache_capacity=capacity)

    def test_unbounded_capacity_accepted(self, catalog):
        delta = Delta(catalog, DeltaConfig(cache_capacity=float("inf")))
        assert delta.policy.store.fits(1e12)

    def test_fractional_capacity_derived_from_catalog(self, catalog):
        delta = Delta(catalog, DeltaConfig(cache_fraction=0.5))
        assert delta.policy.store.capacity == pytest.approx(50.0)


class TestOperation:
    def test_update_then_query_round_trip(self, catalog):
        delta = Delta(catalog, DeltaConfig(policy="vcover"))
        delta.ingest_update(make_update(1, object_id=1, cost=2.0, timestamp=1.0))
        outcome = delta.submit_query(make_query(1, object_ids=[1], cost=5.0, timestamp=2.0))
        assert outcome.query_id == 1
        report = delta.traffic_report()
        assert report["total"] == pytest.approx(outcome.total_cost)

    def test_traffic_report_breakdown_keys(self, catalog):
        delta = Delta(catalog)
        delta.submit_query(make_query(1, object_ids=[1], cost=5.0, timestamp=1.0))
        report = delta.traffic_report()
        assert {"total", "query_shipping", "update_shipping", "object_loading"} <= set(report)

    def test_cache_report_counts_events(self, catalog):
        delta = Delta(catalog)
        delta.ingest_update(make_update(1, object_id=2, cost=1.0, timestamp=1.0))
        delta.submit_query(make_query(1, object_ids=[2], cost=1.0, timestamp=2.0))
        report = delta.cache_report()
        assert report["queries_processed"] == 1
        assert report["updates_processed"] == 1

    def test_custom_cost_model_scales_traffic(self, catalog):
        delta = Delta(catalog, cost_model=LinearCostModel(factor=2.0))
        delta.submit_query(make_query(1, object_ids=[1], cost=5.0, timestamp=1.0))
        assert delta.traffic_report()["total"] == pytest.approx(10.0)

    def test_repository_receives_updates(self, catalog):
        delta = Delta(catalog)
        delta.ingest_update(make_update(1, object_id=3, cost=7.0, timestamp=1.0))
        assert delta.repository.object_version(3) == 1
        assert delta.repository.object_size(3) == pytest.approx(37.0)

    def test_long_running_deployment_holds_constant_repository_memory(self, catalog):
        # The repository keeps versions and totals, not history: ten times
        # the updates leave the same memory held by repro/repository/ (an
        # update log would hold every Update, megabytes here).  The slack
        # covers each object's fresh int and float counters, which the float
        # free list can charge to another allocation site.
        small, large = repository_bytes(catalog, 4_000), repository_bytes(catalog, 40_000)
        assert abs(large - small) <= 100 * len(catalog)

    def test_replica_deployment_is_always_current(self, catalog):
        delta = Delta(catalog, DeltaConfig(policy="replica"))
        delta.ingest_update(make_update(1, object_id=1, cost=2.0, timestamp=1.0))
        outcome = delta.submit_query(make_query(1, object_ids=[1], cost=5.0, timestamp=2.0))
        assert outcome.answered_at_cache
        assert delta.traffic_report()["update_shipping"] == pytest.approx(2.0)


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ExperimentConfig(seed=7).scaled(query_count=1500, update_count=1500))


@pytest.mark.parametrize("name", SERVABLE_POLICIES)
def test_event_by_event_matches_run_policy(scenario, name):
    """Delta fed the trace one event at a time is the simulated run, bit for bit."""
    delta = Delta(scenario.catalog, DeltaConfig(policy=name))
    answered = shipped = 0
    for is_update, payload in scenario.trace.iter_tagged():
        if is_update:
            delta.ingest_update(payload)
        elif delta.submit_query(payload).answered_at_cache:
            answered += 1
        else:
            shipped += 1
    run = run_policy(
        policy_spec(name), scenario.catalog, scenario.trace, scenario.catalog.total_size * 0.3
    )
    assert delta.traffic_report() == {"total": run.total_traffic, **run.traffic_by_mechanism}
    assert (answered, shipped) == (run.queries_answered_at_cache, run.queries_shipped)
    report = delta.cache_report()
    assert report["queries_processed"] == answered + shipped == scenario.trace.query_count
    assert report["updates_processed"] == scenario.trace.update_count
