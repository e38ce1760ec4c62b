"""Tests for the VCover policy end to end (on small hand-built scenarios)."""

from __future__ import annotations

import pytest

from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.flow import incremental as incremental_module
from repro.flow.maxflow import dinic_max_flow
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import ReplayKernel
from tests.conftest import make_query, make_update


def make_vcover(catalog=None, capacity=60.0, **config_kwargs):
    catalog = catalog or ObjectCatalog.from_sizes({1: 10.0, 2: 20.0, 3: 30.0, 4: 15.0})
    repository = Repository(catalog)
    link = NetworkLink()
    policy = VCoverPolicy(repository, capacity, link, VCoverConfig(**config_kwargs))
    return policy, repository, link


def feed_update(policy, repository, update):
    repository.ingest_update(update)
    policy.on_update(update)


class TestMissingObjectPath:
    def test_query_with_missing_objects_is_shipped(self):
        policy, _, link = make_vcover()
        outcome = policy.on_query(make_query(1, object_ids=[1], cost=5.0, timestamp=1.0))
        assert not outcome.answered_at_cache
        assert outcome.query_shipping_cost == pytest.approx(5.0)
        assert link.total_by_mechanism()["query_shipping"] == pytest.approx(5.0)

    def test_expensive_query_triggers_load_for_next_time(self):
        policy, _, _ = make_vcover()
        first = policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        assert first.loaded_objects == (1,)
        assert policy.is_resident(1)
        # The follow-up query is answered from the cache for free.
        second = policy.on_query(make_query(2, object_ids=[1], cost=50.0, timestamp=2.0))
        assert second.answered_at_cache
        assert second.total_cost == pytest.approx(0.0)

    def test_load_costs_charged_to_link(self):
        policy, _, link = make_vcover()
        outcome = policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        assert outcome.load_cost == pytest.approx(10.0)
        assert link.total_by_mechanism()["object_loading"] == pytest.approx(10.0)

    def test_cheap_queries_do_not_immediately_load(self):
        policy, _, _ = make_vcover(randomized_loading=False)
        outcome = policy.on_query(make_query(1, object_ids=[3], cost=1.0, timestamp=1.0))
        assert outcome.loaded_objects == ()
        assert not policy.is_resident(3)

    def test_eviction_makes_room_for_better_object(self):
        policy, _, _ = make_vcover(capacity=25.0, randomized_loading=False)
        # Load object 2 (size 20) by paying its cost.
        policy.on_query(make_query(1, object_ids=[2], cost=25.0, timestamp=1.0))
        assert policy.is_resident(2)
        # Object 3 (size 30) can never fit in a 25 MB cache.
        policy.on_query(make_query(2, object_ids=[3], cost=100.0, timestamp=2.0))
        assert not policy.is_resident(3)
        # Object 1 (size 10) becomes worth caching; object 2 may be evicted to
        # make room only if needed -- here both fit? no: 20 + 10 = 30 > 25.
        outcome = policy.on_query(make_query(3, object_ids=[1], cost=90.0, timestamp=3.0))
        assert outcome.loaded_objects == (1,)
        assert 2 in outcome.evicted_objects
        assert policy.is_resident(1) and not policy.is_resident(2)


class TestInCachePath:
    def test_fresh_cache_answers_for_free(self):
        policy, _, link = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))  # loads 1
        before = link.total_cost
        outcome = policy.on_query(make_query(2, object_ids=[1], cost=9.0, timestamp=2.0))
        assert outcome.answered_at_cache
        assert link.total_cost == pytest.approx(before)

    def test_cheap_outstanding_updates_are_shipped(self):
        policy, repository, link = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        feed_update(policy, repository, make_update(1, object_id=1, cost=0.5, timestamp=2.0))
        outcome = policy.on_query(make_query(2, object_ids=[1], cost=9.0, timestamp=3.0))
        assert outcome.answered_at_cache
        assert outcome.update_shipping_cost == pytest.approx(0.5)
        assert outcome.shipped_updates == (1,)
        assert not policy.store.get(1).stale

    def test_expensive_outstanding_updates_cause_query_shipping(self):
        policy, repository, _ = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        feed_update(policy, repository, make_update(1, object_id=1, cost=40.0, timestamp=2.0))
        outcome = policy.on_query(make_query(2, object_ids=[1], cost=2.0, timestamp=3.0))
        assert not outcome.answered_at_cache
        assert outcome.query_shipping_cost == pytest.approx(2.0)
        assert outcome.update_shipping_cost == pytest.approx(0.0)
        # The update stays outstanding; the cached copy remains stale.
        assert policy.store.get(1).stale

    def test_accumulated_queries_eventually_ship_expensive_update(self):
        policy, repository, _ = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        feed_update(policy, repository, make_update(1, object_id=1, cost=10.0, timestamp=2.0))
        shipped_at = None
        for step in range(3, 10):
            outcome = policy.on_query(make_query(step, object_ids=[1], cost=4.0, timestamp=float(step)))
            if outcome.shipped_updates:
                shipped_at = step
                break
        assert shipped_at is not None
        assert not policy.store.get(1).stale

    def test_tolerant_query_ignores_recent_updates(self):
        policy, repository, link = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        feed_update(policy, repository, make_update(1, object_id=1, cost=5.0, timestamp=99.0))
        before = link.total_cost
        outcome = policy.on_query(
            make_query(2, object_ids=[1], cost=9.0, timestamp=100.0, tolerance=10.0)
        )
        assert outcome.answered_at_cache
        assert link.total_cost == pytest.approx(before)
        # The object is still stale: the update was skipped, not shipped.
        assert policy.store.get(1).stale

    def test_currency_invariant_never_violated(self):
        """Every cache answer reflects all updates outside the tolerance window."""
        policy, repository, _ = make_vcover()
        policy.on_query(make_query(1, object_ids=[1, 2], cost=80.0, timestamp=1.0))
        for step in range(2, 30):
            update = make_update(step, object_id=1 + step % 2, cost=1.0, timestamp=float(step))
            feed_update(policy, repository, update)
            query = make_query(100 + step, object_ids=[1, 2], cost=3.0, timestamp=float(step) + 0.5)
            outcome = policy.on_query(query)
            if outcome.answered_at_cache:
                for object_id in query.object_ids:
                    assert policy.interacting_updates(query, object_id) == []


class TestAccountingIdentity:
    def test_link_total_equals_sum_of_outcome_costs(self):
        policy, repository, link = make_vcover()
        total_from_outcomes = 0.0
        events = [
            make_query(1, object_ids=[1, 2], cost=45.0, timestamp=1.0),
            make_update(1, object_id=1, cost=2.0, timestamp=2.0),
            make_query(2, object_ids=[1, 2], cost=6.0, timestamp=3.0),
            make_update(2, object_id=2, cost=3.0, timestamp=4.0),
            make_query(3, object_ids=[1], cost=4.0, timestamp=5.0),
            make_query(4, object_ids=[3, 4], cost=70.0, timestamp=6.0),
            make_query(5, object_ids=[1, 2, 3], cost=8.0, timestamp=7.0),
        ]
        for event in events:
            if hasattr(event, "query_id"):
                total_from_outcomes += policy.on_query(event).total_cost
            else:
                feed_update(policy, repository, event)
        assert link.total_cost == pytest.approx(total_from_outcomes)

    def test_stats_aggregate_manager_counters(self):
        policy, _, _ = make_vcover()
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        stats = policy.stats()
        assert "update_manager_decisions" in stats
        assert "load_manager_invocations" in stats

    def test_dinic_solver_behaves_identically(self, monkeypatch):
        """Dinic, patched in for the production solver, takes every decision alike.

        The two leave different flows but the same minimal min-cut source
        side, so a whole flash-crowd run (~90 covers, shipping queries and
        updates alike) ships the same bytes query by query.
        """
        config = ExperimentConfig(seed=7).scaled(
            workload_model="flash_crowd", query_count=600, update_count=600
        )
        catalog, stream = build_scenario_stream(config)

        def replay():
            repository = Repository(catalog)
            link = NetworkLink()
            policy = VCoverPolicy(
                repository, catalog.total_size * config.cache_fraction, link
            )
            outcomes = []
            kernel = ReplayKernel(
                repository,
                [policy],
                [link],
                on_decision=lambda payload, outcome: outcomes.append(outcome),
            )
            kernel.run(stream)
            return repr(link.total_cost), link.total_by_mechanism(), outcomes

        production = replay()
        solves = []

        def dinic(*args, **kwargs):
            solves.append(1)
            return dinic_max_flow(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "solve_max_flow", dinic)
        assert replay() == production
        assert solves, "the run never reached the patched solver"
