"""Tests for the NoCache, Replica and SOptimal yardstick policies."""

from __future__ import annotations

import pytest

from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.workload.trace import QueryEvent, Trace, TraceStream, UpdateEvent
from tests.conftest import make_query, make_update


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0})


def build_trace():
    return Trace(
        [
            QueryEvent(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0)),
            UpdateEvent(make_update(1, object_id=1, cost=2.0, timestamp=2.0)),
            QueryEvent(make_query(2, object_ids=[1], cost=40.0, timestamp=3.0)),
            UpdateEvent(make_update(2, object_id=4, cost=30.0, timestamp=4.0)),
            QueryEvent(make_query(3, object_ids=[2, 3], cost=5.0, timestamp=5.0)),
        ]
    )


class TestNoCache:
    def test_every_query_is_shipped_at_its_cost(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 1000.0, link)
        total = 0.0
        for event in build_trace():
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                outcome = policy.on_query(event.query)
                assert not outcome.answered_at_cache
                total += event.query.cost
        assert link.total_cost == pytest.approx(total)
        assert link.total_by_mechanism()["update_shipping"] == pytest.approx(0.0)
        assert link.total_by_mechanism()["object_loading"] == pytest.approx(0.0)

    def test_never_caches_anything(self, catalog):
        policy = NoCachePolicy(Repository(catalog), 1000.0, NetworkLink())
        assert policy.store.capacity == 0.0


class TestReplica:
    def test_initial_population_is_free(self, catalog):
        link = NetworkLink()
        ReplicaPolicy(Repository(catalog), 0.0, link)
        assert link.total_cost == pytest.approx(0.0)

    def test_every_update_is_shipped_and_queries_are_free(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = ReplicaPolicy(repository, 0.0, link)
        update_total = 0.0
        for event in build_trace():
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
                update_total += event.update.cost
            else:
                outcome = policy.on_query(event.query)
                assert outcome.answered_at_cache
        assert link.total_cost == pytest.approx(update_total)
        assert link.total_by_mechanism()["query_shipping"] == pytest.approx(0.0)

    def test_replica_is_always_fresh(self, catalog):
        repository = Repository(catalog)
        policy = ReplicaPolicy(repository, 0.0, NetworkLink())
        update = make_update(1, object_id=2, cost=3.0, timestamp=1.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert not policy.store.get(2).stale


class TestSOptimal:
    def test_prepare_chooses_high_benefit_objects(self, catalog):
        repository = Repository(catalog)
        policy = SOptimalPolicy(repository, capacity=35.0, link=NetworkLink())
        policy.prepare(build_trace())
        decision = policy.decision
        assert decision is not None
        # Object 1: 90 of query cost vs 2 update + 10 load -> clearly cached.
        assert decision.caches(1)
        # Object 4: no queries, 30 of updates -> never cached.
        assert not decision.caches(4)

    def test_static_set_respects_capacity(self, catalog):
        repository = Repository(catalog)
        policy = SOptimalPolicy(repository, capacity=15.0, link=NetworkLink())
        policy.prepare(build_trace())
        total_size = sum(catalog.size_of(oid) for oid in policy.decision.cached_objects)
        assert total_size <= 15.0 + 1e-9

    def test_initial_loads_are_charged(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = SOptimalPolicy(repository, capacity=35.0, link=link)
        policy.prepare(build_trace())
        assert link.total_by_mechanism()["object_loading"] > 0.0

    def test_run_answers_covered_queries_and_ships_rest(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = SOptimalPolicy(repository, capacity=35.0, link=link)
        trace = build_trace()
        policy.prepare(trace)
        answered = []
        for event in trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                answered.append(policy.on_query(event.query).answered_at_cache)
        # Queries 1 and 2 touch only object 1 (cached); query 3 touches 2, 3
        # which exceed the remaining capacity and are shipped.
        assert answered == [True, True, False]

    def test_updates_for_cached_objects_shipped(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = SOptimalPolicy(repository, capacity=35.0, link=link)
        trace = build_trace()
        policy.prepare(trace)
        for event in trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                policy.on_query(event.query)
        # Update 1 hits cached object 1 (shipped); update 2 hits uncached
        # object 4 (not shipped).
        assert link.total_by_mechanism()["update_shipping"] == pytest.approx(2.0)

    def test_prepare_reads_the_trace_once(self, catalog):
        class CountingStream(TraceStream):
            def __init__(self, trace):
                self._trace = trace
                self.passes = 0

            def iter_events(self):
                return self._trace.iter_events()

            def __len__(self):
                return len(self._trace)

            def iter_tagged(self):
                self.passes += 1
                return super().iter_tagged()

        stream = CountingStream(build_trace())
        streamed = SOptimalPolicy(Repository(catalog), capacity=35.0, link=NetworkLink())
        streamed.prepare(stream)
        assert stream.passes == 1
        materialised = SOptimalPolicy(Repository(catalog), capacity=35.0, link=NetworkLink())
        materialised.prepare(build_trace())
        assert streamed.decision == materialised.decision

    def test_without_prepare_everything_is_shipped(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = SOptimalPolicy(repository, capacity=35.0, link=link)
        outcome = policy.on_query(make_query(1, object_ids=[1], cost=5.0, timestamp=1.0))
        assert not outcome.answered_at_cache
