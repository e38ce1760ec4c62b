"""Tests for the NoCache, Replica and SOptimal yardstick policies."""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import yardsticks
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.workload.trace import QueryEvent, Trace, TraceStream, UpdateEvent
from tests.conftest import (
    EQUAL_FOOTPRINT_SIZES,
    equal_footprints_trace,
    make_query,
    make_update,
)
from tests.strategies import build_trace as raw_trace
from tests.strategies import event_stream


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


# ----------------------------------------------------------------------
# prepare's column fold against the scalar share rule
# ----------------------------------------------------------------------
class PlainStream(TraceStream):
    """A trace seen only as a stream: ``prepare`` compiles it chunk by chunk."""

    def __init__(self, trace):
        self._trace = trace

    def iter_events(self):
        return self._trace.iter_events()

    def __len__(self):
        return len(self._trace)


def scalar_prepare(policy, trace):
    """The per-event dict loop ``prepare`` ran before it folded columns.

    Returns the chosen set, ``repr`` of the estimated cost and the load order.
    """
    catalog = policy.repository.catalog
    query_share, update_cost = {}, {}
    for is_update, payload in trace.iter_tagged():
        if is_update:
            object_id = payload.object_id
            update_cost[object_id] = update_cost.get(object_id, 0.0) + payload.cost
        else:
            policy.credit_query_shares(payload, query_share)
    benefits = {
        oid: query_share.get(oid, 0.0) - update_cost.get(oid, 0.0) - catalog.size_of(oid)
        for oid in catalog.object_ids
    }
    ranked = sorted(
        ((oid, benefit) for oid, benefit in benefits.items() if benefit > 0),
        key=lambda item: item[1],
        reverse=True,
    )
    chosen, used, estimated = set(), 0.0, 0.0
    for object_id, benefit in ranked:
        size = catalog.size_of(object_id)
        if used + size <= policy.store.capacity + 1e-9:
            chosen.add(object_id)
            used += size
            estimated += benefit
    return frozenset(chosen), repr(estimated), sorted(chosen)


def prepared(catalog, capacity, trace):
    """``prepare`` run on ``trace``: chosen set, ``repr`` of the estimate, load order."""
    policy = SOptimalPolicy(Repository(catalog), capacity=capacity, link=NetworkLink())
    policy.prepare(trace)
    loads = list(policy.store)  # residency in insertion order: prepare evicts nothing
    return policy.decision.cached_objects, repr(policy.decision.estimated_cost), loads


def reference(catalog, capacity, trace):
    """:func:`scalar_prepare` on a fresh policy of the same shape."""
    policy = SOptimalPolicy(Repository(catalog), capacity=capacity, link=NetworkLink())
    return scalar_prepare(policy, trace)


def forms(trace, start):
    """``trace`` three ways: materialised, a view from ``start``, and a stream.

    Each comes with the events it covers, for the scalar reference.
    """
    view = trace.slice_events(start)
    return [("trace", trace, trace), ("view", view, view), ("stream", PlainStream(trace), trace)]


@settings(max_examples=60, deadline=None)
@given(
    raw=event_stream(),
    sizes=st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 40.0, 1e16]), min_size=4, max_size=4),
    fraction=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    start=st.integers(min_value=0, max_value=12),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_property_prepare_matches_the_scalar_share_rule(raw, sizes, fraction, start, chunk):
    """Chosen set, estimate bits and load order equal the per-event dict loop.

    The stream is compiled in ``chunk``-event pieces, so its chunk edges
    fall mid-trace.
    """
    catalog = ObjectCatalog.from_sizes(dict(enumerate(sizes, start=1)))
    capacity = sum(sizes) * fraction
    trace = raw_trace(raw)
    with patch.object(yardsticks, "PREPARE_CHUNK_EVENTS", chunk):
        for name, source, events in forms(trace, start):
            assert prepared(catalog, capacity, source) == reference(catalog, capacity, events), name


class TestPrepareExactness:
    """Hand-built cases of the column fold the property may not reach."""

    @pytest.mark.parametrize("chunk", [1, 2, 8192])
    def test_equal_footprints_in_different_insertion_orders(self, chunk):
        catalog = ObjectCatalog.from_sizes(EQUAL_FOOTPRINT_SIZES)
        trace = equal_footprints_trace()
        expected = reference(catalog, 2.0, trace)
        assert expected[0] == {9, 17}
        with patch.object(yardsticks, "PREPARE_CHUNK_EVENTS", chunk):
            for name, source, _ in forms(trace, 0):
                assert prepared(catalog, 2.0, source) == expected, name

    def test_query_on_an_unknown_object_raises(self, catalog):
        trace = Trace([
            QueryEvent(make_query(1, object_ids=[1], cost=5.0, timestamp=1.0)),
            QueryEvent(make_query(2, object_ids=[2, 99], cost=5.0, timestamp=2.0)),
        ])  # fmt: skip
        with pytest.raises(KeyError):
            reference(catalog, 35.0, trace)
        for name, source, _ in forms(trace, 1):
            with pytest.raises(KeyError):
                prepared(catalog, 35.0, source)

    def test_update_on_an_unknown_object_is_ignored(self, catalog):
        events = list(build_trace().iter_events())
        events.insert(2, UpdateEvent(make_update(9, object_id=99, cost=1e6, timestamp=2.5)))
        trace = Trace(events)
        expected = prepared(catalog, 35.0, build_trace())
        assert reference(catalog, 35.0, trace) == expected
        with patch.object(yardsticks, "PREPARE_CHUNK_EVENTS", 2):
            for name, source, _ in forms(trace, 0):
                assert prepared(catalog, 35.0, source) == expected, name
