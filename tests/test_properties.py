"""Cross-module property-based tests (hypothesis).

These complement the per-module property tests with invariants that span
multiple components: the online UpdateManager against the offline optimum,
policy accounting identities under random event streams, and trace
serialisation round-trips for generated workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.benefit import BenefitConfig, BenefitPolicy
from repro.core.offline import OfflineDecoupler
from repro.core.update_manager import UpdateManager
from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update
from repro.workload.trace import Trace, UpdateEvent
from tests.strategies import build_trace, event_stream

CATALOG = ObjectCatalog.from_sizes({1: 20.0, 2: 30.0, 3: 40.0, 4: 50.0})


def replay(policy_factory, trace):
    """Replay a trace against a fresh repository/policy; return (policy, link)."""
    repository = Repository(CATALOG)
    link = NetworkLink()
    policy = policy_factory(repository, link)
    outcomes = []
    for event in trace:
        if isinstance(event, UpdateEvent):
            repository.ingest_update(event.update)
            policy.on_update(event.update)
        else:
            outcomes.append(policy.on_query(event.query))
    return policy, link, outcomes


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream())
def test_property_vcover_accounting_identity(raw):
    """Link totals always equal the sum of per-query outcome costs."""
    trace = build_trace(raw)
    policy, link, outcomes = replay(
        lambda repo, link: VCoverPolicy(repo, 60.0, link, VCoverConfig(seed=1)), trace
    )
    assert link.total_cost == pytest.approx(sum(o.total_cost for o in outcomes))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream())
def test_property_vcover_never_violates_currency(raw):
    """Cache answers always reflect every update outside the tolerance window."""
    trace = build_trace(raw)
    repository = Repository(CATALOG)
    link = NetworkLink()
    policy = VCoverPolicy(repository, 70.0, link, VCoverConfig(seed=2))
    for event in trace:
        if isinstance(event, UpdateEvent):
            repository.ingest_update(event.update)
            policy.on_update(event.update)
        else:
            outcome = policy.on_query(event.query)
            if outcome.answered_at_cache:
                for object_id in event.query.object_ids:
                    assert policy.interacting_updates(event.query, object_id) == []


#: Small objects, so Benefit's short windows find loads worth making.
EAGER_CATALOG = ObjectCatalog.from_sizes({1: 2.0, 2: 3.0, 3: 4.0, 4: 5.0})
EAGER_POLICIES = {
    "nocache": lambda repo, link: NoCachePolicy(repo, 0.0, link),
    "replica": lambda repo, link: ReplicaPolicy(repo, 0.0, link),
    "soptimal": lambda repo, link: SOptimalPolicy(repo, 7.0, link),
    "benefit": lambda repo, link: BenefitPolicy(
        repo, 14.0, link, BenefitConfig(window_size=2, alpha=0.5)
    ),
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream())
def test_property_eager_policies_keep_resident_copies_current(raw):
    """An eager policy ships on arrival: after every event each resident copy
    is fresh at the server version and nothing interacts, and every cache
    answer had all of its objects resident."""
    trace = build_trace(raw)
    for name, factory in EAGER_POLICIES.items():
        repository = Repository(EAGER_CATALOG)
        policy = factory(repository, NetworkLink())
        if name == "soptimal":
            policy.prepare(trace)
        for event in trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                query = event.query
                resident = policy.store.contains_all(query.object_ids)
                assert not policy.on_query(query).answered_at_cache or resident, name
                for object_id in query.object_ids:
                    assert policy.interacting_updates(query, object_id) == [], name
            for record in policy.store.records():
                assert not record.stale, name
                assert record.version == repository.object_version(record.object_id), name


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream())
def test_property_vcover_capacity_never_exceeded(raw):
    """The cache store never holds more bytes than its capacity."""
    trace = build_trace(raw)
    policy, _, _ = replay(
        lambda repo, link: VCoverPolicy(repo, 55.0, link, VCoverConfig(seed=3)), trace
    )
    assert policy.store.used <= policy.store.capacity + 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream())
def test_property_yardstick_identities(raw):
    """NoCache pays exactly the query bytes; Replica exactly the update bytes."""
    trace = build_trace(raw)
    _, nocache_link, _ = replay(lambda repo, link: NoCachePolicy(repo, 0.0, link), trace)
    _, replica_link, _ = replay(lambda repo, link: ReplicaPolicy(repo, 0.0, link), trace)
    assert nocache_link.total_cost == pytest.approx(trace.total_query_cost())
    assert replica_link.total_cost == pytest.approx(trace.total_update_cost())


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream(max_objects=3, max_events=25))
def test_property_update_manager_ships_enough_for_currency(raw):
    """Whenever the UpdateManager keeps a query at the cache, the updates it
    ships cover every interaction of that query."""
    manager = UpdateManager()
    outstanding = {}
    for index, (kind, object_ids, cost, tolerance) in enumerate(raw):
        timestamp = float(index + 1)
        if kind == "update":
            update = Update(
                update_id=index, object_id=object_ids[0], cost=cost, timestamp=timestamp
            )
            outstanding.setdefault(update.object_id, []).append(update)
        else:
            query = Query(
                query_id=index,
                object_ids=frozenset(object_ids),
                cost=cost,
                timestamp=timestamp,
                tolerance=tolerance,
            )
            interacting = {
                oid: [u for u in outstanding.get(oid, []) if query.requires_update(u.timestamp)]
                for oid in query.object_ids
            }
            interacting = {oid: ups for oid, ups in interacting.items() if ups}
            result = manager.decide(query, interacting)
            required = {u.update_id for ups in interacting.values() for u in ups}
            if not result.ship_query:
                assert required <= set(result.ship_update_ids)
            for update_id in result.ship_update_ids:
                for ups in outstanding.values():
                    ups[:] = [u for u in ups if u.update_id != update_id]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream(max_objects=3, max_events=20))
def test_property_offline_cost_is_a_lower_bound_for_in_cache_decisions(raw):
    """The offline cover never costs more than any feasible online choice.

    We compare against two trivially feasible strategies on the fully cached
    object set: ship every query, or ship every interacting update.
    """
    queries = []
    updates = []
    for index, (kind, object_ids, cost, tolerance) in enumerate(raw):
        timestamp = float(index + 1)
        if kind == "query":
            queries.append(
                Query(
                    query_id=index, object_ids=frozenset(object_ids), cost=cost,
                    timestamp=timestamp, tolerance=tolerance,
                )
            )
        else:
            updates.append(
                Update(update_id=index, object_id=object_ids[0], cost=cost, timestamp=timestamp)
            )
    decoupler = OfflineDecoupler(cached_objects=[1, 2, 3])
    instance = decoupler.build_instance(queries, updates)
    decision = decoupler.solve(queries, updates)
    ship_all_queries = sum(instance.left_weights.values())
    ship_all_updates = sum(instance.right_weights.values())
    assert decision.total_cost <= ship_all_queries + 1e-6
    assert decision.total_cost <= ship_all_updates + 1e-6


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=event_stream(max_events=30))
def test_property_trace_round_trip(raw, tmp_path_factory):
    """Any generated trace survives a JSONL round-trip unchanged."""
    trace = build_trace(raw)
    path = tmp_path_factory.mktemp("traces") / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = Trace.from_jsonl(path)
    assert len(loaded) == len(trace)
    assert loaded.total_query_cost() == pytest.approx(trace.total_query_cost())
    assert loaded.total_update_cost() == pytest.approx(trace.total_update_cost())
