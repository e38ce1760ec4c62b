"""Tests for the shared policy bookkeeping and outcome types.

The base class (:class:`BaseCachePolicy`) is eager: an update to a resident
copy ships on arrival.  The lazy bookkeeping -- outstanding updates, the
currency test over them, shipping one -- belongs to VCover, the one policy
that decouples an object from its updates, and is exercised on it here.
"""

from __future__ import annotations

import pytest

from repro.core.benefit import BenefitConfig, BenefitPolicy
from repro.core.decoupling import DecouplingDecision, QueryAction, QueryOutcome
from repro.core.policy import BaseCachePolicy
from repro.core.vcover import VCoverPolicy
from repro.core.yardsticks import SOptimalPolicy
from repro.network.link import Mechanism, NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update


class _Concrete(BaseCachePolicy):
    """Minimal concrete policy used to exercise the base class."""

    name = "concrete"

    def on_query(self, query):
        cost = self.ship_query(query)
        return QueryOutcome(
            query_id=query.query_id,
            answered_at_cache=False,
            query_shipping_cost=cost,
        )


@pytest.fixture
def policy(repository, link):
    return _Concrete(repository, capacity=60.0, link=link)


@pytest.fixture
def vcover(repository, link):
    return VCoverPolicy(repository, capacity=60.0, link=link)


class TestQueryOutcome:
    def test_action_spells_the_flag(self):
        cached = QueryOutcome(query_id=1, answered_at_cache=True)
        shipped = QueryOutcome(query_id=2, answered_at_cache=False)
        assert cached.action == QueryAction.ANSWERED_AT_CACHE
        assert shipped.action == QueryAction.SHIPPED_TO_SERVER

    def test_total_cost_sums_components(self):
        outcome = QueryOutcome(
            query_id=1,
            answered_at_cache=True,
            query_shipping_cost=1.0,
            update_shipping_cost=2.0,
            load_cost=3.0,
        )
        assert outcome.total_cost == pytest.approx(6.0)
        assert outcome.answered_at_cache

    def test_decoupling_decision_membership(self):
        decision = DecouplingDecision(cached_objects=frozenset({1, 2}), estimated_cost=3.0)
        assert decision.caches(1)
        assert not decision.caches(5)


class TestLoadingAndEviction:
    def test_load_object_charges_current_size(self, policy, repository, link):
        repository.ingest_update(make_update(1, object_id=1, cost=5.0, timestamp=0.0))
        cost = policy.load_object(1, timestamp=1.0)
        assert cost == pytest.approx(15.0)
        assert link.total_by_mechanism()["object_loading"] == pytest.approx(15.0)
        assert policy.is_resident(1)

    def test_load_without_charging(self, policy, link):
        policy.load_object(1, timestamp=0.0, charge=False)
        assert link.total_cost == pytest.approx(0.0)
        assert policy.is_resident(1)

    def test_loaded_object_is_fresh(self, policy, vcover, repository):
        repository.ingest_update(make_update(1, object_id=2, cost=1.0, timestamp=0.0))
        for cache in (policy, vcover):
            cache.load_object(2, timestamp=1.0)
            assert not cache.store.get(2).stale
            assert cache.store.get(2).version == repository.object_version(2)
        assert vcover.outstanding_updates(2) == []

    def test_evict_frees_space(self, policy):
        policy.load_object(1, timestamp=0.0)
        assert policy.evict_object(1) == pytest.approx(10.0)
        assert not policy.is_resident(1)

    def test_evict_frees_space_and_forgets_outstanding(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        vcover.on_update(make_update(1, object_id=1, cost=2.0, timestamp=1.0))
        assert vcover.outstanding_updates(1)
        freed = vcover.evict_object(1)
        assert freed == pytest.approx(10.0)
        assert vcover.outstanding_updates(1) == []
        assert vcover.outstanding_update(1) is None
        assert not vcover.is_resident(1)


class TestEagerFreshness:
    def test_resident_update_is_charged_once_and_left_fresh(self, policy, repository, link):
        policy.load_object(1, timestamp=0.0)
        policy.record_cache_answer(make_query(7, object_ids=[1], cost=1.0, timestamp=0.5))
        update = make_update(4, object_id=1, cost=2.5, timestamp=1.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert link.count_by_mechanism()[Mechanism.UPDATE_SHIPPING] == 1
        assert link.total_by_mechanism()[Mechanism.UPDATE_SHIPPING] == 2.5
        record = policy.store.get(1)
        assert not record.stale
        assert record.version == repository.object_version(1)
        assert (record.hits, record.last_hit_at) == (1, 0.5)
        assert policy.observer.updates_seen == 1

    def test_non_resident_update_is_only_observed(self, policy, repository, link):
        update = make_update(1, object_id=2, cost=2.0, timestamp=1.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert link.total_cost == 0.0
        assert sum(link.count_by_mechanism().values()) == 0
        assert not policy.is_resident(2)
        assert policy.observer.updates_seen == 1

    def test_nothing_is_ever_interacting(self, policy, repository):
        policy.load_object(1, timestamp=0.0)
        update = make_update(1, object_id=1, cost=1.0, timestamp=2.0)
        repository.ingest_update(update)
        policy.on_update(update)
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        assert policy.interacting_updates(query, 1) == []
        assert policy.cache_satisfies(query)

    def test_cache_satisfies_is_residency(self, policy):
        query = make_query(1, object_ids=[1, 2], cost=1.0, timestamp=5.0)
        assert not policy.cache_satisfies(query)
        policy.load_object(1, timestamp=0.0)
        assert not policy.cache_satisfies(query)
        policy.load_object(2, timestamp=0.0)
        assert policy.cache_satisfies(query)


#: Sizes whose sum depends on the order it is taken in (16, 9, 3, 1 sums to
#: 1.7, sorted to 1.6999999999999997); object 0 is empty.
SHARE_CATALOG = ObjectCatalog.from_sizes({0: 0.0, 1: 0.1, 3: 0.7, 8: 0.2, 9: 0.3, 16: 0.6})
#: Footprints whose iteration order differs from sorted order.
FOOTPRINTS = (frozenset({8, 0}), frozenset({16, 3, 9, 1}), frozenset({0}))


def _head_shares(catalog, query):
    """The share rule as Benefit and SOptimal each spelled it out before."""
    sizes = {oid: max(catalog.size_of(oid), 1e-9) for oid in query.object_ids}
    total = sum(sizes.values())
    return [(oid, query.cost * size / total) for oid, size in sizes.items()]


def _share_trace():
    events = []
    for index in range(12):
        timestamp = float(index + 1)
        if index % 3 == 2:
            update = make_update(index, object_id=(1, 8, 16, 0)[index % 4], cost=0.35,
                                 timestamp=timestamp)
            events.append(UpdateEvent(update))
        else:
            footprint = FOOTPRINTS[index % len(FOOTPRINTS)]
            query = make_query(index, object_ids=footprint, cost=1.3 + 0.7 * index,
                               timestamp=timestamp)
            events.append(QueryEvent(query))
    return Trace(events)


class TestShareRule:
    @pytest.mark.parametrize("cost", [0.1, 7.3, 13.0])
    @pytest.mark.parametrize("footprint", FOOTPRINTS, ids=lambda f: "-".join(map(str, f)))
    def test_credit_matches_the_head_expression(self, footprint, cost):
        policy = _Concrete(Repository(SHARE_CATALOG), capacity=1.0, link=NetworkLink())
        query = make_query(1, object_ids=footprint, cost=cost, timestamp=1.0)
        if len(footprint) > 1:
            assert list(query.object_ids) != sorted(query.object_ids)
        credit = {}
        policy.credit_query_shares(query, credit)
        assert list(credit.items()) == _head_shares(SHARE_CATALOG, query)
        # A second credit adds to what is there, ``table.get(oid, 0.0) + x``.
        policy.credit_query_shares(query, credit)
        assert list(credit.items()) == [
            (oid, share + share) for oid, share in _head_shares(SHARE_CATALOG, query)
        ]

    def test_credit_skips_objects(self):
        policy = _Concrete(Repository(SHARE_CATALOG), capacity=1.0, link=NetworkLink())
        query = make_query(1, object_ids=FOOTPRINTS[1], cost=5.0, timestamp=1.0)
        credit = {3: 1.25}
        policy.credit_query_shares(query, credit, skip={3, 9})
        shares = dict(_head_shares(SHARE_CATALOG, query))
        assert credit == {3: 1.25, 16: shares[16], 1: shares[1]}

    def test_soptimal_prepare_credits_by_the_share_rule(self):
        trace = _share_trace()
        policy = SOptimalPolicy(Repository(SHARE_CATALOG), 2.0, NetworkLink())
        policy.prepare(trace)
        # SOptimal's whole-trace benefit as HEAD computed it, then its greedy fill.
        query_share = {oid: 0.0 for oid in SHARE_CATALOG.object_ids}
        update_cost = {oid: 0.0 for oid in SHARE_CATALOG.object_ids}
        for query in trace.queries():
            for oid, share in _head_shares(SHARE_CATALOG, query):
                query_share[oid] += share
        for update in trace.updates():
            update_cost[update.object_id] += update.cost
        ranked = sorted(
            (
                (oid, query_share[oid] - update_cost[oid] - SHARE_CATALOG.size_of(oid))
                for oid in SHARE_CATALOG.object_ids
            ),
            key=lambda item: item[1],
            reverse=True,
        )
        chosen, used, estimated = set(), 0.0, 0.0
        for oid, benefit in ranked:
            if benefit > 0 and used + SHARE_CATALOG.size_of(oid) <= 2.0 + 1e-9:
                chosen.add(oid)
                used += SHARE_CATALOG.size_of(oid)
                estimated += benefit
        assert policy.decision.cached_objects == frozenset(chosen)
        assert policy.decision.estimated_cost == estimated

    def test_benefit_window_credit_matches_the_head_expression(self):
        trace = _share_trace()
        repository = Repository(SHARE_CATALOG)
        policy = BenefitPolicy(
            repository, 1.0, NetworkLink(), BenefitConfig(window_size=len(trace), alpha=0.3)
        )
        for event in trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                policy.on_query(event.query)
        assert policy.window_index == 1
        # One window, an empty cache throughout: every query credits every object.
        query_share, update_cost = {}, {}
        for query in trace.queries():
            for oid, share in _head_shares(SHARE_CATALOG, query):
                query_share[oid] = query_share.get(oid, 0.0) + share
        for update in trace.updates():
            update_cost[update.object_id] = update_cost.get(update.object_id, 0.0) + update.cost
        for oid in SHARE_CATALOG.object_ids:
            benefit = query_share.get(oid, 0.0) - update_cost.get(oid, 0.0)
            benefit = benefit - repository.object_size(oid)
            assert policy.forecast_of(oid) == 0.7 * 0.0 + 0.3 * benefit


class TestUpdateBookkeeping:
    def test_update_on_resident_object_marks_stale(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        vcover.on_update(make_update(1, object_id=1, cost=2.0, timestamp=1.0))
        assert vcover.store.get(1).stale
        assert len(vcover.outstanding_updates(1)) == 1

    def test_update_on_non_resident_object_not_tracked(self, vcover):
        vcover.on_update(make_update(1, object_id=1, cost=2.0, timestamp=1.0))
        assert vcover.outstanding_updates(1) == []

    def test_ship_update_charges_and_freshens(self, vcover, repository, link):
        vcover.load_object(1, timestamp=0.0)
        update = make_update(1, object_id=1, cost=2.0, timestamp=1.0)
        repository.ingest_update(update)
        vcover.on_update(update)
        cost = vcover.ship_update(update)
        assert cost == pytest.approx(2.0)
        assert link.total_by_mechanism()["update_shipping"] == pytest.approx(2.0)
        assert not vcover.store.get(1).stale
        assert vcover.outstanding_updates(1) == []

    def test_ship_update_not_outstanding_raises(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        with pytest.raises(ValueError):
            vcover.ship_update(make_update(9, object_id=1, cost=1.0, timestamp=0.0))

    def test_partial_shipping_keeps_object_stale(self, vcover, repository):
        vcover.load_object(1, timestamp=0.0)
        first = make_update(1, object_id=1, cost=2.0, timestamp=1.0)
        second = make_update(2, object_id=1, cost=2.0, timestamp=2.0)
        for update in (first, second):
            repository.ingest_update(update)
            vcover.on_update(update)
        vcover.ship_update(first)
        assert vcover.store.get(1).stale
        assert len(vcover.outstanding_updates(1)) == 1


class TestCurrencyReasoning:
    def test_cache_satisfies_requires_residency(self, vcover):
        query = make_query(1, object_ids=[1, 2], cost=1.0, timestamp=5.0)
        assert not vcover.cache_satisfies(query)
        vcover.load_object(1, timestamp=0.0)
        vcover.load_object(2, timestamp=0.0)
        assert vcover.cache_satisfies(query)

    def test_cache_satisfies_requires_currency(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        vcover.on_update(make_update(1, object_id=1, cost=1.0, timestamp=2.0))
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        assert not vcover.cache_satisfies(query)

    def test_tolerance_allows_recent_updates_to_be_ignored(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        vcover.on_update(make_update(1, object_id=1, cost=1.0, timestamp=98.0))
        tolerant = make_query(1, object_ids=[1], cost=1.0, timestamp=100.0, tolerance=5.0)
        strict = make_query(2, object_ids=[1], cost=1.0, timestamp=100.0, tolerance=0.0)
        assert vcover.cache_satisfies(tolerant)
        assert not vcover.cache_satisfies(strict)

    def test_interacting_updates_filtered_by_tolerance(self, vcover):
        vcover.load_object(1, timestamp=0.0)
        old = make_update(1, object_id=1, cost=1.0, timestamp=10.0)
        recent = make_update(2, object_id=1, cost=1.0, timestamp=99.0)
        for update in (old, recent):
            vcover.on_update(update)
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=100.0, tolerance=5.0)
        interacting = vcover.interacting_updates(query, 1)
        assert [u.update_id for u in interacting] == [1]


class TestAccounting:
    def test_ship_query_charges_link(self, policy, link):
        query = make_query(1, object_ids=[1], cost=7.0, timestamp=1.0)
        assert policy.on_query(query).query_shipping_cost == pytest.approx(7.0)
        assert link.total_cost == pytest.approx(7.0)
        assert policy.total_traffic == pytest.approx(7.0)

    def test_stats_include_store_counters(self, policy):
        policy.load_object(1, timestamp=0.0)
        stats = policy.stats()
        assert stats["store_loads"] == 1
        assert "total_traffic" in stats
