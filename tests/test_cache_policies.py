"""Tests for the eviction policies: GDS, LRU, LFU and Landlord."""

from __future__ import annotations

import pytest

from repro.cache.base import EvictionPolicy, PolicyIntrospectionError, registry
from repro.cache.gds import GreedyDualSize
from repro.cache.landlord import Landlord
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy


class TestGreedyDualSize:
    def test_victim_is_lowest_cost_density(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)   # density 1.0
        gds.on_load(2, size=10.0, cost=50.0, timestamp=0.0)   # density 5.0
        assert gds.victim({1, 2}) == 1

    def test_hit_refreshes_credit_with_inflation(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)
        gds.on_load(2, size=10.0, cost=10.0, timestamp=0.0)
        # Evict 1; inflation rises to its credit.
        victim = gds.victim({1, 2})
        gds.on_evict(victim)
        survivor = 2 if victim == 1 else 1
        gds.on_load(3, size=10.0, cost=10.0, timestamp=1.0)
        # Object 3 was loaded after inflation rose, so the old survivor
        # (not refreshed since) is the next victim.
        assert gds.victim({survivor, 3}) == survivor
        gds.on_hit(survivor, timestamp=2.0)
        assert gds.victim({survivor, 3}) == 3 or gds.priority(survivor) >= gds.priority(3)

    def test_stale_heap_fallback_tie_breaks_on_object_id(self):
        # Regression (caught by lint rule DET003): the linear-scan fallback
        # used to iterate the resident *set*, so equal-credit ties were
        # broken by set order -- nondeterministic across processes.  The
        # scan now visits ids in sorted order, making the lowest id win.
        gds = GreedyDualSize()
        for object_id in (5, 3, 9, 1):
            gds.on_load(object_id, size=10.0, cost=10.0, timestamp=0.0)
        gds._heap.clear()  # force the heap-exhausted linear-scan path
        assert gds.victim({9, 5, 3, 1}) == 1

    def test_eviction_raises_inflation_monotonically(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)
        gds.on_evict(1)
        first = gds.inflation
        gds.on_load(2, size=5.0, cost=50.0, timestamp=0.0)
        gds.on_evict(2)
        assert gds.inflation >= first

    def test_boost_cost_increases_priority(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)
        before = gds.priority(1)
        gds.boost_cost(1, 40.0)
        assert gds.priority(1) > before

    def test_boost_cost_unknown_object_raises(self):
        gds = GreedyDualSize()
        with pytest.raises(KeyError):
            gds.boost_cost(1, 5.0)

    def test_hit_on_unknown_object_raises(self):
        gds = GreedyDualSize()
        with pytest.raises(KeyError):
            gds.on_hit(1, timestamp=0.0)

    def test_zero_size_rejected(self):
        gds = GreedyDualSize()
        with pytest.raises(ValueError):
            gds.on_load(1, size=0.0, cost=1.0, timestamp=0.0)

    def test_victim_of_empty_set_is_none(self):
        gds = GreedyDualSize()
        assert gds.victim(set()) is None

    def test_victim_ignores_non_resident_candidates(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)
        gds.on_load(2, size=10.0, cost=99.0, timestamp=0.0)
        # Only object 2 is offered as resident.
        assert gds.victim({2}) == 2

    def test_reset_clears_state(self):
        gds = GreedyDualSize()
        gds.on_load(1, size=10.0, cost=10.0, timestamp=0.0)
        gds.reset()
        assert gds.victim({1}) is None
        with pytest.raises(PolicyIntrospectionError):
            gds.priority(1)
        assert gds.inflation == 0.0


class TestLRU:
    def test_victim_is_least_recently_used(self):
        lru = LRUPolicy()
        lru.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lru.on_load(2, size=1.0, cost=1.0, timestamp=2.0)
        lru.on_hit(1, timestamp=3.0)
        assert lru.victim({1, 2}) == 2

    def test_hit_unknown_raises(self):
        lru = LRUPolicy()
        with pytest.raises(KeyError):
            lru.on_hit(7, timestamp=0.0)

    def test_evict_then_victim_skips_object(self):
        lru = LRUPolicy()
        lru.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lru.on_load(2, size=1.0, cost=1.0, timestamp=2.0)
        lru.on_evict(1)
        assert lru.victim({2}) == 2

    def test_reset(self):
        lru = LRUPolicy()
        lru.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lru.reset()
        assert lru.victim({1}) is None


class TestLFU:
    def test_victim_is_least_frequently_used(self):
        lfu = LFUPolicy()
        lfu.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lfu.on_load(2, size=1.0, cost=1.0, timestamp=2.0)
        lfu.on_hit(1, timestamp=3.0)
        lfu.on_hit(1, timestamp=4.0)
        lfu.on_hit(2, timestamp=5.0)
        assert lfu.victim({1, 2}) == 2

    def test_frequency_ties_break_by_recency(self):
        lfu = LFUPolicy()
        lfu.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lfu.on_load(2, size=1.0, cost=1.0, timestamp=2.0)
        lfu.on_hit(1, timestamp=3.0)
        lfu.on_hit(2, timestamp=4.0)
        assert lfu.victim({1, 2}) == 1

    def test_priority_reports_count(self):
        lfu = LFUPolicy()
        lfu.on_load(1, size=1.0, cost=1.0, timestamp=1.0)
        lfu.on_hit(1, timestamp=2.0)
        assert lfu.priority(1) == pytest.approx(1.0)


class TestLandlord:
    def test_victim_is_lowest_credit_per_size(self):
        landlord = Landlord()
        landlord.on_load(1, size=10.0, cost=5.0, timestamp=0.0)
        landlord.on_load(2, size=10.0, cost=50.0, timestamp=0.0)
        assert landlord.victim({1, 2}) == 1

    def test_rent_charging_is_monotone(self):
        landlord = Landlord()
        landlord.on_load(1, size=10.0, cost=5.0, timestamp=0.0)
        landlord.on_load(2, size=10.0, cost=50.0, timestamp=0.0)
        victim = landlord.victim({1, 2})
        landlord.on_evict(victim)
        # After charging rent, the survivor's effective credit dropped but
        # remains non-negative.
        survivor = 2 if victim == 1 else 1
        assert landlord.priority(survivor) >= -1e-9

    def test_hit_restores_credit(self):
        landlord = Landlord()
        landlord.on_load(1, size=10.0, cost=5.0, timestamp=0.0)
        landlord.on_load(2, size=10.0, cost=50.0, timestamp=0.0)
        landlord.victim({1, 2})  # charges rent
        before = landlord.priority(2)
        landlord.on_hit(2, timestamp=1.0)
        assert landlord.priority(2) >= before

    def test_invalid_refresh_fraction(self):
        with pytest.raises(ValueError):
            Landlord(refresh_fraction=1.5)

    def test_boost_cost(self):
        landlord = Landlord()
        landlord.on_load(1, size=10.0, cost=5.0, timestamp=0.0)
        before = landlord.priority(1)
        landlord.boost_cost(1, 20.0)
        assert landlord.priority(1) > before


class TestRegistry:
    @pytest.mark.parametrize("name", ["gds", "lru", "lfu", "landlord"])
    def test_registered_policies_instantiate(self, name):
        policy = registry.create(name)
        policy.on_load(1, size=2.0, cost=2.0, timestamp=0.0)
        assert policy.victim({1}) == 1

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            registry.create("not-a-policy")

    def test_names_listed(self):
        assert {"gds", "lru", "lfu", "landlord"} <= set(registry.names())


class TestPriorityContract:
    """``priority`` is implemented by all four policies with one error type."""

    @pytest.mark.parametrize("name", ["gds", "lru", "lfu", "landlord"])
    def test_tracked_object_has_float_priority(self, name):
        policy = registry.create(name)
        policy.on_load(1, size=2.0, cost=4.0, timestamp=0.5)
        assert isinstance(policy.priority(1), float)

    @pytest.mark.parametrize("name", ["gds", "lru", "lfu", "landlord"])
    def test_untracked_object_raises_introspection_error(self, name):
        policy = registry.create(name)
        policy.on_load(1, size=2.0, cost=4.0, timestamp=0.5)
        with pytest.raises(PolicyIntrospectionError):
            policy.priority(99)

    @pytest.mark.parametrize("name", ["gds", "lru", "lfu", "landlord"])
    def test_evicted_object_is_forgotten(self, name):
        policy = registry.create(name)
        policy.on_load(1, size=2.0, cost=4.0, timestamp=0.5)
        policy.on_evict(1)
        with pytest.raises(PolicyIntrospectionError):
            policy.priority(1)

    def test_error_is_a_key_error(self):
        # Existing ``except KeyError`` call sites must keep working.
        assert issubclass(PolicyIntrospectionError, KeyError)

    def test_base_default_raises_introspection_error(self):
        class Opaque(EvictionPolicy):
            def on_load(self, object_id, size, cost, timestamp):
                pass

            def on_hit(self, object_id, timestamp):
                pass

            def on_evict(self, object_id):
                pass

            def victim(self, resident):
                return None

        with pytest.raises(PolicyIntrospectionError):
            Opaque().priority(1)
