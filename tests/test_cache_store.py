"""Tests for the space-constrained cache store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import CacheCapacityError, CacheStore


class TestCapacity:
    @pytest.mark.parametrize("capacity", [-1.0, float("nan")])
    def test_negative_or_nan_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity must be non-negative"):
            CacheStore(capacity)

    def test_insert_tracks_used_and_free(self):
        store = CacheStore(100.0)
        store.insert(1, size=30.0, version=0, timestamp=0.0)
        assert store.used == pytest.approx(30.0)
        assert store.free == pytest.approx(70.0)

    def test_insert_beyond_capacity_raises(self):
        store = CacheStore(50.0)
        store.insert(1, size=40.0, version=0, timestamp=0.0)
        with pytest.raises(CacheCapacityError):
            store.insert(2, size=20.0, version=0, timestamp=0.0)

    def test_duplicate_insert_raises(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=0, timestamp=0.0)
        with pytest.raises(ValueError):
            store.insert(1, size=10.0, version=0, timestamp=0.0)

    def test_fits_and_can_ever_fit(self):
        store = CacheStore(50.0)
        store.insert(1, size=40.0, version=0, timestamp=0.0)
        assert not store.fits(20.0)
        assert store.can_ever_fit(45.0)
        assert not store.can_ever_fit(60.0)

    def test_unbounded_capacity(self):
        store = CacheStore(float("inf"))
        for object_id in range(100):
            store.insert(object_id, size=1000.0, version=0, timestamp=0.0)
        assert len(store) == 100

    def test_evict_frees_capacity(self):
        store = CacheStore(50.0)
        store.insert(1, size=40.0, version=0, timestamp=0.0)
        store.evict(1)
        assert store.free == pytest.approx(50.0)
        assert 1 not in store

    def test_evict_missing_raises(self):
        store = CacheStore(50.0)
        with pytest.raises(KeyError):
            store.evict(1)


class TestFreshness:
    def test_mark_stale_and_fresh(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=3, timestamp=0.0)
        assert store.mark_stale(1)
        assert store.get(1).stale
        store.mark_fresh(1, version=5)
        assert not store.get(1).stale
        assert store.get(1).version == 5

    def test_mark_stale_missing_returns_false(self):
        store = CacheStore(100.0)
        assert store.mark_stale(99) is False

    def test_mark_fresh_missing_raises(self):
        store = CacheStore(100.0)
        with pytest.raises(KeyError):
            store.mark_fresh(99, version=1)

    def test_record_hit_updates_counters(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=0, timestamp=0.0)
        store.record_hit(1, timestamp=4.0)
        store.record_hit(1, timestamp=7.0)
        record = store.get(1)
        assert record.hits == 2
        assert record.last_hit_at == pytest.approx(7.0)

    def test_record_hit_missing_raises(self):
        store = CacheStore(100.0)
        with pytest.raises(KeyError):
            store.record_hit(1, timestamp=0.0)


class TestQueriesOverResidency:
    def test_contains_all_and_missing(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=0, timestamp=0.0)
        store.insert(2, size=10.0, version=0, timestamp=0.0)
        assert store.contains_all({1, 2})
        assert not store.contains_all({1, 3})
        assert store.missing([1, 2, 3, 4]) == {3, 4}

    def test_resident_ids_and_records(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=0, timestamp=0.0)
        store.insert(5, size=10.0, version=0, timestamp=0.0)
        assert store.resident_ids() == {1, 5}
        assert {record.object_id for record in store.records()} == {1, 5}

    def test_stats_and_counters(self):
        store = CacheStore(100.0)
        store.insert(1, size=10.0, version=0, timestamp=0.0)
        store.evict(1)
        store.insert(2, size=20.0, version=0, timestamp=0.0)
        stats = store.stats()
        assert stats["loads"] == 2
        assert stats["evictions"] == 1
        assert stats["resident_objects"] == 1
        assert store.occupancy() == pytest.approx(0.2)


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.floats(min_value=1.0, max_value=30.0)),
        min_size=1,
        max_size=40,
    )
)
def test_property_used_never_exceeds_capacity(operations):
    """Whatever the insert/evict sequence, used capacity stays within bounds."""
    store = CacheStore(60.0)
    for object_id, size in operations:
        if object_id in store:
            store.evict(object_id)
            continue
        if store.fits(size):
            store.insert(object_id, size=size, version=0, timestamp=0.0)
    assert 0.0 <= store.used <= store.capacity + 1e-9
    assert store.used == pytest.approx(sum(r.size for r in store.records()))
