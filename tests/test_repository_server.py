"""Tests for the in-memory repository (server) substrate."""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.repository.server import ObjectState, Repository

from tests.conftest import make_query, make_update


class TestIngest:
    def test_ingest_bumps_version_and_size(self, repository):
        update = make_update(1, object_id=2, cost=4.0, timestamp=1.0)
        repository.ingest_update(update)
        assert repository.object_version(2) == 1
        assert repository.object_size(2) == pytest.approx(24.0)

    def test_ingest_unknown_object_raises(self, repository):
        with pytest.raises(KeyError):
            repository.ingest_update(make_update(1, object_id=99, cost=1.0, timestamp=0.0))

    def test_total_size_grows_with_updates(self, repository):
        base = repository.total_size
        repository.ingest_updates(
            [make_update(i, object_id=1, cost=2.0, timestamp=float(i)) for i in range(3)]
        )
        assert repository.total_size == pytest.approx(base + 6.0)

    def test_ingest_updates_matches_one_by_one(self, small_catalog):
        updates = [
            make_update(i, object_id=1 + i % 3, cost=0.5 + i, timestamp=float(i))
            for i in range(9)
        ]
        batched, scalar = Repository(small_catalog), Repository(small_catalog)
        batched.ingest_updates(updates)
        for update in updates:
            scalar.ingest_update(update)
        assert batched.stats() == scalar.stats()
        for object_id in small_catalog.object_ids:
            assert batched.object_version(object_id) == scalar.object_version(object_id)
            assert batched.object_size(object_id) == scalar.object_size(object_id)


class TestQueryAnswering:
    def test_answer_query_returns_cost(self, repository):
        query = make_query(1, object_ids=[1, 2], cost=9.0, timestamp=1.0)
        assert repository.answer_query(query) == pytest.approx(9.0)

    def test_answer_query_unknown_object_raises(self, repository):
        query = make_query(1, object_ids=[99], cost=9.0, timestamp=1.0)
        with pytest.raises(KeyError):
            repository.answer_query(query)


class TestObjectLoading:
    def test_load_object_returns_current_snapshot(self, repository):
        repository.ingest_update(make_update(1, object_id=3, cost=5.0, timestamp=1.0))
        snapshot, cost = repository.load_object(3, timestamp=2.0)
        assert snapshot.version == 1
        assert cost == pytest.approx(35.0)
        assert snapshot.size == pytest.approx(35.0)

    def test_stats_counters(self, repository):
        repository.ingest_update(make_update(1, object_id=1, cost=1.0, timestamp=0.0))
        repository.answer_query(make_query(1, object_ids=[1], cost=1.0, timestamp=1.0))
        stats = repository.stats()
        assert stats["updates_received"] == 1
        assert stats["queries_answered"] == 1
        assert stats["object_count"] == 5


class TestHistoryFreeRepository:
    """The repository keeps versions and totals, never the updates themselves."""

    def test_versions_sizes_and_stats_unaffected(self, repository):
        repository.ingest_update(make_update(1, object_id=2, cost=4.0, timestamp=1.0))
        repository.ingest_update(make_update(2, object_id=2, cost=2.0, timestamp=2.0))
        assert repository.object_version(2) == 2
        assert repository.object_size(2) == pytest.approx(26.0)
        assert repository.stats()["updates_received"] == 2
        snapshot, cost = repository.load_object(2, timestamp=3.0)
        assert snapshot.version == 2
        assert cost == pytest.approx(26.0)

    def test_no_update_objects_are_retained(self, repository):
        updates = [
            make_update(index, object_id=1, cost=0.5, timestamp=float(index))
            for index in range(50)
        ]
        before = [sys.getrefcount(update) for update in updates]
        repository.ingest_updates(updates)
        assert [sys.getrefcount(update) for update in updates] == before

    def test_object_state_holds_counters_only(self):
        assert [field.name for field in dataclasses.fields(ObjectState)] == [
            "object_id", "version", "rows", "grown_by",
        ]

    def test_updates_touch_only_their_object(self, repository, small_catalog):
        repository.ingest_updates(
            [make_update(i, object_id=4, cost=1.5, timestamp=float(i)) for i in range(4)]
        )
        for object_id in small_catalog.object_ids:
            expected_version = 4 if object_id == 4 else 0
            expected_size = small_catalog.size_of(object_id) + (6.0 if object_id == 4 else 0.0)
            assert repository.object_version(object_id) == expected_version
            assert repository.object_size(object_id) == pytest.approx(expected_size)
