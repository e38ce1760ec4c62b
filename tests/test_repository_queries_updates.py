"""Tests for query and update specifications."""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import re

import pytest

from repro.repository.queries import Query, QueryIdAllocator, QueryTemplate, total_query_cost
from repro.repository.updates import Update, UpdateIdAllocator, UpdateKind


def built_field_by_field(cls, **fields):
    """A record stored the way a generated dataclass ``__init__`` stores one."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


class TestRecordContract:
    """The hand-written ``__init__`` keeps the dataclass contract of both records."""

    QUERY = {
        "query_id": 4, "object_ids": frozenset({1, 2}), "cost": 2.5, "timestamp": 7.0,
        "tolerance": 3.0, "template": QueryTemplate.RANGE, "sql": "SELECT 1",
    }  # fmt: skip
    UPDATE = {
        "update_id": 9, "object_id": 3, "cost": 1.5, "timestamp": 8.0,
        "kind": UpdateKind.MODIFY, "rows": 12,
    }  # fmt: skip

    @pytest.mark.parametrize("cls", [Query, Update])
    def test_init_parameters_are_the_fields_with_their_defaults(self, cls):
        parameters = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in parameters] == [f.name for f in fields]
        assert [p.default for p in parameters] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields
        ]

    @pytest.mark.parametrize(
        "record, message",
        [
            (lambda: Query(1, [], -1.0, 0.0, -1.0, "x"), "accesses no objects"),
            (lambda: Query(1, [1], -1.0, 0.0, -1.0, "x"), "negative cost"),
            (lambda: Query(1, [1], 1.0, 0.0, -1.0, "x"), "negative tolerance"),
            (lambda: Update(1, 1, -1.0, 0.0, "x"), "negative cost"),
        ],
    )
    def test_the_first_failing_check_is_reported(self, record, message):
        with pytest.raises(ValueError, match=message):
            record()

    def test_defaults(self):
        query = Query(1, frozenset({1}), 1.0, 0.0)
        assert (query.tolerance, query.template, query.sql) == (0.0, QueryTemplate.SELECTION, None)
        update = Update(1, 1, 1.0, 0.0)
        assert (update.kind, update.rows) == (UpdateKind.INSERT, 0)

    @pytest.mark.parametrize("ids", [[2, 1, 2], (1, 2), {1, 2}, iter([1, 2]), range(1, 3)])
    def test_non_frozenset_object_ids_are_converted(self, ids):
        query = Query(1, ids, 1.0, 0.0)
        assert type(query.object_ids) is frozenset and query.object_ids == {1, 2}

    def test_a_frozenset_is_kept_as_given(self):
        ids = frozenset({1, 2})
        assert Query(1, ids, 1.0, 0.0).object_ids is ids

    def test_replace_revalidates(self):
        query, update = Query(**self.QUERY), Update(**self.UPDATE)
        assert dataclasses.replace(query, object_ids=[5]).object_ids == frozenset({5})
        with pytest.raises(ValueError, match=re.escape("query 4 has negative cost -2.0")):
            dataclasses.replace(query, cost=-2.0)
        with pytest.raises(ValueError, match="^query 4 accesses no objects$"):
            dataclasses.replace(query, object_ids=[])
        with pytest.raises(ValueError, match="^update 9 has unknown kind 'upsert'$"):
            dataclasses.replace(update, kind="upsert")

    @pytest.mark.parametrize("cls, fields", [(Query, QUERY), (Update, UPDATE)])
    def test_pickle_round_trip(self, cls, fields):
        record = cls(**fields)
        loaded = pickle.loads(pickle.dumps(record))
        assert loaded == record and hash(loaded) == hash(record)
        assert dataclasses.asdict(loaded) == fields

    @pytest.mark.parametrize("cls, fields", [(Query, QUERY), (Update, UPDATE)])
    def test_equal_to_a_record_stored_field_by_field(self, cls, fields):
        record, reference = cls(**fields), built_field_by_field(cls, **fields)
        assert record == reference and hash(record) == hash(reference)
        assert repr(record) == repr(reference)
        assert record == cls(*fields.values())
        assert record != dataclasses.replace(reference, cost=99.0)

    @pytest.mark.parametrize("cls, fields", [(Query, QUERY), (Update, UPDATE)])
    def test_records_stay_frozen_and_slotted(self, cls, fields):
        record = cls(**fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cost = 0.0
        assert not hasattr(record, "__dict__")


class TestQuery:
    def test_object_ids_coerced_to_frozenset(self):
        query = Query(query_id=1, object_ids=[1, 2, 2], cost=1.0, timestamp=0.0)
        assert query.object_ids == frozenset({1, 2})

    def test_empty_footprint_rejected(self):
        with pytest.raises(ValueError, match="^query 1 accesses no objects$"):
            Query(query_id=1, object_ids=frozenset(), cost=1.0, timestamp=0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match=r"^query 1 has negative cost -1\.0$"):
            Query(query_id=1, object_ids=frozenset({1}), cost=-1.0, timestamp=0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match=r"^query 1 has negative tolerance -1\.0$"):
            Query(query_id=1, object_ids=frozenset({1}), cost=1.0, timestamp=0.0, tolerance=-1.0)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError, match="^query 1 has unknown template 'mystery'$"):
            Query(
                query_id=1, object_ids=frozenset({1}), cost=1.0, timestamp=0.0,
                template="mystery",
            )

    def test_aliases_match_paper_notation(self):
        query = Query(query_id=1, object_ids=frozenset({1, 2}), cost=7.0, timestamp=3.0)
        assert query.shipping_cost == pytest.approx(7.0)
        assert query.accessed_objects == frozenset({1, 2})
        assert query.touches(1) and not query.touches(9)

    def test_requires_update_with_zero_tolerance(self):
        query = Query(query_id=1, object_ids=frozenset({1}), cost=1.0, timestamp=100.0)
        assert query.requires_update(99.0)
        assert query.requires_update(100.0)

    def test_requires_update_respects_tolerance_window(self):
        query = Query(
            query_id=1, object_ids=frozenset({1}), cost=1.0, timestamp=100.0, tolerance=10.0
        )
        assert query.requires_update(89.0)
        assert query.requires_update(90.0)
        assert not query.requires_update(95.0)
        assert not query.requires_update(100.0)

    def test_infinite_tolerance_never_requires_updates(self):
        query = Query(
            query_id=1, object_ids=frozenset({1}), cost=1.0, timestamp=100.0,
            tolerance=float("inf"),
        )
        assert not query.requires_update(0.0)

    def test_total_query_cost_helper(self):
        queries = [
            Query(query_id=i, object_ids=frozenset({1}), cost=float(i), timestamp=float(i))
            for i in range(1, 5)
        ]
        assert total_query_cost(queries) == pytest.approx(10.0)

    def test_query_id_allocator_is_monotonic(self):
        allocator = QueryIdAllocator(start=5)
        assert [allocator.next_id() for _ in range(3)] == [5, 6, 7]

    def test_templates_enumeration(self):
        assert QueryTemplate.RANGE in QueryTemplate.ALL
        assert len(set(QueryTemplate.ALL)) == len(QueryTemplate.ALL)


class TestUpdate:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match=r"^update 1 has negative cost -1\.0$"):
            Update(update_id=1, object_id=1, cost=-1.0, timestamp=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^update 1 has unknown kind 'truncate'$"):
            Update(update_id=1, object_id=1, cost=1.0, timestamp=0.0, kind="truncate")

    def test_shipping_cost_alias(self):
        update = Update(update_id=1, object_id=1, cost=2.5, timestamp=0.0)
        assert update.shipping_cost == pytest.approx(2.5)

    def test_default_kind_is_insert(self):
        update = Update(update_id=1, object_id=1, cost=1.0, timestamp=0.0)
        assert update.kind == UpdateKind.INSERT

    def test_update_id_allocator(self):
        allocator = UpdateIdAllocator()
        assert allocator.next_id() == 0
        assert allocator.next_id() == 1
