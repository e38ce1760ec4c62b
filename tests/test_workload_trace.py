"""Tests for the trace model (events, statistics, JSONL round-trip)."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from collections import Counter

import pytest

from repro.experiments.config import ExperimentConfig, build_scenario
from repro.workload.trace import (
    QueryEvent,
    Trace,
    TraceView,
    UpdateEvent,
    event_to_dict,
    tagged_from_dict,
)
from tests.conftest import make_query, make_update
from tests.test_trace_digests import digest


def build_trace() -> Trace:
    events = [
        UpdateEvent(make_update(1, object_id=1, cost=2.0, timestamp=1.0)),
        QueryEvent(make_query(1, object_ids=[1, 2], cost=5.0, timestamp=2.0)),
        UpdateEvent(make_update(2, object_id=2, cost=3.0, timestamp=3.0)),
        QueryEvent(make_query(2, object_ids=[2], cost=4.0, timestamp=4.0, tolerance=10.0)),
        QueryEvent(make_query(3, object_ids=[3], cost=1.0, timestamp=5.0)),
    ]
    return Trace(events)


class TestTraceBasics:
    def test_events_must_be_time_ordered(self):
        with pytest.raises(ValueError):
            Trace(
                [
                    QueryEvent(make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)),
                    QueryEvent(make_query(2, object_ids=[1], cost=1.0, timestamp=1.0)),
                ]
            )

    def test_counts_and_views(self):
        trace = build_trace()
        assert len(trace) == 5
        assert trace.query_count == 3
        assert trace.update_count == 2
        assert [q.query_id for q in trace.queries()] == [1, 2, 3]
        assert [u.update_id for u in trace.updates()] == [1, 2]

    def test_event_kind_accessors(self):
        trace = build_trace()
        kinds = [event.kind for event in trace]
        assert kinds == ["update", "query", "update", "query", "query"]
        assert trace[0].timestamp == pytest.approx(1.0)

    def test_slicing_returns_view(self):
        trace = build_trace()
        tail = trace.slice_events(2)
        assert isinstance(tail, TraceView)
        assert len(tail) == 3
        assert tail.parent is trace
        assert list(tail) == list(trace)[2:]
        assert isinstance(trace[1:3], Trace)

    def test_slice_view_is_zero_copy_and_nestable(self):
        trace = build_trace()
        view = trace.slice_events(1, 4)
        assert [e.timestamp for e in view] == [2.0, 3.0, 4.0]
        assert view[0] == trace[1]
        assert view[-1] == trace[3]
        assert view[0].query is trace.tagged_events()[1][1]
        nested = view.slice_events(1)
        assert isinstance(nested, TraceView)
        assert nested.parent is trace
        assert list(nested) == list(trace)[2:4]
        assert list(view.iter_tagged()) == trace.tagged_events()[1:4]
        assert view.query_count + view.update_count == len(view)
        assert view.describe()["events"] == 3.0
        materialised = view.materialise()
        assert isinstance(materialised, Trace)
        assert list(materialised) == list(view)

    def test_cost_totals(self):
        trace = build_trace()
        assert trace.total_query_cost() == pytest.approx(10.0)
        assert trace.total_update_cost() == pytest.approx(5.0)

    def test_objects_touched_counts_queries_and_updates(self):
        trace = build_trace()
        touched = Counter(oid for query in trace.queries() for oid in query.object_ids)
        touched.update(update.object_id for update in trace.updates())
        assert touched[1] == 2  # one update, one query
        assert touched[2] == 3  # one update, two queries
        assert touched[3] == 1

    def test_hotspot_helpers(self):
        trace = build_trace()
        assert trace.query_hotspots(1)[0][0] == 2
        assert trace.update_hotspots(2) == [(1, 1), (2, 1)] or len(trace.update_hotspots(2)) == 2

    def test_describe(self):
        stats = build_trace().describe()
        assert stats["events"] == 5
        assert stats["queries"] == 3
        assert stats["updates"] == 2


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert len(loaded) == len(trace)
        assert loaded.total_query_cost() == pytest.approx(trace.total_query_cost())
        assert loaded.total_update_cost() == pytest.approx(trace.total_update_cost())
        original_query = trace.queries()[1]
        loaded_query = loaded.queries()[1]
        assert loaded_query.object_ids == original_query.object_ids
        assert loaded_query.tolerance == pytest.approx(original_query.tolerance)
        original_update = trace.updates()[0]
        loaded_update = loaded.updates()[0]
        assert loaded_update.object_id == original_update.object_id
        assert loaded_update.kind == original_update.kind

    def test_blank_lines_ignored(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        content = path.read_text() + "\n\n"
        path.write_text(content)
        assert len(Trace.from_jsonl(path)) == len(trace)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError):
            Trace.from_jsonl(path)


QUERY_LINE = {
    "kind": "query", "query_id": 2, "object_ids": [1, 2], "cost": 5.0, "timestamp": 2.0,
    "tolerance": 10.0, "template": "range",
}  # fmt: skip
UPDATE_LINE = {
    "kind": "update", "update_id": 3, "object_id": 2, "cost": 3.0, "timestamp": 3.0,
    "update_kind": "insert", "rows": 40,
}  # fmt: skip


class TestMalformedPayloads:
    """The wire decoder refuses what it used to convert silently, naming the key."""

    @pytest.mark.parametrize(
        "line, key, value",
        [
            (QUERY_LINE, "object_ids", "12"),
            (QUERY_LINE, "object_ids", [1.5]),
            (QUERY_LINE, "object_ids", [True]),
            (QUERY_LINE, "query_id", 2.7),
            (QUERY_LINE, "query_id", True),
            (UPDATE_LINE, "update_id", "3"),
            (UPDATE_LINE, "object_id", 2.0),
            (UPDATE_LINE, "rows", 2.5),
            (UPDATE_LINE, "rows", -1),
            (QUERY_LINE, "cost", "1e3"),
            (UPDATE_LINE, "cost", True),
            (QUERY_LINE, "cost", math.nan),
            (UPDATE_LINE, "cost", math.inf),
            (QUERY_LINE, "timestamp", math.nan),
            (UPDATE_LINE, "timestamp", -math.inf),
            (QUERY_LINE, "timestamp", "5"),
            (QUERY_LINE, "tolerance", math.nan),
        ],
    )
    def test_rejected_with_the_key_named(self, tmp_path, line, key, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**line, key: value}) + "\n")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            Trace.from_jsonl(path)

    def test_legal_edge_values_are_decoded(self):
        _, query = tagged_from_dict({**QUERY_LINE, "tolerance": math.inf, "cost": 0})
        assert query.tolerance == math.inf and query.cost == 0.0 and type(query.cost) is float
        _, update = tagged_from_dict({**UPDATE_LINE, "timestamp": 4, "rows": 0})
        assert update.timestamp == 4.0 and type(update.timestamp) is float and update.rows == 0

    def test_written_events_decode_to_equal_records(self):
        for event in build_trace():
            is_update, payload = tagged_from_dict(json.loads(json.dumps(event_to_dict(event))))
            assert payload == (event.update if is_update else event.query)


class TestOneRecordContract:
    """A trace stores only its ``(is_update, payload)`` list; what it serves is unchanged.

    The digests and statistics below were recorded from the event-wrapper
    container the tagged list replaced (same config, same seed).
    """

    EVENTS = "a9fb45c8a363bd3a2bd19c2ed020772a5d537c43238bf4fc0c4dcdd59ebcfd3d"
    SLICE_100_400 = "9bbffd702f00d6e935bc7b2105d64dc2e2c2d539a0bdeb0f249866a3c75eee16"
    VIEW_75_350 = "9ee4dfb4dad576ad214747c45267aaebbf0a30710dfc2413ad17831f71f721ab"
    JSONL = "3ac635f2bc8e24cefe60bbbc4e9518b5f645bd1cf67cfc911aa09f05c18f6e98"
    DESCRIBE = {
        "events": 600.0,
        "queries": 300.0,
        "updates": 300.0,
        "total_query_cost": 1199.9999999999995,
        "total_update_cost": 1200.0000000000007,
    }
    VIEW_DESCRIBE = {
        "events": 275.0,
        "queries": 137.0,
        "updates": 138.0,
        "total_query_cost": 462.48929340321865,
        "total_update_cost": 464.00547929702043,
    }

    @pytest.fixture(scope="class")
    def trace(self) -> Trace:
        config = ExperimentConfig(
            object_count=24, query_count=300, update_count=300, sample_every=100, seed=5
        )
        return build_scenario(config).trace

    def test_holds_one_per_event_list(self, trace):
        lists = [name for name, value in vars(trace).items() if isinstance(value, list)]
        assert lists == ["_tagged"]
        assert trace.tagged_events() is trace.tagged_events()
        tagged = list(trace.tagged_events())
        assert Trace.from_tagged(tagged).tagged_events() is tagged

    def test_events_iteration_and_indexing(self, trace):
        assert digest(trace.iter_events()) == self.EVENTS
        assert digest(trace) == self.EVENTS
        assert digest(trace[index] for index in range(len(trace))) == self.EVENTS
        assert trace[-1] == trace[len(trace) - 1]
        sliced = trace[100:400]
        assert isinstance(sliced, Trace)
        assert digest(sliced) == self.SLICE_100_400
        assert sliced.tagged_events() == trace.tagged_events()[100:400]

    def test_nested_views(self, trace):
        view = trace.slice_events(50, 500).slice_events(25, 300)
        assert (view.parent, view.start, view.stop) == (trace, 75, 350)
        assert digest(view) == self.VIEW_75_350
        assert digest(view[index] for index in range(len(view))) == self.VIEW_75_350
        assert list(view.iter_tagged()) == trace.tagged_events()[75:350]
        assert view.describe() == self.VIEW_DESCRIBE

    def test_describe(self, trace):
        assert trace.describe() == self.DESCRIBE

    def test_pickle_round_trip(self, trace):
        clone = pickle.loads(pickle.dumps(trace))
        assert digest(clone) == self.EVENTS
        assert clone.tagged_events() == trace.tagged_events()
        assert clone.describe() == self.DESCRIBE

    def test_jsonl_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.JSONL
        assert digest(Trace.from_jsonl(path)) == self.EVENTS

    def test_non_events_are_rejected(self):
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=1.0)
        with pytest.raises(TypeError):
            Trace([QueryEvent(query), object()])
        with pytest.raises(TypeError):
            Trace([query])

    def test_out_of_order_timestamps_are_rejected(self):
        late = make_query(1, object_ids=[1], cost=1.0, timestamp=5.0)
        early = make_update(1, object_id=1, cost=1.0, timestamp=1.0)
        with pytest.raises(ValueError, match="ordered by timestamp"):
            Trace([QueryEvent(late), UpdateEvent(early)])
        with pytest.raises(ValueError, match="ordered by timestamp"):
            Trace.from_tagged([(False, late), (True, early)])
