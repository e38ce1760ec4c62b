"""Tests for interleaving query and update streams."""

from __future__ import annotations

import pytest

from repro.repository.objects import ObjectCatalog
from repro.workload.mixer import interleave, iter_schedule, slot_timestamps
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.trace import QueryEvent, UpdateEvent
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig
from tests.conftest import make_query, make_update


def make_streams(query_count: int, update_count: int):
    queries = [
        make_query(i, object_ids=[1], cost=1.0, timestamp=float(i)) for i in range(query_count)
    ]
    updates = [
        make_update(i, object_id=1, cost=1.0, timestamp=float(i)) for i in range(update_count)
    ]
    return queries, updates


class TestInterleave:
    def test_total_event_count(self):
        queries, updates = make_streams(10, 15)
        trace = interleave(queries, updates)
        assert len(trace) == 25
        assert trace.query_count == 10
        assert trace.update_count == 15

    def test_timestamps_are_consecutive_integers(self):
        queries, updates = make_streams(5, 5)
        trace = interleave(queries, updates)
        stamps = [event.timestamp for event in trace]
        assert stamps == [float(i) for i in range(1, 11)]

    def test_internal_order_preserved(self):
        queries, updates = make_streams(8, 8)
        trace = interleave(queries, updates)
        query_ids = [e.query.query_id for e in trace if isinstance(e, QueryEvent)]
        update_ids = [e.update.update_id for e in trace if isinstance(e, UpdateEvent)]
        assert query_ids == sorted(query_ids)
        assert update_ids == sorted(update_ids)

    def test_uniform_mode_spreads_streams(self):
        queries, updates = make_streams(4, 12)
        trace = interleave(queries, updates, mode="uniform")
        # No long run of one kind: the 4 queries split the 12 updates evenly.
        positions = [i for i, e in enumerate(trace) if isinstance(e, QueryEvent)]
        gaps = [b - a for a, b in zip(positions, positions[1:], strict=False)]
        assert max(gaps) <= 5

    def test_random_mode_is_seeded(self):
        queries, updates = make_streams(10, 10)
        first = interleave(queries, updates, mode="random", seed=3)
        second = interleave(queries, updates, mode="random", seed=3)
        assert [e.kind for e in first] == [e.kind for e in second]

    def test_unknown_mode_rejected(self):
        queries, updates = make_streams(2, 2)
        with pytest.raises(ValueError):
            interleave(queries, updates, mode="alternating")

    def test_empty_streams(self):
        assert len(interleave([], [])) == 0
        queries, _ = make_streams(3, 0)
        trace = interleave(queries, [])
        assert trace.update_count == 0 and trace.query_count == 3
        _, updates = make_streams(0, 3)
        trace = interleave([], updates)
        assert trace.query_count == 0 and trace.update_count == 3

    def test_costs_and_footprints_survive_restamping(self):
        queries, updates = make_streams(3, 3)
        trace = interleave(queries, updates)
        assert trace.total_query_cost() == pytest.approx(3.0)
        assert trace.total_update_cost() == pytest.approx(3.0)
        for event in trace:
            if isinstance(event, QueryEvent):
                assert event.query.object_ids == frozenset({1})


class TestStampAtSource:
    """Generators handed their merge slots are not rebuilt by the mixer."""

    @pytest.mark.parametrize("mode", ["uniform", "random"])
    @pytest.mark.parametrize("counts", [(7, 7), (3, 11), (12, 5), (0, 4), (4, 0)])
    def test_slots_are_the_schedule_positions(self, counts, mode):
        query_slots, update_slots = slot_timestamps(*counts, mode=mode, seed=5)
        schedule = list(iter_schedule(*counts, mode=mode, seed=5))
        assert (len(query_slots), len(update_slots)) == counts
        assert query_slots == [float(i + 1) for i, is_query in enumerate(schedule) if is_query]
        assert sorted(query_slots + update_slots) == [
            float(i) for i in range(1, sum(counts) + 1)
        ]

    @pytest.mark.parametrize("mode", ["uniform", "random"])
    def test_prestamped_payloads_pass_through_unrebuilt(self, mode):
        catalog = ObjectCatalog.heavy_tailed(count=30, total_size=300.0, seed=11)
        query_config = SDSSWorkloadConfig(query_count=120, target_total_cost=50.0, seed=6)
        update_config = UpdateWorkloadConfig(update_count=90, target_total_cost=40.0, seed=7)

        restamped = interleave(
            SDSSQueryGenerator(catalog, query_config).generate(),
            SurveyUpdateGenerator(catalog, update_config).generate(),
            mode=mode,
            seed=5,
        )
        query_slots, update_slots = slot_timestamps(120, 90, mode=mode, seed=5)
        queries = SDSSQueryGenerator(catalog, query_config).generate(timestamps=query_slots)
        updates = SurveyUpdateGenerator(catalog, update_config).generate(
            timestamps=update_slots
        )
        prestamped = interleave(queries, updates, mode=mode, seed=5)

        assert list(prestamped) == list(restamped)
        payloads = [
            event.query if isinstance(event, QueryEvent) else event.update
            for event in prestamped
        ]
        originals = {id(payload) for payload in queries + updates}
        assert all(id(payload) in originals for payload in payloads)
        # ... while default-stamped payloads are rebuilt wherever the slot differs.
        assert [event.timestamp for event in restamped] == [
            float(i) for i in range(1, 211)
        ]
