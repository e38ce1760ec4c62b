"""Tests for interleaving query and update streams."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.repository.objects import ObjectCatalog
from repro.workload.mixer import interleave, iter_interleaved, iter_schedule, slot_timestamps
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.trace import QueryEvent, UpdateEvent, tag_event
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


def walked_slots(query_count: int, update_count: int, mode: str, seed: int):
    """The slots of the per-position schedule walk."""
    query_slots, update_slots = [], []
    schedule = iter_schedule(query_count, update_count, mode=mode, seed=seed)
    for position, take_query in enumerate(schedule, start=1):
        (query_slots if take_query else update_slots).append(float(position))
    return query_slots, update_slots


COUNTS = st.integers(min_value=0, max_value=300)
MODES = st.sampled_from(["uniform", "random"])


class TestClosedFormMerge:
    """The one-shot merge equals the per-event walk it replaced."""

    @given(query_count=COUNTS, update_count=COUNTS, mode=MODES, seed=st.integers(0, 2**16))
    @example(query_count=0, update_count=0, mode="uniform", seed=0)
    @example(query_count=0, update_count=7, mode="uniform", seed=0)
    @example(query_count=300, update_count=0, mode="random", seed=1)
    def test_slot_timestamps_equal_the_schedule_walk(self, query_count, update_count, mode, seed):
        assert slot_timestamps(query_count, update_count, mode=mode, seed=seed) == walked_slots(
            query_count, update_count, mode, seed
        )

    @given(
        query_count=COUNTS,
        update_count=COUNTS,
        mode=MODES,
        seed=st.integers(0, 2**16),
        stamped=st.booleans(),
    )
    @example(query_count=0, update_count=0, mode="random", seed=0, stamped=False)
    @example(query_count=3, update_count=0, mode="uniform", seed=0, stamped=True)
    @example(query_count=0, update_count=5, mode="random", seed=2, stamped=False)
    def test_interleave_equals_the_streamed_merge(
        self, query_count, update_count, mode, seed, stamped
    ):
        queries, updates = make_streams(query_count, update_count)
        if stamped:
            query_slots, update_slots = slot_timestamps(
                query_count, update_count, mode=mode, seed=seed
            )
            queries = [make_query(i, [1], 1.0, slot) for i, slot in enumerate(query_slots)]
            updates = [make_update(i, 1, 1.0, slot) for i, slot in enumerate(update_slots)]
        trace = interleave(queries, updates, mode=mode, seed=seed)
        streamed = iter_interleaved(
            iter(queries), iter(updates), query_count, update_count, mode=mode, seed=seed
        )
        assert trace.tagged_events() == [tag_event(event) for event in streamed]


class TestMiscountedStreams:
    """A stream that does not produce its declared count is named, with both counts."""

    def test_short_side_raises(self):
        queries, updates = make_streams(2, 3)
        with pytest.raises(ValueError, match="queries stream produced 2 queries, declared 3"):
            list(iter_interleaved(iter(queries), iter(updates), 3, 3))

    def test_long_side_raises(self):
        queries, updates = make_streams(2, 4)
        with pytest.raises(ValueError, match="updates stream produced 4 updates, declared 2"):
            list(iter_interleaved(iter(queries), iter(updates), 2, 2))
