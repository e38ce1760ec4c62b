"""Interleaving query and update streams into a single trace.

The simulator consumes one time-ordered event stream.  The mixer takes a
query stream and an update stream (each in its own order), assigns them
interleaved integer timestamps and emits :class:`repro.workload.trace`
events.  Two faces are provided:

* :func:`iter_interleaved` -- the streaming face: walks the schedule one
  position at a time, consuming the two streams lazily and yielding
  re-stamped events, so workloads can be mixed without ever materialising
  either side (the :class:`repro.workload.trace.TraceStream` pipeline builds
  on this);
* :func:`interleave` -- the materialised face: both sides are in hand, so it
  asks :func:`slot_timestamps` for every payload's slot and scatters each
  ``(is_update, payload)`` pair into place, building the
  :class:`repro.workload.trace.Trace` from that list.

Two interleaving modes are provided:

* ``uniform`` -- events from the two streams are merged so that they are
  spread evenly across the whole trace (the default; matches the paper's
  roughly 1:1 query:update event mix).  Query ``i`` keeps pace
  ``(i + 1) / query_count``, update ``j`` pace ``(j + 1) / update_count``, and
  the merge is the stable merge of the two pace sequences, ties going to the
  query: O(1) per event when walked, one ``searchsorted`` per side in closed
  form.
* ``random`` -- the merge order is a random shuffle (seeded), which keeps
  the relative order within each stream but randomises the interleaving.
  This mode holds one boolean per event (a NumPy bool array, 1 byte/event)
  while streaming.

Both modes preserve the internal order of each stream, which is what the
generators' hotspot/scan evolution assumes.

Stamp at source: a producer that knows both stream lengths asks
:func:`slot_timestamps` for the slots the schedule will give each side and
builds its payloads with those timestamps.  The merge re-stamps (rebuilds,
re-validates) only a payload whose timestamp differs from its slot, so a
pre-stamped trace costs one object per event instead of two, and a
hand-made or lazily generated stream is stamped exactly as before.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Literal, Sequence, Tuple

from repro.repository.queries import Query
from repro.repository.updates import Update
from repro.workload.trace import QueryEvent, TaggedEvent, Trace, TraceEvent, UpdateEvent


def _restamp_query(query: Query, timestamp: float) -> Query:
    if query.timestamp == timestamp:
        return query
    return Query(
        query_id=query.query_id,
        object_ids=query.object_ids,
        cost=query.cost,
        timestamp=timestamp,
        tolerance=query.tolerance,
        template=query.template,
        sql=query.sql,
    )


def _restamp_update(update: Update, timestamp: float) -> Update:
    if update.timestamp == timestamp:
        return update
    return Update(
        update_id=update.update_id,
        object_id=update.object_id,
        cost=update.cost,
        timestamp=timestamp,
        kind=update.kind,
        rows=update.rows,
    )


def iter_schedule(
    query_count: int,
    update_count: int,
    mode: Literal["uniform", "random"] = "uniform",
    seed: int = 99,
) -> Iterator[bool]:
    """Yield the merge schedule (True = query slot) one position at a time."""
    if mode == "uniform":
        yield from _iter_uniform_schedule(query_count, update_count)
    elif mode == "random":
        import numpy as np

        rng = np.random.default_rng(seed)
        # One byte per event (shuffle consumes the RNG identically however
        # the array was built, so this matches the historical list form).
        schedule = np.zeros(query_count + update_count, dtype=bool)
        schedule[:query_count] = True
        rng.shuffle(schedule)
        for slot in schedule:
            yield bool(slot)
    else:
        raise ValueError(f"unknown interleave mode {mode!r}")


def slot_timestamps(
    query_count: int,
    update_count: int,
    mode: Literal["uniform", "random"] = "uniform",
    seed: int = 99,
) -> Tuple[List[float], List[float]]:
    """The timestamps the merge assigns: ``(query slots, update slots)``.

    ``uniform`` mode places each side in closed form: query ``i`` lands after
    every update whose pace is strictly below its own, update ``j`` after
    every query whose pace is at most its own.  The paces are the same
    float divisions :func:`iter_schedule` compares, so the slots are its
    walk's, bit for bit.
    """
    if mode != "uniform":
        query_slots: List[float] = []
        update_slots: List[float] = []
        schedule = iter_schedule(query_count, update_count, mode=mode, seed=seed)
        for position, take_query in enumerate(schedule, start=1):
            (query_slots if take_query else update_slots).append(float(position))
        return query_slots, update_slots
    import numpy as np

    query_pace = np.arange(1, query_count + 1, dtype=float) / query_count
    update_pace = np.arange(1, update_count + 1, dtype=float) / update_count
    query_slots_array = np.arange(1.0, query_count + 1) + np.searchsorted(
        update_pace, query_pace, side="left"
    )
    update_slots_array = np.arange(1.0, update_count + 1) + np.searchsorted(
        query_pace, update_pace, side="right"
    )
    return query_slots_array.tolist(), update_slots_array.tolist()


def _miscounted(side: str, declared: int, produced: int) -> ValueError:
    return ValueError(f"the {side} stream produced {produced} {side}, declared {declared}")


def iter_interleaved(
    queries: Iterable[Query],
    updates: Iterable[Update],
    query_count: int,
    update_count: int,
    mode: Literal["uniform", "random"] = "uniform",
    seed: int = 99,
) -> Iterator[TraceEvent]:
    """Merge two event streams lazily into one re-stamped event stream.

    Timestamps are consecutive integers starting at 1, one per event, so that
    event-sequence position and simulated time coincide (the paper's x-axes
    are event-sequence positions).  The streams are consumed one element at a
    time; nothing is materialised beyond the ``random``-mode schedule.  A
    payload already carrying its slot's timestamp is passed through as is.

    Parameters
    ----------
    queries / updates:
        The two streams; internal order is preserved.  They must produce
        exactly ``query_count`` / ``update_count`` elements; a stream that
        runs short or long raises ``ValueError`` naming the side.
    query_count / update_count:
        Stream lengths (needed up front to build the schedule).
    mode:
        ``"uniform"`` spreads each stream evenly over the trace;
        ``"random"`` shuffles the merge order (seeded).
    seed:
        RNG seed for ``"random"`` mode.
    """
    query_iter = iter(queries)
    update_iter = iter(updates)
    queries_taken = updates_taken = 0
    schedule = iter_schedule(query_count, update_count, mode=mode, seed=seed)
    for position, take_query in enumerate(schedule, start=1):
        if take_query:
            query = next(query_iter, None)
            if query is None:
                raise _miscounted("queries", query_count, queries_taken)
            queries_taken += 1
            yield QueryEvent(_restamp_query(query, float(position)))
        else:
            update = next(update_iter, None)
            if update is None:
                raise _miscounted("updates", update_count, updates_taken)
            updates_taken += 1
            yield UpdateEvent(_restamp_update(update, float(position)))
    sides = (("queries", query_iter, query_count), ("updates", update_iter, update_count))
    for side, rest, declared in sides:
        extra = sum(1 for _ in rest)
        if extra:
            raise _miscounted(side, declared, declared + extra)


def interleave(
    queries: Sequence[Query],
    updates: Sequence[Update],
    mode: Literal["uniform", "random"] = "uniform",
    seed: int = 99,
) -> Trace:
    """Merge queries and updates into one materialised trace.

    Each payload goes straight to its slot of the schedule (see
    :func:`iter_interleaved` for the schedule and timestamp semantics), so the
    trace is built from one ``(is_update, payload)`` list and nothing else.
    """
    query_slots, update_slots = slot_timestamps(len(queries), len(updates), mode=mode, seed=seed)
    tagged: List[TaggedEvent] = [None] * (len(queries) + len(updates))  # type: ignore[list-item]
    for query, slot in zip(queries, query_slots, strict=True):
        tagged[int(slot) - 1] = (False, _restamp_query(query, slot))
    for update, slot in zip(updates, update_slots, strict=True):
        tagged[int(slot) - 1] = (True, _restamp_update(update, slot))
    return Trace.from_tagged(tagged)


def _iter_uniform_schedule(query_count: int, update_count: int) -> Iterator[bool]:
    """Evenly interleave two stream lengths (True = query slot), lazily."""
    query_taken = update_taken = 0
    for _ in range(query_count + update_count):
        # Take from whichever stream is behind its proportional pace.
        take_query = update_taken == update_count or (
            query_taken < query_count
            and (query_taken + 1) / query_count <= (update_taken + 1) / update_count
        )
        yield take_query
        if take_query:
            query_taken += 1
        else:
            update_taken += 1
