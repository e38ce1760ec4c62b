"""Interleaving query and update streams into a single trace.

The simulator consumes one time-ordered event stream.  The mixer takes a
query stream and an update stream (each in its own order), assigns them
interleaved integer timestamps and emits :class:`repro.workload.trace`
events.  Two faces are provided:

* :func:`iter_interleaved` -- the streaming face: consumes the two streams
  lazily and yields re-stamped events one at a time, so workloads can be
  mixed without ever materialising either side (the
  :class:`repro.workload.trace.TraceStream` pipeline builds on this);
* :func:`interleave` -- the materialised face: the same merge collected into
  a :class:`repro.workload.trace.Trace`.  It is a thin wrapper over the
  streaming generator, so the two can never drift apart.

Two interleaving modes are provided:

* ``uniform`` -- events from the two streams are merged so that they are
  spread evenly across the whole trace (the default; matches the paper's
  roughly 1:1 query:update event mix).  The schedule is computed
  incrementally in O(1) per event.
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

import numpy as np

from repro.repository.queries import Query
from repro.repository.updates import Update
from repro.workload.trace import QueryEvent, Trace, TraceEvent, UpdateEvent


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
    """The timestamps the merge assigns: ``(query slots, update slots)``."""
    query_slots: List[float] = []
    update_slots: List[float] = []
    schedule = iter_schedule(query_count, update_count, mode=mode, seed=seed)
    for position, take_query in enumerate(schedule, start=1):
        (query_slots if take_query else update_slots).append(float(position))
    return query_slots, update_slots


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
        exactly ``query_count`` / ``update_count`` elements.
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
    queries_taken = 0
    updates_taken = 0
    position = 0
    for take_query in iter_schedule(query_count, update_count, mode=mode, seed=seed):
        timestamp = float(position + 1)
        position += 1
        if take_query and queries_taken < query_count:
            yield QueryEvent(_restamp_query(next(query_iter), timestamp))
            queries_taken += 1
        elif updates_taken < update_count:
            yield UpdateEvent(_restamp_update(next(update_iter), timestamp))
            updates_taken += 1
        else:
            yield QueryEvent(_restamp_query(next(query_iter), timestamp))
            queries_taken += 1


def interleave(
    queries: Sequence[Query],
    updates: Sequence[Update],
    mode: Literal["uniform", "random"] = "uniform",
    seed: int = 99,
) -> Trace:
    """Merge queries and updates into one materialised trace.

    A thin wrapper over :func:`iter_interleaved`; see it for the schedule and
    timestamp semantics.
    """
    if len(queries) + len(updates) == 0:
        return Trace([])
    return Trace(
        iter_interleaved(
            queries, updates, len(queries), len(updates), mode=mode, seed=seed
        )
    )


def _iter_uniform_schedule(query_count: int, update_count: int) -> Iterator[bool]:
    """Evenly interleave two stream lengths (True = query slot), lazily."""
    total = query_count + update_count
    if total == 0:
        return
    if query_count == 0:
        for _ in range(total):
            yield False
        return
    if update_count == 0:
        for _ in range(total):
            yield True
        return
    query_taken = 0
    update_taken = 0
    for _ in range(total):
        # Take from whichever stream is behind its proportional pace.
        query_pace = (query_taken + 1) / query_count
        update_pace = (update_taken + 1) / update_count
        if query_taken < query_count and (
            update_taken >= update_count or query_pace <= update_pace
        ):
            yield True
            query_taken += 1
        else:
            yield False
            update_taken += 1
