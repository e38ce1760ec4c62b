"""Columnar (struct-of-arrays) compilation of traces.

The batched replay path in :mod:`repro.sim.batched` processes the events of
the eager policies (NoCache, Replica, SOptimal, and Benefit between its
window edges), for one cache or a routed fleet, in vectorised batches
instead of one Python object at a time.  To make that possible a
materialised trace is *compiled once* into numpy arrays -- the
:class:`TraceColumns` view -- and every batched policy run over the same
trace reuses the compilation (it is cached on the trace like the tagged
view).  SOptimal's ``prepare`` folds the same columns, a stream's chunk by chunk.

Layout
------
Per event (length ``n``):

* ``timestamps`` -- ``float64`` arrival times,
* ``is_update`` -- boolean tags (the engines' dispatch bit),
* ``costs`` -- ``float64`` shipping costs (``query.cost`` or ``update.cost``),
* ``update_prefix`` -- ``int64`` of length ``n + 1``: the number of update
  events among events ``[0, i)``, so any event window maps to its update and
  query subranges by two lookups.

Per update event (length ``nu``, in event order):

* ``update_object_ids``, ``update_rows``, ``update_costs``.

Per query event (length ``nq``, in event order):

* ``query_costs``, ``query_timestamps``, and the ragged object-id sets in
  CSR form: ``query_object_ids`` (flat, each query's ids sorted) with
  ``query_object_offsets`` of length ``nq + 1``;
* ``query_footprints`` -- ``int64`` index of its ``object_ids`` in
  ``footprints``: the distinct frozensets (a list, first-seen order; a
  window shares its parent's), so :meth:`TraceColumns.per_query` evaluates
  the share rule's denominator once per object.  Distinct by *identity*:
  iteration order, which a float sum follows, belongs to the object
  (``list(frozenset([17, 9, 1]))`` need not equal ``[1, 9, 17]``).

Numpy is optional at import time: when it is unavailable the module still
imports and :data:`COLUMNS_AVAILABLE` is ``False``, so the engines simply
keep the scalar path.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Callable, Dict, FrozenSet, List, Sequence

from repro.workload.trace import TaggedEvent

try:  # pragma: no cover - exercised implicitly by every columns test
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None  # type: ignore[assignment]

#: Whether columnar compilation (and thus batched replay) is available.
COLUMNS_AVAILABLE = _np is not None


class TraceColumns:
    """Immutable columnar view over one window of a trace.

    Instances come from :meth:`repro.workload.trace.Trace.columns` (whole
    trace) or :meth:`window` (zero-copy sub-range, used by ``TraceView``).
    """

    __slots__ = (
        "timestamps",
        "is_update",
        "costs",
        "update_prefix",
        "update_object_ids",
        "update_rows",
        "update_costs",
        "query_costs",
        "query_timestamps",
        "query_object_ids",
        "query_object_offsets",
        "query_footprints",
        "footprints",
    )

    def __init__(
        self,
        timestamps: "_np.ndarray",
        is_update: "_np.ndarray",
        costs: "_np.ndarray",
        update_prefix: "_np.ndarray",
        update_object_ids: "_np.ndarray",
        update_rows: "_np.ndarray",
        update_costs: "_np.ndarray",
        query_costs: "_np.ndarray",
        query_timestamps: "_np.ndarray",
        query_object_ids: "_np.ndarray",
        query_object_offsets: "_np.ndarray",
        query_footprints: "_np.ndarray",
        footprints: List[FrozenSet[int]],
    ) -> None:
        self.timestamps = timestamps
        self.is_update = is_update
        self.costs = costs
        self.update_prefix = update_prefix
        self.update_object_ids = update_object_ids
        self.update_rows = update_rows
        self.update_costs = update_costs
        self.query_costs = query_costs
        self.query_timestamps = query_timestamps
        self.query_object_ids = query_object_ids
        self.query_object_offsets = query_object_offsets
        self.query_footprints = query_footprints
        self.footprints = footprints

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tagged(cls, tagged: Sequence[TaggedEvent]) -> "TraceColumns":
        """Compile ``(is_update, payload)`` pairs into columnar arrays."""
        if _np is None:  # pragma: no cover - the image bakes numpy in
            raise RuntimeError("numpy is required to compile trace columns")
        n = len(tagged)
        timestamps = _np.fromiter((p.timestamp for _, p in tagged), dtype=_np.float64, count=n)
        is_update = _np.fromiter((tag for tag, _ in tagged), dtype=bool, count=n)
        costs = _np.fromiter((p.cost for _, p in tagged), dtype=_np.float64, count=n)
        updates = [payload for tag, payload in tagged if tag]
        # Each footprint object is numbered (by the query that first holds
        # it) and sorted once; the query CSR is gathered from those rows.
        sets = [payload.object_ids for tag, payload in tagged if not tag]
        first: Dict[int, int] = {}
        holders = _np.fromiter(map(first.setdefault, map(id, sets), count()), _np.int64, len(sets))
        number = _np.empty(len(sets), dtype=_np.int64)
        number[list(first.values())] = _np.arange(len(first))
        query_footprints = number[holders]
        footprints = [sets[holder] for holder in first.values()]
        rows = [sorted(footprint) for footprint in footprints]
        row_sizes = _np.fromiter(map(len, rows), _np.int64, len(rows))
        row_offsets = _np.concatenate(([0], _np.cumsum(row_sizes)))
        query_sizes = row_sizes[query_footprints]
        query_offsets = _np.concatenate(([0], _np.cumsum(query_sizes)))
        gather = _np.arange(query_offsets[-1]) + _np.repeat(
            row_offsets[query_footprints] - query_offsets[:-1], query_sizes
        )
        update_prefix = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(is_update, dtype=_np.int64, out=update_prefix[1:])
        query_mask = ~is_update
        return cls(
            timestamps=timestamps,
            is_update=is_update,
            costs=costs,
            update_prefix=update_prefix,
            update_object_ids=_np.fromiter(
                (update.object_id for update in updates), dtype=_np.int64, count=len(updates)
            ),
            update_rows=_np.fromiter(
                (update.rows for update in updates), dtype=_np.int64, count=len(updates)
            ),
            update_costs=costs[is_update],
            query_costs=costs[query_mask],
            query_timestamps=timestamps[query_mask],
            query_object_ids=_np.fromiter(chain.from_iterable(rows), _np.int64)[gather],
            query_object_offsets=query_offsets,
            query_footprints=query_footprints,
            footprints=footprints,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def update_count(self) -> int:
        """Number of update events in the window."""
        return len(self.update_object_ids)

    @property
    def query_count(self) -> int:
        """Number of query events in the window."""
        return len(self.query_costs)

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def window(self, start: int, stop: int) -> "TraceColumns":
        """Columns for the event range ``[start, stop)`` (near zero-copy).

        Per-event and per-kind arrays are numpy slices of the parent; only
        the rebased CSR offsets and update prefix are copied (both are small
        relative to the window).
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"window [{start}, {stop}) out of range for {len(self)} events"
            )
        update_start = int(self.update_prefix[start])
        update_stop = int(self.update_prefix[stop])
        query_start = start - update_start
        query_stop = stop - update_stop
        flat_start = int(self.query_object_offsets[query_start])
        flat_stop = int(self.query_object_offsets[query_stop])
        return TraceColumns(
            timestamps=self.timestamps[start:stop],
            is_update=self.is_update[start:stop],
            costs=self.costs[start:stop],
            update_prefix=self.update_prefix[start : stop + 1] - update_start,
            update_object_ids=self.update_object_ids[update_start:update_stop],
            update_rows=self.update_rows[update_start:update_stop],
            update_costs=self.update_costs[update_start:update_stop],
            query_costs=self.query_costs[query_start:query_stop],
            query_timestamps=self.query_timestamps[query_start:query_stop],
            query_object_ids=self.query_object_ids[flat_start:flat_stop],
            query_object_offsets=self.query_object_offsets[query_start : query_stop + 1]
            - flat_start,
            query_footprints=self.query_footprints[query_start:query_stop],
            footprints=self.footprints,
        )

    def per_query(self, function: Callable[[FrozenSet[int]], float]) -> "_np.ndarray":
        """``function(query.object_ids)`` for every query, as ``float64``.

        Evaluated once per footprint the window's queries hold (a window
        skips the rest of its parent's table), then gathered per query.
        """
        used = _np.flatnonzero(_np.bincount(self.query_footprints, minlength=len(self.footprints)))
        values = _np.zeros(len(self.footprints))
        values[used] = [function(self.footprints[index]) for index in used.tolist()]
        return values[self.query_footprints]
