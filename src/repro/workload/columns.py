"""Columnar (struct-of-arrays) compilation of traces.

The batched replay path in :mod:`repro.sim.batched` processes the events of
the eager policies (NoCache, Replica, SOptimal, and Benefit between its
window edges), for one cache or a routed fleet, in vectorised batches
instead of one Python object at a time.  To make that possible a
materialised trace is *compiled once* into numpy arrays -- the
:class:`TraceColumns` view -- and every batched policy run over the same
trace reuses the compilation (it is cached on the trace like the tagged
view).

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
  ``query_object_offsets`` of length ``nq + 1``.

Numpy is optional at import time: when it is unavailable the module still
imports and :data:`COLUMNS_AVAILABLE` is ``False``, so the engines simply
keep the scalar path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

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
        # Queries share footprint sets, so each distinct set is sorted once.
        sorted_ids: Dict[FrozenSet[int], List[int]] = {}
        query_flat_ids: List[int] = []
        query_sizes: List[int] = []
        for tag, payload in tagged:
            if not tag:
                ids = sorted_ids.get(payload.object_ids)
                if ids is None:
                    ids = sorted_ids[payload.object_ids] = sorted(payload.object_ids)
                query_flat_ids += ids
                query_sizes.append(len(ids))
        update_prefix = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(is_update, dtype=_np.int64, out=update_prefix[1:])
        query_offsets = _np.zeros(len(query_sizes) + 1, dtype=_np.int64)
        _np.cumsum(query_sizes, out=query_offsets[1:])
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
            query_object_ids=_np.asarray(query_flat_ids, dtype=_np.int64),
            query_object_offsets=query_offsets,
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
        )
