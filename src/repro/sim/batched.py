"""Batched (vectorised) replay executors for the cheap yardstick policies.

The kernel's per-event step costs a few microseconds of Python dispatch
regardless of how trivial the policy's decision is.  For the two yardsticks
whose decisions are *constant* -- NoCache ships every query, Replica ships
every update and answers every query -- the entire replay reduces to exact
bookkeeping arithmetic, which this module performs on whole event batches
using the columnar trace compilation
(:meth:`repro.workload.trace.Trace.columns`).

An executor owns no loop: :meth:`repro.sim.engine.ReplayKernel.run` walks the
sampling grid and hands each chunk (cut at grid edges, ``measure_from`` and
end-of-run) to ``process(start, stop)`` in place of one ``step`` per event,
so every observable -- the traffic time series, occupancy samples, warm-up
capture, progress callbacks -- comes from the same code at the same event
indices.  Within a batch the bookkeeping is bit-exact by construction:

* integer counters (observer counts, repository counters, transfer counts,
  store versions/hits) advance by exact integer sums,
* float traffic totals are folded left-to-right via ``cumsum``
  (:meth:`repro.network.link.NetworkLink.charge_batch`) and per-object float
  growth via unbuffered ``np.add.at``
  (:meth:`repro.repository.server.Repository.ingest_update_columns`), both of
  which perform the identical sequence of IEEE additions as the scalar path.

The determinism fixtures therefore pin the batched path byte-for-byte
against the scalar one.

Eligibility is deliberately conservative (see
:func:`select_batched_executor`): exact policy types only (a subclass may
override hooks), materialised traces only (streams replay scalar in constant
memory), record-free links, history-free repositories, and vectorisable cost
models -- and the kernel only asks for a single site with no ``on_decision``
observer.  Everything else keeps the per-event step.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.policy import CachePolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy
from repro.network.link import Mechanism, NetworkLink
from repro.repository.server import Repository
from repro.workload.columns import COLUMNS_AVAILABLE, TraceColumns
from repro.workload.trace import Trace, TraceStream, TraceView

try:  # pragma: no cover - exercised implicitly by every batched test
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None  # type: ignore[assignment]

__all__ = ["select_batched_executor"]


class _BatchedExecutor:
    """One policy's bookkeeping over event windows of the compiled columns."""

    def __init__(
        self,
        policy: CachePolicy,
        columns: TraceColumns,
        repository: Repository,
        link: NetworkLink,
    ) -> None:
        self._policy = policy
        self._columns = columns
        self._repository = repository
        self._link = link

    def process(self, start: int, stop: int) -> Tuple[int, int]:
        """Replay events ``[start, stop)``; returns (answered, shipped)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared per-batch slices
    # ------------------------------------------------------------------
    def _batch_ranges(self, start: int, stop: int) -> Tuple[int, int, int, int]:
        """Update and query subranges of the event window ``[start, stop)``."""
        prefix = self._columns.update_prefix
        update_start = int(prefix[start])
        update_stop = int(prefix[stop])
        return update_start, update_stop, start - update_start, stop - update_stop


class _NoCacheExecutor(_BatchedExecutor):
    """Batched NoCache: every query ships, updates only touch the server."""

    def process(self, start: int, stop: int) -> Tuple[int, int]:
        columns = self._columns
        update_start, update_stop, query_start, query_stop = self._batch_ranges(
            start, stop
        )
        update_count = update_stop - update_start
        query_count = query_stop - query_start
        if update_count:
            self._repository.ingest_update_columns(
                columns.update_object_ids[update_start:update_stop],
                columns.update_rows[update_start:update_stop],
                columns.update_costs[update_start:update_stop],
            )
        if query_count:
            offsets = columns.query_object_offsets
            touched = columns.query_object_ids[
                int(offsets[query_start]) : int(offsets[query_stop])
            ]
            self._repository.answer_query_batch(touched, query_count)
            priced = self._link.cost_model.cost_array(
                columns.query_costs[query_start:query_stop]
            )
            self._link.charge_batch(Mechanism.QUERY_SHIPPING, priced)
        self._policy.observer.note_batch(
            queries=query_count, updates=update_count, shipped_queries=query_count
        )
        return 0, query_count


class _ReplicaExecutor(_BatchedExecutor):
    """Batched Replica: every update ships immediately, every query hits."""

    def process(self, start: int, stop: int) -> Tuple[int, int]:
        columns = self._columns
        store = self._policy.store
        update_start, update_stop, query_start, query_stop = self._batch_ranges(
            start, stop
        )
        update_count = update_stop - update_start
        query_count = query_stop - query_start
        if update_count:
            object_ids = columns.update_object_ids[update_start:update_stop]
            self._repository.ingest_update_columns(
                object_ids,
                columns.update_rows[update_start:update_stop],
                columns.update_costs[update_start:update_stop],
            )
            priced = self._link.cost_model.cost_array(
                columns.update_costs[update_start:update_stop]
            )
            self._link.charge_batch(Mechanism.UPDATE_SHIPPING, priced)
            # Each update was shipped to the replica the moment it arrived,
            # so the resident copy tracks the server version exactly: advance
            # each record by its update count (scalar mark_fresh semantics).
            unique_ids, counts = _np.unique(object_ids, return_counts=True)
            for object_id, count in zip(unique_ids.tolist(), counts.tolist()):
                record = store.get(object_id)
                if record is None:
                    raise KeyError(f"object {object_id} is not resident")
                record.version += count
        if query_count:
            offsets = columns.query_object_offsets
            flat_start = int(offsets[query_start])
            flat_stop = int(offsets[query_stop])
            touched = columns.query_object_ids[flat_start:flat_stop]
            per_query = _np.diff(offsets[query_start : query_stop + 1])
            touched_at = _np.repeat(
                columns.query_timestamps[query_start:query_stop], per_query
            )
            # Hits accumulate per touch; last_hit_at is the timestamp of the
            # *last* touching query in event order (timestamps may tie within
            # the trace's 1e-9 ordering tolerance, so order -- not max --
            # decides).  The first occurrence in the reversed arrays is the
            # last occurrence forward.
            reversed_ids = touched[::-1]
            unique_ids, first_reversed, counts = _np.unique(
                reversed_ids, return_index=True, return_counts=True
            )
            reversed_at = touched_at[::-1]
            for object_id, index, count in zip(
                unique_ids.tolist(), first_reversed.tolist(), counts.tolist()
            ):
                record = store.get(object_id)
                if record is None:
                    raise KeyError(f"object {object_id} is not resident")
                record.hits += count
                record.last_hit_at = float(reversed_at[index])
        self._policy.observer.note_batch(
            queries=query_count, updates=update_count, cache_answers=query_count
        )
        return query_count, 0


def select_batched_executor(
    policy: CachePolicy,
    trace: TraceStream,
    repository: Repository,
    link: NetworkLink,
) -> Optional[_BatchedExecutor]:
    """The batched executor for this run, or ``None`` to keep the per-event step.

    Eligibility is conservative on purpose; every condition protects a piece
    of scalar-path behaviour the batch cannot reproduce:

    * exact ``NoCachePolicy`` / ``ReplicaPolicy`` types (subclasses may
      override the per-event hooks),
    * a materialised :class:`Trace`/:class:`TraceView` (streams are replayed
      scalar so they keep their constant-memory guarantee),
    * a record-free link (per-transfer provenance needs per-event charging),
    * a history-free repository (the update log needs the update objects),
    * a cost model with a vectorised ``cost_array`` twin.
    """
    if not COLUMNS_AVAILABLE:
        return None
    executor_type = None
    if type(policy) is NoCachePolicy:
        executor_type = _NoCacheExecutor
    elif type(policy) is ReplicaPolicy:
        executor_type = _ReplicaExecutor
    if executor_type is None:
        return None
    if not isinstance(trace, (Trace, TraceView)):
        return None
    if link.keep_records or repository.keeps_update_log:
        return None
    if not hasattr(link.cost_model, "cost_array"):
        return None
    return executor_type(policy, trace.columns(), repository, link)
