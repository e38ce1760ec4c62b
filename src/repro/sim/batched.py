"""Batched (vectorised) replay of the three static decouplings.

The kernel's per-event step costs a few microseconds of Python dispatch
regardless of how trivial the policy's decision is.  The three yardsticks
are *static decouplings* -- a cached set chosen once and never changed:
NoCache caches nothing, Replica caches everything and SOptimal caches the
set its offline ``prepare`` picked.  With the set fixed, an update ships
exactly when its object is resident and a query is answered exactly when
every object it touches is resident, so the whole replay reduces to exact
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
  (:meth:`repro.network.link.NetworkLink.charge_batch`), one mechanism at a
  time in event order, and per-object float growth via unbuffered
  ``np.add.at``
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

from repro.core.policy import BaseCachePolicy, CachePolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.link import Mechanism, NetworkLink
from repro.repository.server import Repository
from repro.workload.columns import COLUMNS_AVAILABLE, TraceColumns
from repro.workload.trace import Trace, TraceStream, TraceView

try:  # pragma: no cover - exercised implicitly by every batched test
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None  # type: ignore[assignment]

__all__ = ["select_batched_executor"]

#: The policies whose resident set, once ``prepare`` has run, never changes.
_STATIC_DECOUPLINGS = (NoCachePolicy, ReplicaPolicy, SOptimalPolicy)


class _StaticSetExecutor:
    """One static decoupling's bookkeeping over event windows of the columns.

    The resident set is read once, here (the kernel builds the executor
    after ``prepare``), and turned into two fixed masks: which updates ship
    and which queries are answered at the cache.
    """

    def __init__(
        self,
        policy: BaseCachePolicy,
        columns: TraceColumns,
        repository: Repository,
        link: NetworkLink,
    ) -> None:
        self._policy = policy
        self._columns = columns
        self._repository = repository
        self._link = link
        store = policy.store
        resident = _np.fromiter(store, dtype=_np.int64, count=len(store))
        # A query is answered when every id of its footprint (never empty,
        # see Query) is resident; all-resident and none-resident skip the scan.
        in_set = _np.isin(columns.query_object_ids, resident)
        all_in = bool(in_set.all())
        if all_in or not in_set.any():
            self._answered = _np.full(columns.query_count, all_in)
        else:
            self._answered = _np.logical_and.reduceat(
                in_set, columns.query_object_offsets[:-1]
            )
        self._update_ships = _np.isin(columns.update_object_ids, resident)

    def process(self, start: int, stop: int) -> Tuple[int, int]:
        """Replay events ``[start, stop)``; returns (answered, shipped)."""
        columns = self._columns
        repository, link = self._repository, self._link
        update_start = int(columns.update_prefix[start])
        update_stop = int(columns.update_prefix[stop])
        query_start, query_stop = start - update_start, stop - update_stop
        if update_stop > update_start:
            object_ids = columns.update_object_ids[update_start:update_stop]
            costs = columns.update_costs[update_start:update_stop]
            repository.ingest_update_columns(
                object_ids, columns.update_rows[update_start:update_stop], costs
            )
            ships = self._update_ships[update_start:update_stop]
            if not ships.all():
                object_ids, costs = object_ids[ships], costs[ships]
            if len(object_ids):
                link.charge_batch(Mechanism.UPDATE_SHIPPING, link.cost_model.cost_array(costs))
                # Shipped on arrival: each touched copy is at the server version.
                store = self._policy.store
                for object_id in _np.unique(object_ids).tolist():
                    store.mark_fresh(object_id, repository.object_version(object_id))

        query_count = query_stop - query_start
        answered = self._answered[query_start:query_stop]
        answered_count = int(_np.count_nonzero(answered))
        shipped_count = query_count - answered_count
        offsets = columns.query_object_offsets
        flat_start, flat_stop = int(offsets[query_start]), int(offsets[query_stop])
        touched = columns.query_object_ids[flat_start:flat_stop]
        hit = None  # per touched id, whether its query is answered (mixed chunks)
        if answered_count:
            footprint = _np.diff(offsets[query_start : query_stop + 1])
            touched_at = _np.repeat(columns.query_timestamps[query_start:query_stop], footprint)
            if shipped_count:
                hit = _np.repeat(answered, footprint)
                self._record_hits(touched[hit], touched_at[hit])
            else:
                self._record_hits(touched, touched_at)
        if shipped_count:
            costs = columns.query_costs[query_start:query_stop]
            if hit is not None:
                touched = touched[~hit]
                costs = costs[~answered]
            repository.answer_query_batch(touched, shipped_count)
            link.charge_batch(Mechanism.QUERY_SHIPPING, link.cost_model.cost_array(costs))
        self._policy.observer.note_batch(
            queries=query_count,
            updates=update_stop - update_start,
            cache_answers=answered_count,
            shipped_queries=shipped_count,
        )
        return answered_count, shipped_count

    def _record_hits(self, object_ids: "_np.ndarray", timestamps: "_np.ndarray") -> None:
        """Book every touch of an answered query as a hit on its record.

        Hits accumulate per touch; ``last_hit_at`` is the timestamp of the
        *last* touching query in event order (timestamps may tie within the
        trace's 1e-9 ordering tolerance, so order -- not max -- decides).
        The first occurrence in the reversed arrays is the last forward.
        """
        unique_ids, first_reversed, counts = _np.unique(
            object_ids[::-1], return_index=True, return_counts=True
        )
        reversed_at = timestamps[::-1]
        store = self._policy.store
        for object_id, index, count in zip(
            unique_ids.tolist(), first_reversed.tolist(), counts.tolist()
        ):
            record = store.get(object_id)
            record.hits += count
            record.last_hit_at = float(reversed_at[index])


def select_batched_executor(
    policy: CachePolicy,
    trace: TraceStream,
    repository: Repository,
    link: NetworkLink,
) -> Optional[_StaticSetExecutor]:
    """The batched executor for this run, or ``None`` to keep the per-event step.

    Call it after ``prepare``: the executor replays the resident set it finds.
    Eligibility is conservative on purpose; every condition protects a piece
    of scalar-path behaviour the batch cannot reproduce:

    * exact ``NoCachePolicy`` / ``ReplicaPolicy`` / ``SOptimalPolicy`` types
      (subclasses may override the per-event hooks or change residency),
    * a materialised :class:`Trace`/:class:`TraceView` (streams are replayed
      scalar so they keep their constant-memory guarantee),
    * a record-free link (per-transfer provenance needs per-event charging),
    * a history-free repository (the update log needs the update objects),
    * a cost model with a vectorised ``cost_array`` twin.
    """
    if not COLUMNS_AVAILABLE or type(policy) not in _STATIC_DECOUPLINGS:
        return None
    if not isinstance(trace, (Trace, TraceView)):
        return None
    if link.keep_records or repository.keeps_update_log:
        return None
    if not hasattr(link.cost_model, "cost_array"):
        return None
    return _StaticSetExecutor(policy, trace.columns(), repository, link)
