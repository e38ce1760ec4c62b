"""Batched (vectorised) replay of every eager site between its decision points.

The kernel's per-event step costs a few microseconds of Python dispatch
regardless of how trivial the policy's decision is.  Between two decision
points an eager policy is a *static decoupling*: an update ships exactly
when its object is resident and a query is answered exactly when every
object it touches is.  NoCache, Replica and SOptimal have no decision point
after ``prepare``; Benefit has one, its *window edge*, after every
``window_size`` of its own events (every broadcast update plus the queries
routed to it).  Between edges the replay of one cache or of a routed fleet
is exact bookkeeping arithmetic, done here on whole event batches of the
columnar trace compilation (:meth:`repro.workload.trace.Trace.columns`).

An executor owns no loop: :meth:`repro.sim.engine.ReplayKernel.run` walks the
sampling grid and hands each chunk (cut at grid edges, ``measure_from``,
end-of-run and :meth:`_BatchedExecutor.next_edge`) to ``process(start,
stop)`` in place of one ``step`` per event, so every observable comes from
the same code at the same event indices.  A site whose window ends at
``stop`` closes it there through
:meth:`repro.core.benefit.BenefitPolicy.close_window` with the sums the
batches folded, and its resident set is read again.  Within a batch the
bookkeeping is bit-exact by construction: integer counters advance by exact
integer sums; float traffic totals are folded left-to-right via ``cumsum``
(:meth:`repro.network.link.NetworkLink.charge_batch`), one mechanism at a
time in event order; per-object float sums -- growth
(:meth:`repro.repository.server.Repository.ingest_update_columns`) and
Benefit's window credit (:func:`repro.core.policy.fold_credit`) -- go
through unbuffered ``np.add.at`` in event order.  A share's ``total`` is the
one sum numpy cannot reproduce (``reduceat`` sums pairwise, CPython >= 3.12
compensates ``sum``), so :meth:`repro.core.policy.BaseCachePolicy.share_total`
evaluates it once per footprint per run (``TraceColumns.per_query``).  The
determinism fixtures pin the batched path byte-for-byte against the scalar
one; the kernel asks for an executor only when no ``on_decision`` observer
is attached, and :func:`select_batched_executor` is deliberately conservative.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.store import CacheStore
from repro.core.benefit import BenefitPolicy
from repro.core.policy import BaseCachePolicy, CachePolicy, catalog_positions, fold_credit
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.link import Mechanism, NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.workload.columns import TraceColumns
from repro.workload.partition import TracePartitioner
from repro.workload.trace import Trace, TraceStream, TraceView

__all__ = ["select_batched_executor"]

#: The eager policies the executor replays; Benefit is the one with windows.
_BATCHABLE = (NoCachePolicy, ReplicaPolicy, SOptimalPolicy, BenefitPolicy)


class _Site:
    """One site's queries (its own CSR, in event order) and replay state.

    Built from the whole trace's per-query ``totals`` and per-touch catalogue
    ``positions`` and ``mine``, the queries routed here (a single cache is a
    fleet of one: all of them).  ``resident`` masks positions (plus the
    never-resident slot of unknown ids); a Benefit site's window closes after
    each event index in ``edges`` and ``sums`` query share and update cost
    per position (:func:`repro.core.policy.fold_credit`).
    """

    __slots__ = (
        "policy", "link", "index", "costs", "timestamps", "totals", "object_ids",
        "positions", "offsets", "resident", "edges", "cursor", "sums",
    )  # fmt: skip

    def __init__(
        self, policy: BaseCachePolicy, link: NetworkLink, resident: "np.ndarray",
        columns: TraceColumns, positions: "np.ndarray", totals: Optional["np.ndarray"],
        mine: "np.ndarray"
    ) -> None:  # fmt: skip
        self.policy, self.link, self.resident = policy, link, resident
        footprint = np.diff(columns.query_object_offsets)
        touches = np.repeat(mine, footprint)
        self.costs, self.timestamps = columns.query_costs[mine], columns.query_timestamps[mine]
        self.totals = None if totals is None else totals[mine]
        self.object_ids, self.positions = columns.query_object_ids[touches], positions[touches]
        self.index = np.flatnonzero(mine)
        self.offsets = np.concatenate(([0], np.cumsum(footprint[mine])))
        self.edges, self.cursor = [], 0
        self.sums = None
        if type(policy) is BenefitPolicy:
            own_events = np.ones(len(columns), dtype=bool)
            own_events[~columns.is_update] = mine
            window = policy.config.window_size
            self.edges = (np.flatnonzero(own_events)[window - 1 :: window] + 1).tolist()
            self.sums = np.zeros((2, len(resident)))


class _BatchedExecutor:
    """Every site's bookkeeping over event windows of the columns.

    Built by the kernel after ``prepare`` over policies fresh for this run (a
    Benefit window opens at its first event); it reads each resident set
    there and again after every window the site closes.
    """

    def __init__(
        self, policies: Sequence[BaseCachePolicy], links: Sequence[NetworkLink],
        trace: TraceStream, repository: Repository, routes: "np.ndarray"
    ) -> None:  # fmt: skip
        columns = trace.columns()
        self._columns, self._repository = columns, repository
        catalog_ids = np.array(sorted(repository.catalog.object_ids), dtype=np.int64)
        self._catalog_ids = catalog_ids
        self._update_positions = catalog_positions(catalog_ids, columns.update_object_ids)
        positions = catalog_positions(catalog_ids, columns.query_object_ids)
        windowed = [policy for policy in policies if type(policy) is BenefitPolicy]
        totals = self._share_weights = None
        if windowed:  # the share rule's weights and denominators, once per run
            totals = columns.per_query(windowed[0].share_total)
            self._share_weights = windowed[0].share_weights(catalog_ids)
        self._sites = [
            _Site(
                policy, link, self._resident_mask(policy.store), columns, positions, totals,
                routes == number,
            )
            for number, (policy, link) in enumerate(zip(policies, links, strict=True))
        ]

    def next_edge(self) -> int:
        """The first window edge still ahead: no chunk may run past it."""
        return min(
            (site.edges[site.cursor] for site in self._sites if site.cursor < len(site.edges)),
            default=len(self._columns),
        )

    def process(self, start: int, stop: int) -> List[Tuple[int, int]]:
        """Replay events ``[start, stop)``; returns (answered, shipped) per site.

        ``stop`` must not lie past :meth:`next_edge`; every window that ends
        at ``stop`` is closed, in site order, before this returns.
        """
        columns = self._columns
        update_start = int(columns.update_prefix[start])
        update_stop = int(columns.update_prefix[stop])
        updates = slice(update_start, update_stop)
        if update_stop > update_start:
            self._repository.ingest_update_columns(
                columns.update_object_ids[updates], columns.update_rows[updates],
                columns.update_costs[updates],
            )  # fmt: skip
        queries = (start - update_start, stop - update_stop)
        counts = [self._replay(site, updates, *queries) for site in self._sites]
        for site in self._sites:
            if site.cursor < len(site.edges) and site.edges[site.cursor] == stop:
                site.cursor += 1
                self._end_window(site, float(columns.timestamps[stop - 1]))
        return counts

    def _replay(self, site: _Site, updates: slice, first: int, last: int) -> Tuple[int, int]:
        """One site's share of a chunk: its updates shipped, its queries answered."""
        columns, repository, link = self._columns, self._repository, site.link
        store = site.policy.store
        update_positions = self._update_positions[updates]
        update_costs = columns.update_costs[updates]
        if updates.stop > updates.start:
            ships = site.resident[update_positions]
            if ships.any():
                costs = link.cost_model.cost_array(update_costs[ships])
                link.charge_batch(Mechanism.UPDATE_SHIPPING, costs)
                # Shipped on arrival: each touched copy is at the server version.
                for object_id in np.unique(columns.update_object_ids[updates][ships]).tolist():
                    store.mark_fresh(object_id, repository.object_version(object_id))

        # The chunk's queries, renumbered among the site's.
        first, last = site.index.searchsorted((first, last)).tolist()
        offsets = site.offsets
        flat_start, flat_stop = int(offsets[first]), int(offsets[last])
        positions = site.positions[flat_start:flat_stop]
        in_set = site.resident[positions]
        resident_touches = int(np.count_nonzero(in_set))
        # A query is answered when every id of its footprint (never empty,
        # see Query) is resident; all-resident and none-resident skip the scan.
        if resident_touches in (0, len(in_set)):
            answered = np.full(last - first, resident_touches > 0)
        else:
            answered = np.logical_and.reduceat(in_set, offsets[first:last] - flat_start)
        answered_count = int(np.count_nonzero(answered))
        shipped_count = last - first - answered_count
        footprint = np.diff(offsets[first : last + 1])
        touched = site.object_ids[flat_start:flat_stop]
        hit = None  # per touched id, whether its query is answered (mixed chunks)
        if answered_count:
            touched_at = np.repeat(site.timestamps[first:last], footprint)
            if shipped_count:
                hit = np.repeat(answered, footprint)
                self._record_hits(store, touched[hit], touched_at[hit])
            else:
                self._record_hits(store, touched, touched_at)
        if shipped_count:
            costs = site.costs[first:last]
            if hit is not None:
                touched, costs = touched[~hit], costs[~answered]
            repository.answer_query_batch(touched, shipped_count)
            link.charge_batch(Mechanism.QUERY_SHIPPING, link.cost_model.cost_array(costs))
        if site.sums is not None:
            # Benefit's credit: every id of an answered query, the missing
            # ids of a shipped one (BenefitPolicy.on_query).
            credit = (np.repeat(answered, footprint) if hit is None else hit) | ~in_set
            fold_credit(
                site.sums, self._share_weights, update_positions, update_costs, positions,
                site.costs[first:last], site.totals[first:last], footprint, credit,
            )  # fmt: skip
        site.policy.observer.note_batch(
            queries=last - first,
            updates=updates.stop - updates.start,
            cache_answers=answered_count,
            shipped_queries=shipped_count,
        )
        return answered_count, shipped_count

    def _end_window(self, site: _Site, now: float) -> None:
        """Hand the site its window's sums, then re-read its resident set."""
        object_ids = self._catalog_ids.tolist()
        site.policy.close_window(
            *(dict(zip(object_ids, row[:-1].tolist(), strict=True)) for row in site.sums), now
        )
        site.sums.fill(0.0)
        site.resident = self._resident_mask(site.policy.store)

    def _resident_mask(self, store: CacheStore) -> "np.ndarray":
        resident = np.zeros(len(self._catalog_ids) + 1, dtype=bool)
        ids = np.fromiter(store, dtype=np.int64, count=len(store))
        resident[catalog_positions(self._catalog_ids, ids)] = True
        return resident

    @staticmethod
    def _record_hits(
        store: CacheStore, object_ids: "np.ndarray", timestamps: "np.ndarray"
    ) -> None:
        """Book every touch of an answered query as a hit on its record.

        Hits accumulate per touch; ``last_hit_at`` is the timestamp of the
        *last* touching query in event order (timestamps may tie within the
        trace's 1e-9 ordering tolerance, so order -- not max -- decides).
        The first occurrence in the reversed arrays is the last forward.
        """
        unique_ids, first_reversed, counts = np.unique(
            object_ids[::-1], return_index=True, return_counts=True
        )
        reversed_at = timestamps[::-1]
        for object_id, index, count in zip(
            unique_ids.tolist(), first_reversed.tolist(), counts.tolist()
        ):
            record = store.get(object_id)
            record.hits += count
            record.last_hit_at = float(reversed_at[index])


def select_batched_executor(
    policies: Sequence[CachePolicy],
    trace: TraceStream,
    repository: Repository,
    links: Sequence[NetworkLink],
    route: Optional[Callable[[Query], int]] = None,
) -> Optional[_BatchedExecutor]:
    """The batched executor for this run, or ``None`` to keep the per-event step.

    Call it after ``prepare``.  Every condition protects scalar behaviour the
    batch cannot reproduce: every site an *exact* NoCache / Replica /
    SOptimal / Benefit (a subclass may override hooks or residency); no
    router or a :class:`TracePartitioner` (any other callable is opaque); a
    materialised :class:`Trace`/:class:`TraceView` (streams keep constant
    memory); record-free links (per-transfer provenance); a history-free
    repository (the update log needs the update objects); cost models with a
    vectorised ``cost_array`` twin.
    """
    if any(type(policy) not in _BATCHABLE for policy in policies):
        return None
    if route is not None and not isinstance(route, TracePartitioner):
        return None
    if not isinstance(trace, (Trace, TraceView)) or repository.keeps_update_log:
        return None
    if any(link.keep_records or not hasattr(link.cost_model, "cost_array") for link in links):
        return None
    columns = trace.columns()
    if route is None:  # one cache: a fleet of one, every query routed to it
        routes = np.zeros(columns.query_count, dtype=np.int64)
    else:
        routes = route.sites_of_queries(columns)
    return _BatchedExecutor(policies, links, trace, repository, routes)
