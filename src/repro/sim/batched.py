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
the same code at the same event indices.  The unit of work is the
*decision stretch*, from run start or any window edge to the next edge or
end-of-run: its first chunk replays all of it once (one update ingest,
every site's masks, hits, credit and one running-total fold per shipping
mechanism), and each chunk only advances the link totals and counters to
their prefix values at ``stop``.  Each object sits at its catalogue
position, compiled once per trace
(:meth:`repro.workload.columns.TraceColumns.positions`), so every per-object
fold of a stretch (ingest, ``mark_fresh``, hits, credit) is O(events) with
no sort: ``bincount``, unbuffered ``np.add.at`` or ``np.maximum.at`` over
the positions plus the unknown-id slot.  A site whose window ends at
``stop`` closes it there through
:meth:`repro.core.benefit.BenefitPolicy.close_window` with the sums the
stretches folded, and its resident set is read again.
Within a stretch the bookkeeping is bit-exact by construction: integer
counters advance by exact integer sums; float traffic totals are folded
left-to-right via ``cumsum`` (:meth:`repro.network.link.NetworkLink.fold`),
one mechanism at a time in event order, and each prefix of that fold is the
fold of the prefix; per-object float sums -- growth
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
from repro.core.policy import BaseCachePolicy, fold_credit
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
    ``positions`` and ``mine``, the queries routed here (``None`` for a
    single cache, a fleet of one that keeps the trace's own arrays).
    ``resident`` masks positions (plus the never-resident slot of unknown
    ids); a Benefit site's window closes after each event index in ``edges``
    and ``sums`` query share and update cost per position
    (:func:`repro.core.policy.fold_credit`).  The open stretch starts at
    site query ``first``; ``answered``/``ships`` prefix-count its answered
    queries/shipped updates, ``folds`` holds the running link totals and
    ``done`` the (answered, shipped, updates shipped) already charged.
    """

    __slots__ = (
        "policy", "link", "index", "costs", "timestamps", "totals", "object_ids",
        "positions", "offsets", "resident", "edges", "cursor", "sums",
        "first", "answered", "ships", "folds", "done",
    )  # fmt: skip

    def __init__(
        self, policy: BaseCachePolicy, link: NetworkLink, columns: TraceColumns,
        positions: "np.ndarray", totals: Optional["np.ndarray"], mine: Optional["np.ndarray"]
    ) -> None:  # fmt: skip
        self.policy, self.link, self.resident = policy, link, policy.resident_mask()
        footprint = np.diff(columns.query_object_offsets)
        own_events = np.ones(len(columns), dtype=bool)
        queries = touches = slice(None)  # a fleet of one: views, not copies
        self.index = np.arange(columns.query_count)
        if mine is not None:
            queries, touches, self.index = mine, np.repeat(mine, footprint), np.flatnonzero(mine)
            own_events[~columns.is_update] = mine
        self.costs = columns.query_costs[queries]
        self.timestamps = columns.query_timestamps[queries]
        self.totals = None if totals is None else totals[queries]
        self.object_ids, self.positions = columns.query_object_ids[touches], positions[touches]
        self.offsets = np.concatenate(([0], np.cumsum(footprint[queries])))
        self.edges, self.cursor = [], 0
        self.sums = None
        if type(policy) is BenefitPolicy:
            window = policy.config.window_size
            self.edges = (np.flatnonzero(own_events)[window - 1 :: window] + 1).tolist()
            self.sums = np.zeros((2, len(self.resident)))

    def advance(self, updates: int, query_stop: int) -> Tuple[int, int]:
        """Charge the stretch to its update ``updates`` and trace query ``query_stop``.

        Returns the (answered, shipped) queries this adds.
        """
        queries = int(self.index.searchsorted(query_stop)) - self.first
        answered = int(self.answered[queries])
        done = (answered, queries - answered, int(self.ships[updates]))
        (query_fold, update_fold), before = self.folds, self.done
        self.link.charge_folded(Mechanism.QUERY_SHIPPING, query_fold, before[1], done[1])
        self.link.charge_folded(Mechanism.UPDATE_SHIPPING, update_fold, before[2], done[2])
        self.done = done
        return answered - before[0], done[1] - before[1]


class _BatchedExecutor:
    """Every site's bookkeeping over the decision stretches of the columns.

    Built by the kernel after ``prepare`` over policies fresh for this run (a
    Benefit window opens at its first event); it reads each resident set
    there and again after every window the site closes.
    """

    def __init__(
        self, policies: Sequence[BaseCachePolicy], links: Sequence[NetworkLink],
        columns: TraceColumns, repository: Repository, routes: Optional["np.ndarray"]
    ) -> None:  # fmt: skip
        self._columns, self._repository = columns, repository
        catalog = repository.catalog
        self._catalog_ids = np.array(catalog.object_ids, dtype=np.int64)
        self._update_positions, positions = columns.positions(catalog)
        windowed = [policy for policy in policies if type(policy) is BenefitPolicy]
        totals = self._share_weights = None
        if windowed:  # the share rule's weights and denominators, once per run
            totals = columns.per_query(windowed[0].share_total)
            self._share_weights = windowed[0].share_weights()
        self._sites = [
            _Site(
                policy, link, columns, positions, totals,
                None if routes is None else routes == site,
            )  # fmt: skip
            for site, (policy, link) in enumerate(zip(policies, links, strict=True))
        ]
        # The open stretch: its first update and its end (none open yet).
        self._update_base = self._stretch_stop = 0

    def next_edge(self) -> int:
        """The first window edge still ahead: no chunk may run past it."""
        return min(
            (site.edges[site.cursor] for site in self._sites if site.cursor < len(site.edges)),
            default=len(self._columns),
        )

    def process(self, start: int, stop: int) -> List[Tuple[int, int]]:
        """Replay events ``[start, stop)``; returns (answered, shipped) per site.

        ``stop`` must not lie past :meth:`next_edge`.  A chunk that starts a
        stretch replays all of it first; every window that ends at ``stop``
        is closed, in site order, before this returns.
        """
        if start == self._stretch_stop:
            self._open_stretch(start, self.next_edge())
        update_stop = int(self._columns.update_prefix[stop])
        updates, query_stop = update_stop - self._update_base, stop - update_stop
        counts = [site.advance(updates, query_stop) for site in self._sites]
        for site in self._sites:
            if site.cursor < len(site.edges) and site.edges[site.cursor] == stop:
                site.cursor += 1
                self._end_window(site, float(self._columns.timestamps[stop - 1]))
        return counts

    def _open_stretch(self, start: int, stop: int) -> None:
        """Ingest the stretch's updates once, then replay it at every site."""
        columns = self._columns
        update_start = int(columns.update_prefix[start])
        update_stop = int(columns.update_prefix[stop])
        updates = slice(update_start, update_stop)
        if update_stop > update_start:
            self._repository.ingest_update_columns(
                columns.update_object_ids[updates], columns.update_rows[updates],
                columns.update_costs[updates],
            )  # fmt: skip
        self._update_base, self._stretch_stop = update_start, stop
        for site in self._sites:
            self._replay(site, updates, start - update_start, stop - update_stop)

    def _replay(self, site: _Site, updates: slice, first: int, last: int) -> None:
        """One site's whole stretch: its updates shipped, its queries answered.

        Books every store, repository and observer effect and folds both
        shipping mechanisms' link totals; :meth:`_Site.advance` charges them.
        """
        columns, repository, link = self._columns, self._repository, site.link
        store = site.policy.store
        update_positions = self._update_positions[updates]
        update_costs = columns.update_costs[updates]
        ships = site.resident[update_positions]
        # Shipped on arrival: each touched copy is at the server version.
        shipped = np.bincount(update_positions[ships], minlength=len(site.resident))
        for object_id in self._catalog_ids[np.flatnonzero(shipped)].tolist():
            store.mark_fresh(object_id, repository.object_version(object_id))

        # The stretch's queries, renumbered among the site's.
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
        hit = None  # per touch, whether its query is answered (mixed stretches)
        if answered_count:
            touched_at = np.repeat(site.timestamps[first:last], footprint)
            if shipped_count:
                hit = np.repeat(answered, footprint)
                self._record_hits(store, positions[hit], touched_at[hit])
            else:
                self._record_hits(store, positions, touched_at)
        if shipped_count:
            # Unknown ids sit in the never-resident slot: only shipped queries hold them.
            unknown = positions == len(self._catalog_ids)
            repository.answer_query_batch(
                site.object_ids[flat_start:flat_stop][unknown], shipped_count
            )
        cost_array = link.cost_model.cost_array
        site.folds = (
            link.fold(Mechanism.QUERY_SHIPPING, cost_array(site.costs[first:last][~answered])),
            link.fold(Mechanism.UPDATE_SHIPPING, cost_array(update_costs[ships])),
        )
        site.first, site.done = first, (0, 0, 0)
        site.answered = np.concatenate(([0], np.cumsum(answered)))
        site.ships = np.concatenate(([0], np.cumsum(ships)))
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

    def _end_window(self, site: _Site, now: float) -> None:
        """Hand the site its window's sums, then re-read its resident set."""
        site.policy.close_window(*site.sums[:, :-1], now)
        site.sums.fill(0.0)
        site.resident = site.policy.resident_mask()

    def _record_hits(
        self, store: CacheStore, positions: "np.ndarray", timestamps: "np.ndarray"
    ) -> None:
        """Book every touch of an answered query as a hit on its record.

        Hits accumulate per touch; ``last_hit_at`` is the timestamp of the
        *last* touching query in event order (timestamps may tie within the
        trace's 1e-9 ordering tolerance, so order -- not max -- decides).
        """
        hits = np.bincount(positions, minlength=len(self._catalog_ids) + 1)
        last = np.zeros(len(hits), dtype=np.int64)
        np.maximum.at(last, positions, np.arange(len(positions)))
        booked = np.flatnonzero(hits)
        for object_id, count, at in zip(
            self._catalog_ids[booked].tolist(), hits[booked].tolist(),
            timestamps[last[booked]].tolist(),
        ):  # fmt: skip
            record = store.get(object_id)
            record.hits += count
            record.last_hit_at = at


def select_batched_executor(
    policies: Sequence[BaseCachePolicy],
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
    memory); cost models with a vectorised ``cost_array`` twin.
    """
    if any(type(policy) not in _BATCHABLE for policy in policies):
        return None
    if route is not None and not isinstance(route, TracePartitioner):
        return None
    if not isinstance(trace, (Trace, TraceView)):
        return None
    if any(not hasattr(link.cost_model, "cost_array") for link in links):
        return None
    columns = trace.columns()
    routes = None if route is None else route.sites_of_queries(columns)
    return _BatchedExecutor(policies, links, columns, repository, routes)
