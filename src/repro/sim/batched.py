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
the same code at the same event indices.  The unit of work is a site's own
*decision stretch*, from run start or its window edge to its next edge or
end-of-run: the chunk that enters it replays all of it once (the site's
masks, hits, credit and one running-total fold per shipping mechanism), and
each chunk only advances the link totals and counters to their prefix
values at ``stop``.  Where stretches end, the repository ingests the
updates up to there (one call, whatever the number of sites) and a Benefit
site closes its window through
:meth:`repro.core.benefit.BenefitPolicy.close_window`, which returns its
next resident set; at end-of-run every copy left takes the server version
(it shipped each update on arrival) and the hits its site tallied for it.
Each object sits at its catalogue position, compiled once per trace
(:meth:`repro.workload.columns.TraceColumns.positions`), so every per-object
fold is O(events) with no sort: ``bincount``, unbuffered ``np.add.at`` or
``np.maximum.at`` over the positions plus the unknown-id slot.  Within a
stretch the bookkeeping is bit-exact by construction: integer counters
advance by exact integer sums; float traffic totals are folded
left-to-right via ``cumsum`` (:meth:`repro.network.link.NetworkLink.fold`),
one mechanism at a time in event order, and each prefix of that fold is the
fold of the prefix; per-object float sums -- growth
(:meth:`repro.repository.server.Repository.ingest_update_columns`) and
Benefit's window credit (:func:`repro.core.policy.share_terms`, one
``bincount`` from zero per window) -- add in event order.  A share's
``total`` is the one sum numpy cannot reproduce (``reduceat`` sums pairwise,
CPython >= 3.12 compensates ``sum``), so
:meth:`repro.core.policy.BaseCachePolicy.share_total` evaluates it once per
footprint per run (``TraceColumns.per_query``).  The determinism fixtures
pin the batched path byte-for-byte against the scalar one; the kernel asks
for an executor only when no ``on_decision`` observer is attached, and
:func:`select_batched_executor` is deliberately conservative.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.benefit import BenefitPolicy
from repro.core.policy import BaseCachePolicy, share_terms
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

    ``mine`` holds the trace query numbers routed here, their touch numbers
    and their event numbers (``None`` for a single cache, a fleet of one that
    keeps the trace's own CSR).  ``prices`` (its priced query and update
    costs) and a Benefit site's ``shares`` (:meth:`_BatchedExecutor._shares`)
    are built on first use.  ``resident`` masks positions (plus the
    never-resident slot of unknown ids); ``hits`` tallies each position's
    cache hits and its last hit's site touch number for the records, which
    take them at end-of-run (a close clears an evicted copy's).  A Benefit
    window closes after each event index in ``edges``.  The open stretch
    ends at ``stop`` and starts at site query ``first`` and trace update
    ``update_base``; ``answered`` / ``ships`` mark its answered queries and
    shipped updates, ``folds`` holds the running link totals, ``done`` the
    (queries, answered, updates, shipped) charged, and ``sums`` the credit
    of a window that ends there.
    """

    __slots__ = (
        "policy", "link", "index", "positions", "footprint", "offsets", "resident",
        "hits", "edges", "cursor", "stop", "prices", "shares", "sums",
        "update_base", "first", "answered", "ships", "folds", "done",
    )  # fmt: skip

    def __init__(
        self, policy: BaseCachePolicy, link: NetworkLink, columns: TraceColumns,
        positions: "np.ndarray", footprint: "np.ndarray", mine: Optional[Tuple["np.ndarray", ...]]
    ) -> None:  # fmt: skip
        self.policy, self.link, self.resident = policy, link, policy.resident_mask()
        self.hits = np.zeros((2, len(self.resident)), dtype=np.int64)
        self.edges, self.cursor, self.stop = [], 0, 0
        self.prices = self.shares = self.sums = None
        window = policy.config.window_size if type(policy) is BenefitPolicy else 0
        if mine is None:
            self.index, self.offsets = np.arange(len(footprint)), columns.query_object_offsets
            self.positions, self.footprint = positions, footprint
            if window:
                self.edges = list(range(window, len(columns) + 1, window))
            return
        self.index, touches, events = mine
        self.positions, self.footprint = positions[touches], footprint[self.index]
        self.offsets = np.concatenate(([0], np.cumsum(self.footprint)))
        if window:  # its own events: every update and its queries
            own = columns.is_update.copy()
            own[events] = True
            self.edges = (np.flatnonzero(own)[window - 1 :: window] + 1).tolist()

    def advance(self, update_stop: int, query_stop: int) -> Tuple[int, int]:
        """Charge the stretch to trace update ``update_stop`` and query ``query_stop``.

        Returns the (answered, shipped) queries this adds.
        """
        queries = int(self.index.searchsorted(query_stop)) - self.first
        updates = update_stop - self.update_base
        seen, answered_before, seen_updates, ships_before = self.done
        answered = answered_before + int(np.count_nonzero(self.answered[seen:queries]))
        ships = ships_before + int(np.count_nonzero(self.ships[seen_updates:updates]))
        (query_fold, update_fold), shipped_before = self.folds, seen - answered_before
        self.link.charge_folded(
            Mechanism.QUERY_SHIPPING, query_fold, shipped_before, queries - answered
        )
        self.link.charge_folded(Mechanism.UPDATE_SHIPPING, update_fold, ships_before, ships)
        self.done = (queries, answered, updates, ships)
        return answered - answered_before, queries - answered - shipped_before


class _BatchedExecutor:
    """Every site's bookkeeping over its own decision stretches of the columns.

    Built by the kernel after ``prepare`` over policies fresh for this run (a
    Benefit window opens at its first event); it reads each resident set
    there and takes the one each window close leaves.
    """

    def __init__(
        self, policies: Sequence[BaseCachePolicy], links: Sequence[NetworkLink],
        columns: TraceColumns, repository: Repository, routes: Optional["np.ndarray"]
    ) -> None:  # fmt: skip
        self._columns, self._repository = columns, repository
        catalog = repository.catalog
        self._catalog_ids = np.array(catalog.object_ids, dtype=np.int64)
        self._update_positions, positions = columns.positions(catalog)
        # An unknown id is never resident, so its query ships; the repository
        # refuses it (answer_query_batch), so check every touch up front.
        if positions.max(initial=0) == len(catalog):
            unknown = columns.query_object_ids[positions == len(catalog)]
            repository.answer_query_batch(unknown, 0)
        self._totals, self._ingested = None, 0
        footprint, mine = np.diff(columns.query_object_offsets), [None] * len(policies)
        if routes is not None:  # each site's queries, their touches and events
            touch_routes = np.repeat(routes, footprint)
            events = np.flatnonzero(~columns.is_update)
            queries = [np.flatnonzero(routes == site) for site in range(len(policies))]
            mine = [
                (index, np.flatnonzero(touch_routes == site), events[index])
                for site, index in enumerate(queries)
            ]
        self._sites = [
            _Site(policy, link, columns, positions, footprint, site_mine)
            for policy, link, site_mine in zip(policies, links, mine, strict=True)
        ]

    def next_edge(self) -> int:
        """The first window edge still ahead: no chunk may run past it."""
        return min(
            (site.edges[site.cursor] for site in self._sites if site.cursor < len(site.edges)),
            default=len(self._columns),
        )

    def process(self, start: int, stop: int) -> List[Tuple[int, int]]:
        """Replay events ``[start, stop)``; returns (answered, shipped) per site.

        ``stop`` must not lie past :meth:`next_edge`.  A site whose stretch
        starts at ``start`` replays all of it first.  Where stretches end at
        ``stop`` the repository ingests up to it, then each window that ends
        there is closed, in site order.
        """
        columns, repository = self._columns, self._repository
        for site in self._sites:
            if site.stop == start:
                edges, cursor = site.edges, site.cursor
                self._replay(site, start, edges[cursor] if cursor < len(edges) else len(columns))
        update_stop = int(columns.update_prefix[stop])
        counts = [site.advance(update_stop, stop - update_stop) for site in self._sites]
        ending = [site for site in self._sites if site.stop == stop]
        if ending and update_stop > self._ingested:
            updates = slice(self._ingested, update_stop)
            repository.ingest_update_columns(
                columns.update_object_ids[updates], columns.update_rows[updates],
                columns.update_costs[updates],
            )  # fmt: skip
            self._ingested = update_stop
        for site in ending:
            if site.cursor < len(site.edges):
                site.cursor += 1
                resident = site.policy.close_window(*site.sums, float(columns.timestamps[stop - 1]))
                site.hits[:, site.resident & ~resident] = 0
                site.resident = resident
            if stop == len(columns):
                self._finish(site)
        return counts

    def _replay(self, site: _Site, start: int, stop: int) -> None:
        """One site's whole stretch: its updates shipped, its queries answered.

        Books every repository and observer effect, tallies the hits and folds
        both shipping mechanisms' link totals; :meth:`_Site.advance` charges them.
        A stretch that ends at a window edge also sums the window's credit.
        """
        columns, link, resident = self._columns, site.link, site.resident
        if site.prices is None:
            cost_array = link.cost_model.cost_array
            site.prices = (
                cost_array(columns.query_costs[site.index]), cost_array(columns.update_costs)
            )  # fmt: skip
        update_start = int(columns.update_prefix[start])
        update_stop = int(columns.update_prefix[stop])
        update_positions = self._update_positions[update_start:update_stop]
        ships = resident[update_positions]

        # The stretch's queries, renumbered among the site's.
        first, last = site.index.searchsorted(
            (start - update_start, stop - update_stop)
        ).tolist()  # fmt: skip
        flat_start, flat_stop = int(site.offsets[first]), int(site.offsets[last])
        positions = site.positions[flat_start:flat_stop]
        in_set = resident[positions]
        resident_touches = int(np.count_nonzero(in_set))
        # A query is answered when every id of its footprint (never empty,
        # see Query) is resident; all-resident and none-resident skip the scan.
        if resident_touches in (0, len(in_set)):
            answered = np.full(last - first, resident_touches > 0)
        else:
            answered = np.logical_and.reduceat(in_set, site.offsets[first:last] - flat_start)
        answered_count = int(np.count_nonzero(answered))
        shipped_count = last - first - answered_count
        hit = None  # per touch, whether its query is answered (mixed stretches)
        if answered_count:
            touches, booked = np.arange(flat_start, flat_stop), positions
            if shipped_count:
                hit = np.repeat(answered, site.footprint[first:last])
                touches, booked = touches[hit], positions[hit]
            site.hits[0] += np.bincount(booked, minlength=len(resident))
            np.maximum.at(site.hits[1], booked, touches)
        if shipped_count:
            self._repository.answer_query_batch(columns.query_object_ids[:0], shipped_count)
        query_prices = site.prices[0][first:last]
        site.folds = (
            link.fold(
                Mechanism.QUERY_SHIPPING,
                query_prices[~answered] if answered_count else query_prices,
            ),
            link.fold(Mechanism.UPDATE_SHIPPING, site.prices[1][update_start:update_stop][ships]),
        )
        site.stop, site.update_base, site.first = stop, update_start, first
        site.answered, site.ships, site.done = answered, ships, (0, 0, 0, 0)
        if site.cursor < len(site.edges):
            # Benefit's credit: every id of an answered query, the missing
            # ids of a shipped one (BenefitPolicy.on_query), summed per
            # position in event order as its hooks add them.
            if site.shares is None:
                site.shares = self._shares(site)
            weights, costs, totals = site.shares
            shares = share_terms(
                weights, positions, costs[first:last], totals[first:last],
                site.footprint[first:last],
            )  # fmt: skip
            credit = slice(None)
            if shipped_count:
                credit = ~in_set if hit is None else hit | ~in_set
            slots = len(resident)
            site.sums = (
                np.bincount(positions[credit], shares[credit], slots)[:-1],
                np.bincount(update_positions, columns.update_costs[update_start:update_stop],
                            slots)[:-1],
            )  # fmt: skip
        site.policy.observer.note_batch(
            queries=last - first,
            updates=update_stop - update_start,
            cache_answers=answered_count,
            shipped_queries=shipped_count,
        )

    def _shares(self, site: _Site) -> Tuple["np.ndarray", ...]:
        """The share rule's weights, and the site's query costs and denominators."""
        policy, columns = site.policy, self._columns
        if self._totals is None:  # the denominators, once per run
            self._totals = columns.per_query(policy.share_total)
        return policy.share_weights(), columns.query_costs[site.index], self._totals[site.index]

    def _finish(self, site: _Site) -> None:
        """Bring the copies left at end-of-run to the server versions and book their hits.

        A copy ships every update on arrival while resident.  ``last_hit_at``
        is the timestamp of the *last* touching query in event order
        (timestamps may tie within the trace's 1e-9 ordering tolerance, so
        order -- not max -- decides).
        """
        store, repository = site.policy.store, self._repository
        for object_id in store:
            store.mark_fresh(object_id, repository.object_version(object_id))
        (hits, last), booked = site.hits, np.flatnonzero(site.hits[0])
        queries = site.index[site.offsets.searchsorted(last[booked], side="right") - 1]
        for object_id, count, at in zip(
            self._catalog_ids[booked].tolist(), hits[booked].tolist(),
            self._columns.query_timestamps[queries].tolist(), strict=True,
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
    routes = None if route is None else route.sites_of_queries(columns, repository.catalog)
    return _BatchedExecutor(policies, links, columns, repository, routes)
