"""The UpdateManager module of VCover.

Invoked for queries whose objects are *all* resident in the cache.  The
UpdateManager decides between shipping the query and shipping the outstanding
updates the query interacts with, by maintaining the internal interaction
graph and computing its minimum-weight vertex cover incrementally
(Figure 4/5 of the paper).

The *internal* interaction graph (Section 3.1) has one vertex per query whose
objects are all in cache, one vertex per outstanding update those queries
interact with, and an edge whenever satisfying the query's currency would
require shipping the update.  Its one record is the
:class:`repro.flow.incremental.IncrementalMaxFlow` this class owns: which
vertices are live and how they are joined is read from it, never copied.  On
top of it the manager keeps the domain vocabulary (queries and updates
instead of left/right vertices) and the *remainder subgraph* of Section 4 --
update nodes picked in a cover and query nodes not picked are retired.

Vertex keys are *generation-scoped*: every decision mints a fresh key for its
query, and an update id observed with a different identity (different
timestamp/cost/object, as happens when independently generated traces reuse
ids) silently starts a new generation.  External callers therefore never need
globally unique ids for correctness; uniqueness is only required *among the
currently outstanding updates*, which the policy bookkeeping guarantees.  The
keys sort by side, id and sequence number, which fixes the order compaction
rebuilds the network in.

The manager does not own the cache or the network link -- it receives thin
callbacks from the policy so it can be unit-tested with fakes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.flow.incremental import IncrementalMaxFlow
from repro.repository.queries import Query
from repro.repository.updates import Update

#: Internal vertex key types: ("q", query_id, sequence) / ("u", update_id, sequence).
QueryKey = Tuple[str, int, int]
UpdateKey = Tuple[str, int, int]


@dataclass
class UpdateManagerResult:
    """What the UpdateManager decided for one query."""

    #: Whether the query must be shipped to the server.
    ship_query: bool
    #: Updates (ids) that must be shipped to the cache: every update vertex
    #: picked in the cover.  Shipping them is now cost-justified by the
    #: accumulated query weights they interact with, and they leave the
    #: remainder subgraph, so they ship whether or not the query itself does.
    ship_update_ids: List[int]


class UpdateManager:
    """Choose between query shipping and update shipping for in-cache queries.

    Parameters
    ----------
    method:
        Max-flow solver used for the incremental cover computation.
    """

    #: Compact the flow network once it carries this many retired vertices
    #: more than live ones.  A constant with one value in use, pinned by the
    #: determinism fixtures, not a free performance knob: compaction changes
    #: which retired vertices still absorb flow, so *when* it runs is part of
    #: the decision sequence (:meth:`IncrementalMaxFlow.compact`).
    COMPACTION_SLACK = 256

    def __init__(self, method: str = "edmonds-karp") -> None:
        self._flow = IncrementalMaxFlow(method=method)
        self._sequence = itertools.count()
        #: Outstanding update id -> (its live vertex key, the Update it stands for).
        self._updates: Dict[int, Tuple[UpdateKey, Update]] = {}
        self._decisions = 0
        self._covers_computed = 0
        self._queries_shipped = 0
        self._updates_shipped = 0

    # ------------------------------------------------------------------
    # Decision making
    # ------------------------------------------------------------------
    def decide(
        self,
        query: Query,
        interacting_updates: Dict[int, List[Update]],
    ) -> UpdateManagerResult:
        """Decide how to satisfy ``query``.

        Adds the query, the updates not yet in the graph and their edges,
        computes the cover and prunes the remainder subgraph exactly as
        Section 4 prescribes: update vertices picked in the cover are retired
        (their shipping is now justified and paid), and query vertices *not*
        picked are retired (they were answered from cache; they can never
        justify future shipping).  Every query kept so far is in the cover
        and every update kept so far is not, so both lists are exactly the
        change :meth:`IncrementalMaxFlow.compute_cover` reports: the cost of
        a decision is what the new query can reach in the residual graph.

        Parameters
        ----------
        query:
            The arriving query; every object it accesses is resident.
        interacting_updates:
            For each *stale* object the query touches, the outstanding updates
            the query must see (older than its staleness tolerance).  Empty
            when the cache already satisfies the query.
        """
        self._decisions += 1
        all_updates = [
            update for updates in interacting_updates.values() for update in updates
        ]
        if not all_updates:
            # Fast path: every interacting update has already been shipped.
            return UpdateManagerResult(ship_query=False, ship_update_ids=[])

        flow = self._flow
        query_key: QueryKey = ("q", query.query_id, next(self._sequence))
        flow.add_left(query_key, query.cost)
        for update in all_updates:
            flow.add_edge(query_key, self._update_key(update))

        delta = flow.compute_cover()
        self._covers_computed += 1
        # Read before anything is retired, because retiring drops the degree:
        # the query is in the cover iff it has an edge and was not reached.
        ship_query = flow.live_degree(query_key) > 0 and query_key not in delta.uncovered_left
        # Shipped in the order of a frozenset of the ids, *not* in the order
        # the reachability pass met them: that order feeds
        # ``QueryOutcome.shipped_updates``, the sim-vs-served decision logs and
        # the float accumulation of the update shipping cost, and the
        # determinism fixtures pin it (it differs from the visit order in most
        # covers that pick more than one update).
        shipped = list(frozenset(key[1] for key in delta.covered_right))

        for key in delta.covered_right:
            del self._updates[key[1]]
        self._retire(left=delta.uncovered_left, right=delta.covered_right)

        if ship_query:
            self._queries_shipped += 1
        self._updates_shipped += len(shipped)
        return UpdateManagerResult(ship_query=ship_query, ship_update_ids=shipped)

    def _update_key(self, update: Update) -> UpdateKey:
        """The live vertex key standing for ``update``, minted on first sight."""
        entry = self._updates.get(update.update_id)
        if entry is not None:
            # Nearly every re-add hands over the very same object; only a
            # different one is worth the field-by-field comparison.
            if entry[1] is update or entry[1] == update:
                return entry[0]
            # Same id, different update (id reuse across traces): the stale
            # vertex is retired and a new generation starts.  Deliberately
            # not through :meth:`_retire`: pruning the queries this strands,
            # or compacting here, would shift the compaction schedule, which
            # is part of the decision sequence (:attr:`COMPACTION_SLACK`).
            self._flow.retire(right=(entry[0],))
        key: UpdateKey = ("u", update.update_id, next(self._sequence))
        self._flow.add_right(key, update.cost)
        self._updates[update.update_id] = (key, update)
        return key

    # ------------------------------------------------------------------
    # Cache-change notifications
    # ------------------------------------------------------------------
    def forget_updates(self, update_ids: Iterable[int]) -> None:
        """Retire update vertices that became irrelevant.

        Used when an object is evicted or reloaded, or its updates were
        shipped some other way: they can no longer interact with future
        queries, so they leave the remainder subgraph.
        """
        updates = self._updates
        keys = [updates.pop(uid)[0] for uid in update_ids if uid in updates]
        if keys:
            self._retire(right=keys)

    # ------------------------------------------------------------------
    # Remainder maintenance
    # ------------------------------------------------------------------
    def _retire(self, left: Iterable[QueryKey] = (), right: Iterable[UpdateKey] = ()) -> None:
        """Retire vertices, prune the queries that strands, compact when due.

        Edges are only ever added for a *newly arrived* query, so an old query
        whose interacting updates have all been shipped or dropped can never
        influence a future cover; keeping it would only bloat the network.
        The flow object reports exactly those queries.
        """
        flow = self._flow
        stranded = flow.retire(left=left, right=right)
        if stranded:
            flow.retire(left=stranded)
        # This test, at exactly these two call sites (after a cover, after a
        # forget that retired something), is part of the decision sequence:
        # see :attr:`COMPACTION_SLACK`.
        live = flow.live_left_count + flow.live_right_count
        if flow.retired_count > live + self.COMPACTION_SLACK:
            flow.compact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_update_ids(self) -> FrozenSet[int]:
        """Ids of the update vertices currently in the remainder subgraph."""
        return frozenset(self._updates)

    def stats(self) -> Dict[str, float]:
        """Counters for reports and tests."""
        flow = self._flow
        return {
            "decisions": float(self._decisions),
            "queries_shipped": float(self._queries_shipped),
            "updates_shipped": float(self._updates_shipped),
            "covers_computed": float(self._covers_computed),
            "graph_queries": float(flow.live_left_count),
            "graph_updates": float(flow.live_right_count),
            "graph_edges": float(flow.live_edge_count),
        }
