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

A query is joined not to each update it must see but to one *bundle* per
stale object (:meth:`UpdateManager._join`): the network grows with what
arrived, |Q_o| + 2|U_o| arcs per object, not with the |Q_o| x |U_o| edges of
the graph it stands for -- which is still what ``stats()["graph_edges"]`` counts.

Vertex keys are *generation-scoped*: every decision mints a fresh key for its
query, and an update id observed with a different identity (different
timestamp/cost/object, as happens when independently generated traces reuse
ids) silently starts a new generation.  External callers therefore never need
globally unique ids for correctness; uniqueness is only required *among the
currently outstanding updates*, which the policy bookkeeping guarantees.

The manager does not own the cache or the network link -- it receives thin
callbacks from the policy so it can be unit-tested with fakes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from repro.flow.incremental import IncrementalMaxFlow
from repro.repository.queries import Query
from repro.repository.updates import Update

#: Internal vertex key types: ("q", query_id, sequence) / ("u", update_id, sequence).
QueryKey = Tuple[str, int, int]
UpdateKey = Tuple[str, int, int]


@dataclass(frozen=True, slots=True)
class UpdateManagerResult:
    """What the UpdateManager decided for one query."""

    #: Whether the query must be shipped to the server.
    ship_query: bool
    #: Updates (ids) that must be shipped to the cache: every update vertex
    #: picked in the cover.  Shipping them is now cost-justified by the
    #: accumulated query weights they interact with, and they leave the
    #: remainder subgraph, so they ship whether or not the query itself does.
    ship_update_ids: Tuple[int, ...]


#: The decision of every query the cache already satisfies (shared: immutable).
_ANSWER_FROM_CACHE = UpdateManagerResult(ship_query=False, ship_update_ids=())


@dataclass(slots=True)
class _Chain:
    """The bundles over one object's live updates, each standing for a prefix.

    ``bundles`` holds ascending ``(end, bundle)`` pairs, the bundle reaching
    ``members[:end]`` (oldest first); every ``end`` is positive: nothing dead.
    """

    members: List[Update] = field(default_factory=list)
    bundles: List[Tuple[int, int]] = field(default_factory=list)


class UpdateManager:
    """Choose between query shipping and update shipping for in-cache queries."""

    #: Compact the flow network once it carries this many retired vertices
    #: more than live ones.  A constant with one value in use, pinned by the
    #: determinism fixtures, not a free performance knob: compaction changes
    #: which retired vertices still absorb flow, so *when* it runs is part of
    #: the decision sequence (:meth:`IncrementalMaxFlow.compact`).
    COMPACTION_SLACK = 256

    __slots__ = (
        "_flow",
        "_sequence",
        "_updates",
        "_chains",
        "_decisions",
        "_covers_computed",
        "_queries_shipped",
        "_updates_shipped",
    )

    def __init__(self) -> None:
        self._flow = IncrementalMaxFlow()
        self._sequence = itertools.count()
        #: Outstanding update id -> (its live vertex key, the Update it stands for).
        self._updates: Dict[int, Tuple[UpdateKey, Update]] = {}
        #: Object id -> the chain of bundles over its outstanding updates.
        self._chains: Dict[int, _Chain] = {}
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
        interacting_updates: Mapping[int, List[Update]],
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
            when the cache already satisfies the query.  The lists are only
            read, never kept: the caller may hand over its own.
        """
        self._decisions += 1
        if not any(interacting_updates.values()):
            # Fast path: every interacting update has already been shipped.
            return _ANSWER_FROM_CACHE

        flow = self._flow
        query_key: QueryKey = ("q", query.query_id, next(self._sequence))
        flow.add_left(query_key, query.cost)
        for object_id, wanted in interacting_updates.items():
            if wanted:
                self._join(query_key, object_id, wanted)

        delta = flow.compute_cover()
        self._covers_computed += 1
        # Read before anything is retired, because retiring drops the count:
        # the query is in the cover iff it has an edge and was not reached.
        ship_query = flow.live_degree(query_key) > 0 and query_key not in delta.uncovered_left
        # Shipped in the iteration order of a frozenset filled in ascending id
        # order, a function of the id *set* alone -- not in the order the
        # reachability pass met them (it follows the augmenting paths), nor of
        # a frozenset filled in that order (colliding ids come out as
        # inserted: ``list(frozenset([8, 0])) == [8, 0]``).  It feeds
        # ``QueryOutcome.shipped_updates``, the sim-vs-served decision logs
        # and the float sum of the shipping cost; the fixtures pin it.
        shipped = tuple(frozenset(sorted(key[1] for key in delta.covered_right)))

        self._forget(shipped, covered=True)
        self._retire(left=delta.uncovered_left, right=delta.covered_right)

        if ship_query:
            self._queries_shipped += 1
        self._updates_shipped += len(shipped)
        return UpdateManagerResult(ship_query=ship_query, ship_update_ids=shipped)

    def _join(self, query_key: QueryKey, object_id: int, wanted: List[Update]) -> None:
        """Join the query to ``wanted``, one object's updates it must see, by one arc.

        ``wanted`` is a time-prefix of the object's outstanding list
        (:meth:`VCoverPolicy.interacting_updates`), keys are minted in that
        order, and updates a cover shipped lie in a closed set no search
        enters -- so a bundle's live reach *is* the outstanding prefix up to
        its newest update.  The query takes the rightmost bundle whose newest
        update is not newer than ``wanted[-1]``: as it is when the two are
        equal, else as the base of a new bundle with one more arc per update
        in between (chain start: one arc per update); a bundle minted between
        two chain members leaves the later one as it is.  A list that is not
        the members' prefix plus updates never seen (tests hand arbitrary,
        repeating subsets) starts a fresh chain holding exactly ``wanted``:
        one list ``==``, which tries identity first, tells; only the unseen
        tail, each update once, goes through :meth:`_update_key`.
        """
        updates, chain = self._updates, self._chains.get(object_id)
        known = len(chain.members) if chain is not None else 0
        unseen = {update.update_id: update for update in wanted[known:]}
        if chain is None or not (
            wanted[:known] == chain.members[: len(wanted)] and updates.keys().isdisjoint(unseen)
        ):
            chain = self._chains[object_id] = _Chain()
            unseen = {update.update_id: update for update in wanted}
        for update in unseen.values():
            self._update_key(update)
            chain.members.append(update)
        end = len(chain.members) if unseen else len(wanted)
        index = bisect_right(chain.bundles, end, key=lambda pair: pair[0])
        below, bundle = chain.bundles[index - 1] if index else (0, None)
        if bundle is None or below != end:
            keys = [updates[update.update_id][0] for update in chain.members[below:end]]
            bundle = self._flow.add_bundle(keys, bundle)
            chain.bundles.insert(index, (end, bundle))
        self._flow.add_bundle_edge(query_key, bundle)

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
            self._forget((update.update_id,))
            self._flow.retire(right=(entry[0],))
        key: UpdateKey = ("u", update.update_id, next(self._sequence))
        self._flow.add_right(key, update.cost)
        self._updates[update.update_id] = (key, update)
        return key

    def _forget(self, update_ids: Iterable[int], covered: bool = False) -> List[UpdateKey]:
        """Drop outstanding updates from the tables; return the keys they had.

        Those a cover picked (``covered``) come off the front of their chain:
        a cover reaches a bundle's whole prefix or none of it.  Any other way
        out (eviction, reload, preship, a stale generation) drops the chain:
        the vertex may keep sink capacity outside every closed set, and no
        later query may reach it.
        """
        updates, chains = self._updates, self._chains
        gone = [updates.pop(uid) for uid in update_ids if uid in updates]
        counts: Dict[int, int] = {}
        for _, update in gone:
            counts[update.object_id] = counts.get(update.object_id, 0) + 1
        for object_id, count in counts.items():
            chain = chains.get(object_id)
            if covered and chain is not None and count < len(chain.members) and not any(
                update.update_id in updates for update in chain.members[:count]
            ):
                del chain.members[:count]
                chain.bundles = [(end - count, b) for end, b in chain.bundles if end > count]
            else:
                chains.pop(object_id, None)
        return [key for key, _ in gone]

    # ------------------------------------------------------------------
    # Cache-change notifications
    # ------------------------------------------------------------------
    def forget_updates(self, update_ids: Iterable[int]) -> None:
        """Retire update vertices that became irrelevant.

        Used when an object is evicted or reloaded, or its updates were
        shipped some other way: they can no longer interact with future
        queries, so they leave the remainder subgraph.
        """
        keys = self._forget(update_ids)
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
