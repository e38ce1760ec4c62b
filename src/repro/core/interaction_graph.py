"""The query/update interaction graph.

The *internal* interaction graph (Section 3.1) has one vertex per query whose
objects are all in cache, one vertex per outstanding update those queries
interact with, and an edge whenever satisfying the query's currency would
require shipping the update.  Its minimum-weight vertex cover tells the
UpdateManager which queries to ship and which updates to ship.

:class:`InteractionGraph` wraps :class:`repro.flow.incremental.IncrementalMaxFlow`
with the domain vocabulary (queries and updates instead of left/right
vertices), maintains the *remainder subgraph* of Section 4 -- update nodes
picked in a cover and query nodes not picked are retired -- and exposes the
cover as explicit "ship this query" / "ship these updates" advice.

Vertex keys are *generation-scoped*: every ``add_query`` call mints a fresh
internal key, and an update id observed with a different identity (different
timestamp/cost/object, as happens when independently generated traces reuse
ids) silently starts a new generation.  External callers therefore never need
globally unique ids for correctness; uniqueness is only required *among the
currently outstanding updates*, which the policy bookkeeping guarantees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.vertex_cover import BipartiteCoverInstance
from repro.repository.queries import Query
from repro.repository.updates import Update

#: Internal vertex key types: ("q", query_id, generation) / ("u", update_id, generation).
QueryKey = Tuple[str, int, int]
UpdateKey = Tuple[str, int, int]


@dataclass(frozen=True)
class CoverAdvice:
    """The UpdateManager-facing result of one cover computation.

    Attributes
    ----------
    ship_query:
        Whether the newly arrived query should be shipped to the server.
    ship_updates:
        Ids of every update vertex picked in the cover.  Shipping them is now
        cost-justified by the accumulated query weights they interact with,
        and they leave the remainder subgraph, so the UpdateManager ships them
        regardless of whether the triggering query itself is shipped.
    """

    ship_query: bool
    ship_updates: FrozenSet[int]


class InteractionGraph:
    """Incrementally maintained interaction graph with remainder pruning."""

    #: Compact the underlying flow network once it carries this many retired
    #: vertices more than active ones (pure performance knob; decisions are
    #: unaffected, see :meth:`repro.flow.incremental.IncrementalMaxFlow.compact`).
    COMPACTION_SLACK = 256

    def __init__(self, method: str = "edmonds-karp") -> None:
        self._flow = IncrementalMaxFlow(method=method)
        self._sequence = itertools.count()
        #: Active (non-retired) query vertex keys.
        self._active_query_keys: Set[QueryKey] = set()
        #: Most recent vertex key minted for each query id.
        self._latest_query_key: Dict[int, QueryKey] = {}
        #: Active update vertex key per update id.
        self._active_update_keys: Dict[int, UpdateKey] = {}
        #: The Update value each active update vertex represents (identity check).
        self._update_identity: Dict[int, Update] = {}
        #: Edges between active vertex keys, stored as per-vertex incidence
        #: sets so retiring a vertex removes exactly its own edges instead of
        #: rebuilding the whole edge set (the remainder subgraph is small but
        #: the accumulated edge set is not).
        self._edges_by_query: Dict[QueryKey, Set[UpdateKey]] = {}
        self._edges_by_update: Dict[UpdateKey, Set[QueryKey]] = {}
        self._covers_computed = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_query(self, query: Query) -> None:
        """Add a query vertex weighted by its shipping cost."""
        key: QueryKey = ("q", query.query_id, next(self._sequence))
        self._flow.add_left(key, query.cost)
        self._active_query_keys.add(key)
        self._latest_query_key[query.query_id] = key

    def add_update(self, update: Update) -> None:
        """Add an update vertex weighted by its shipping cost (idempotent).

        Re-adding the *same* outstanding update is a no-op; an update id seen
        with a different identity (id reuse across traces) starts a fresh
        vertex generation and retires the stale one.
        """
        existing = self._active_update_keys.get(update.update_id)
        if existing is not None:
            identity = self._update_identity.get(update.update_id)
            # Nearly every re-add hands over the very same object; only a
            # different one is worth the field-by-field comparison.
            if identity is update or identity == update:
                return
            # Same id, different update: retire the stale vertex first.
            self._retire_update_keys([existing])
        key: UpdateKey = ("u", update.update_id, next(self._sequence))
        self._flow.add_right(key, update.cost)
        self._active_update_keys[update.update_id] = key
        self._update_identity[update.update_id] = update

    def add_interaction(self, query: Query, update: Update) -> None:
        """Add an edge between a query and an update it interacts with."""
        query_key = self._latest_query_key.get(query.query_id)
        if query_key is None or query_key not in self._active_query_keys:
            raise KeyError(f"query {query.query_id} has not been added")
        update_key = self._active_update_keys.get(update.update_id)
        if update_key is None:
            raise KeyError(f"update {update.update_id} has not been added")
        self._flow.add_edge(query_key, update_key)
        self._edges_by_query.setdefault(query_key, set()).add(update_key)
        self._edges_by_update.setdefault(update_key, set()).add(query_key)

    # ------------------------------------------------------------------
    # Cover computation and remainder maintenance
    # ------------------------------------------------------------------
    def advise(self, query: Query) -> CoverAdvice:
        """Compute the current cover and translate it into shipping advice.

        After the computation the remainder subgraph is pruned exactly as
        Section 4 prescribes: update vertices picked in the cover are retired
        (their shipping is now justified and paid), and query vertices *not*
        picked are retired (they were answered from cache; they can never
        justify future shipping).  Every query kept so far is in the cover
        and every update kept so far is not, so both lists are exactly the
        change :meth:`IncrementalMaxFlow.compute_cover` reports: the cost of
        a decision is what the new query can reach in the residual graph.
        """
        delta = self._flow.compute_cover()
        self._covers_computed += 1
        retired_queries = delta.uncovered_left
        cover_update_keys = delta.covered_right
        query_key = self._latest_query_key.get(query.query_id)
        # In the cover: touched by an interaction and not reached.
        ship_query = query_key in self._edges_by_query and query_key not in retired_queries
        # Every update picked in the cover is now cost-justified and shipped.
        ship_updates = frozenset(key[1] for key in cover_update_keys)

        # Remainder pruning.
        self._flow.retire(left=retired_queries, right=cover_update_keys)
        self._active_query_keys.difference_update(retired_queries)
        self._remove_query_edges(retired_queries)
        isolated = self._retire_update_keys(cover_update_keys, already_retired_in_flow=True)
        if query_key is not None:
            isolated.append(query_key)
        self._prune_isolated_queries(isolated)
        self._maybe_compact()

        return CoverAdvice(ship_query=ship_query, ship_updates=ship_updates)

    def drop_updates(self, update_ids: Iterable[int]) -> None:
        """Retire update vertices that became irrelevant.

        Used when an object is evicted or reloaded: its outstanding updates
        can no longer interact with future queries, so they leave the
        remainder subgraph.
        """
        keys = [
            self._active_update_keys[update_id]
            for update_id in update_ids
            if update_id in self._active_update_keys
        ]
        if not keys:
            return
        self._prune_isolated_queries(self._retire_update_keys(keys))
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Internal maintenance
    # ------------------------------------------------------------------
    def _retire_update_keys(
        self, keys: Iterable[UpdateKey], already_retired_in_flow: bool = False
    ) -> List[QueryKey]:
        """Retire update vertices; return the queries left without an edge."""
        keys = list(keys)
        if not already_retired_in_flow and keys:
            self._flow.retire(right=keys)
        stranded: List[QueryKey] = []
        for key in keys:
            update_id = key[1]
            if self._active_update_keys.get(update_id) == key:
                self._active_update_keys.pop(update_id, None)
                self._update_identity.pop(update_id, None)
            for query_key in self._edges_by_update.pop(key, ()):
                edges = self._edges_by_query.get(query_key)
                if edges is not None:
                    edges.discard(key)
                    if not edges:
                        del self._edges_by_query[query_key]
                        stranded.append(query_key)
        return stranded

    def _remove_query_edges(self, query_keys: Iterable[QueryKey]) -> None:
        """Drop the edges of retired query vertices from the incidence maps."""
        for key in query_keys:
            for update_key in self._edges_by_query.pop(key, ()):
                edges = self._edges_by_update.get(update_key)
                if edges is not None:
                    edges.discard(key)
                    if not edges:
                        del self._edges_by_update[update_key]

    def _prune_isolated_queries(self, candidates: Iterable[QueryKey]) -> None:
        """Retire those of ``candidates`` with no remaining active edges.

        Edges are only ever added for a *newly arrived* query, so an old query
        whose interacting updates have all been shipped or dropped can never
        influence a future cover; keeping it would only bloat the network.
        A query can only become isolated by losing its last edge, so callers
        pass the queries that just did (plus a query advised without any).
        """
        edges_by_query = self._edges_by_query
        # Sorted: the candidates come out of incidence sets.
        isolated = sorted(
            key
            for key in candidates
            if key in self._active_query_keys and key not in edges_by_query
        )
        if not isolated:
            return
        self._flow.retire(left=isolated)
        self._active_query_keys.difference_update(isolated)

    def _maybe_compact(self) -> None:
        """Compact the flow network when retired vertices dominate it."""
        active = len(self._active_query_keys) + len(self._active_update_keys)
        if self._flow.retired_count > active + self.COMPACTION_SLACK:
            self._flow.compact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_query_count(self) -> int:
        """Number of query vertices in the remainder subgraph."""
        return len(self._active_query_keys)

    @property
    def active_update_count(self) -> int:
        """Number of update vertices in the remainder subgraph."""
        return len(self._active_update_keys)

    @property
    def edge_count(self) -> int:
        """Number of edges in the remainder subgraph."""
        return sum(len(edges) for edges in self._edges_by_query.values())

    @property
    def covers_computed(self) -> int:
        """Number of cover computations performed so far."""
        return self._covers_computed

    def active_update_ids(self) -> FrozenSet[int]:
        """Ids of the update vertices currently in the remainder subgraph."""
        return frozenset(self._active_update_keys)

    def to_instance(self) -> BipartiteCoverInstance:
        """Export the remainder subgraph as a standalone cover instance."""
        return self._flow.to_instance(active_only=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InteractionGraph(queries={self.active_query_count}, "
            f"updates={self.active_update_count}, edges={self.edge_count})"
        )
