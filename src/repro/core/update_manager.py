"""The UpdateManager module of VCover.

Invoked for queries whose objects are *all* resident in the cache.  The
UpdateManager decides between shipping the query and shipping the outstanding
updates the query interacts with, by maintaining the internal interaction
graph and computing its minimum-weight vertex cover incrementally
(Figure 4/5 of the paper).

The manager does not own the cache or the network link -- it receives thin
callbacks from the policy so it can be unit-tested with fakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.interaction_graph import InteractionGraph
from repro.repository.queries import Query
from repro.repository.updates import Update


@dataclass
class UpdateManagerResult:
    """What the UpdateManager decided for one query."""

    #: Whether the query must be shipped to the server.
    ship_query: bool
    #: Updates (ids) that must be shipped to the cache.
    ship_update_ids: List[int]


class UpdateManager:
    """Choose between query shipping and update shipping for in-cache queries.

    Parameters
    ----------
    method:
        Max-flow solver used for the incremental cover computation.
    """

    def __init__(self, method: str = "edmonds-karp") -> None:
        self._graph = InteractionGraph(method=method)
        self._decisions = 0
        self._queries_shipped = 0
        self._updates_shipped = 0

    @property
    def graph(self) -> InteractionGraph:
        """The interaction (remainder) graph."""
        return self._graph

    # ------------------------------------------------------------------
    # Decision making
    # ------------------------------------------------------------------
    def decide(
        self,
        query: Query,
        interacting_updates: Dict[int, List[Update]],
    ) -> UpdateManagerResult:
        """Decide how to satisfy ``query``.

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

        self._graph.add_query(query)
        for update in all_updates:
            self._graph.add_update(update)
            self._graph.add_interaction(query, update)

        advice = self._graph.advise(query)
        if advice.ship_query:
            self._queries_shipped += 1
        shipped = list(advice.ship_updates)
        self._updates_shipped += len(shipped)
        return UpdateManagerResult(ship_query=advice.ship_query, ship_update_ids=shipped)

    # ------------------------------------------------------------------
    # Cache-change notifications
    # ------------------------------------------------------------------
    def forget_updates(self, update_ids: Iterable[int]) -> None:
        """Drop update vertices that became irrelevant (object evicted/reloaded)."""
        self._graph.drop_updates(update_ids)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for reports and tests."""
        return {
            "decisions": float(self._decisions),
            "queries_shipped": float(self._queries_shipped),
            "updates_shipped": float(self._updates_shipped),
            "covers_computed": float(self._graph.covers_computed),
            "graph_queries": float(self._graph.active_query_count),
            "graph_updates": float(self._graph.active_update_count),
            "graph_edges": float(self._graph.edge_count),
        }
