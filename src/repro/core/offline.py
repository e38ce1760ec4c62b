"""Offline optimal decoupling (Section 3.1).

Given full knowledge of a (sub)sequence of queries and updates over objects
that are resident in the cache, the optimal choice of which queries to ship
and which updates to ship is the minimum-weight vertex cover of the internal
interaction graph (Theorem 1).  :class:`OfflineDecoupler` builds that graph
from a trace and solves it exactly -- it is both a standalone analysis tool
(used in the worked-example test that reproduces the paper's Figure 2
numbers) and the hindsight baseline the property tests compare the online
UpdateManager against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.flow.vertex_cover import BipartiteCoverInstance, min_weight_vertex_cover
from repro.repository.queries import Query
from repro.repository.updates import Update


@dataclass(frozen=True)
class OfflineDecision:
    """The offline-optimal shipping decision for a known sequence.

    Attributes
    ----------
    shipped_queries:
        Query ids that should be shipped to the server.
    shipped_updates:
        Update ids that should be shipped to the cache.
    total_cost:
        Total network traffic of the decision (the cover weight).
    """

    shipped_queries: FrozenSet[int]
    shipped_updates: FrozenSet[int]
    total_cost: float


class OfflineDecoupler:
    """Exact hindsight solver for the in-cache decoupling subproblem.

    Parameters
    ----------
    cached_objects:
        The objects resident in the cache for the analysed period.
    """

    def __init__(self, cached_objects: Iterable[int]) -> None:
        self._cached = set(cached_objects)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def build_instance(
        self, queries: Sequence[Query], updates: Sequence[Update]
    ) -> BipartiteCoverInstance:
        """Build the internal interaction graph for a known sequence.

        An edge (query, update) exists when the update affects an object the
        query accesses, the object is cached, the update arrived before the
        query, and the update is older than the query's staleness tolerance.
        Queries are only included if all their accessed objects are cached
        (other queries are shipped outright and are not part of the internal
        graph); updates to non-cached objects are ignored.
        """
        query_weights: Dict[object, float] = {}
        update_weights: Dict[object, float] = {}
        edges: Set[Tuple[object, object]] = set()

        relevant_updates = [u for u in updates if u.object_id in self._cached]
        for query in queries:
            if not set(query.object_ids) <= self._cached:
                continue
            query_weights[query.query_id] = query.cost
            for update in relevant_updates:
                if update.object_id not in query.object_ids:
                    continue
                if update.timestamp > query.timestamp:
                    continue
                if not query.requires_update(update.timestamp):
                    continue
                update_weights[update.update_id] = update.cost
                edges.add((query.query_id, update.update_id))

        return BipartiteCoverInstance(
            left_weights=query_weights,
            right_weights=update_weights,
            edges=frozenset(edges),
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, queries: Sequence[Query], updates: Sequence[Update]) -> OfflineDecision:
        """Return the offline-optimal shipping decision for the sequence."""
        instance = self.build_instance(queries, updates)
        cover = min_weight_vertex_cover(instance)
        return OfflineDecision(
            shipped_queries=frozenset(cover.left_in_cover),
            shipped_updates=frozenset(cover.right_in_cover),
            total_cost=cover.weight,
        )

    def evaluate_full_choice(
        self,
        queries: Sequence[Query],
        updates: Sequence[Update],
        load_objects: Dict[int, float],
    ) -> float:
        """Traffic of a complete decoupling choice (Figure 2-style analysis).

        ``load_objects`` maps object ids to their load costs for objects the
        choice loads at the start of the sequence.  Queries whose objects are
        all covered (cached objects plus loaded objects) participate in the
        in-cache cover; other queries are shipped outright.  Returns the total
        traffic: loads + cover weight + shipped out-of-cache queries.
        """
        effective_cached = self._cached | set(load_objects)
        total = sum(load_objects.values())
        in_cache: List[Query] = []
        for query in queries:
            if set(query.object_ids) <= effective_cached:
                in_cache.append(query)
            else:
                total += query.cost
        solver = OfflineDecoupler(effective_cached)
        decision = solver.solve(in_cache, updates)
        return total + decision.total_cost
