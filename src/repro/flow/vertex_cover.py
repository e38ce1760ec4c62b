"""Minimum-weight vertex cover on bipartite graphs via maximum flow.

Theorem 1 in the paper states that, when the whole sequence is known, the
optimal ship-query / ship-update decision for the objects currently in cache
is the minimum-weight vertex cover of the internal interaction graph.  The
interaction graph is bipartite (edges only run between query nodes and update
nodes), so the cover can be computed exactly in polynomial time through the
classic reduction to max-flow / min-cut:

* add a source ``s`` with an arc to every *query* node of capacity equal to
  the query's weight (its shipping cost),
* add a sink ``t`` with an arc from every *update* node of capacity equal to
  the update's weight (its shipping cost),
* give every interaction edge (query, update) infinite capacity, oriented
  from the query side to the update side,
* compute a maximum ``s``-``t`` flow; the minimum cut consists of saturated
  source/sink arcs, and the corresponding vertices form a minimum-weight
  vertex cover (Koenig-type argument, see Hochbaum 1997).

The module exposes a convenience dataclass :class:`BipartiteCoverInstance`
describing an instance and :func:`min_weight_vertex_cover` which solves it and
returns a :class:`CoverResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Mapping, Set, Tuple

from repro.flow.graph import EPSILON, FlowNetwork
from repro.flow.maxflow import solve_max_flow

Vertex = Hashable

#: Capacity used for interaction edges; effectively infinite relative to any
#: realistic shipping cost (costs are bytes and stay far below this value).
INFINITE_CAPACITY = float("inf")

#: Sentinel vertices added to the flow network.
SOURCE = "__source__"
SINK = "__sink__"


@dataclass(frozen=True, slots=True)
class BipartiteCoverInstance:
    """A minimum-weight vertex-cover instance on a bipartite graph.

    Attributes
    ----------
    left_weights:
        Weight of every left-side vertex (query shipping costs in Delta).
    right_weights:
        Weight of every right-side vertex (update shipping costs in Delta).
    edges:
        Interaction edges as ``(left_vertex, right_vertex)`` pairs.  Every
        endpoint must appear in the corresponding weight mapping.
    """

    left_weights: Mapping[Vertex, float]
    right_weights: Mapping[Vertex, float]
    edges: FrozenSet[Tuple[Vertex, Vertex]]

    def __post_init__(self) -> None:
        for left, right in self.edges:
            if left not in self.left_weights:
                raise ValueError(f"edge endpoint {left!r} missing from left_weights")
            if right not in self.right_weights:
                raise ValueError(f"edge endpoint {right!r} missing from right_weights")
        for name, weights in (("left", self.left_weights), ("right", self.right_weights)):
            for vertex, weight in weights.items():
                if weight < 0:
                    raise ValueError(f"{name} vertex {vertex!r} has negative weight {weight!r}")

    @staticmethod
    def from_iterables(
        left_weights: Mapping[Vertex, float],
        right_weights: Mapping[Vertex, float],
        edges: Iterable[Tuple[Vertex, Vertex]],
    ) -> "BipartiteCoverInstance":
        """Build an instance, freezing the edge iterable."""
        return BipartiteCoverInstance(
            left_weights=dict(left_weights),
            right_weights=dict(right_weights),
            edges=frozenset(edges),
        )


@dataclass(frozen=True, slots=True)
class CoverResult:
    """Result of a minimum-weight vertex-cover computation.

    Attributes
    ----------
    left_in_cover / right_in_cover:
        Vertices chosen on each side of the bipartition.
    weight:
        Total weight of the chosen cover.
    flow_value:
        Value of the maximum flow used to certify optimality (equal to
        ``weight`` up to floating-point error by LP duality).
    """

    left_in_cover: FrozenSet[Vertex]
    right_in_cover: FrozenSet[Vertex]
    weight: float
    flow_value: float

    @property
    def cover(self) -> FrozenSet[Vertex]:
        """The full cover as a single frozen set."""
        return self.left_in_cover | self.right_in_cover

    def covers(self, edges: Iterable[Tuple[Vertex, Vertex]]) -> bool:
        """Return ``True`` when every edge has at least one endpoint in the cover."""
        cover = self.cover
        return all(left in cover or right in cover for left, right in edges)


def build_cover_network(instance: BipartiteCoverInstance) -> FlowNetwork:
    """Construct the source/sink-augmented flow network for ``instance``.

    Left vertices receive arcs from :data:`SOURCE` with capacity equal to
    their weight, right vertices receive arcs to :data:`SINK`, and interaction
    edges get infinite capacity.  The returned network carries no flow.
    """
    network = FlowNetwork()
    network.add_vertex(SOURCE)
    network.add_vertex(SINK)
    for vertex, weight in instance.left_weights.items():
        network.add_edge(SOURCE, ("L", vertex), weight)
    for vertex, weight in instance.right_weights.items():
        network.add_edge(("R", vertex), SINK, weight)
    for left, right in instance.edges:
        network.add_edge(("L", left), ("R", right), INFINITE_CAPACITY)
    return network


def extract_cover_from_network(
    instance: BipartiteCoverInstance, network: FlowNetwork
) -> CoverResult:
    """Extract the minimum-weight vertex cover from a maximally flowed network.

    A left vertex is in the cover iff it is *not* reachable from the source in
    the residual graph (its source arc lies on the min cut); a right vertex is
    in the cover iff it *is* reachable (its sink arc lies on the min cut).
    """
    reachable = network.residual_reachable(SOURCE)
    left_in_cover = frozenset(
        vertex for vertex in instance.left_weights if ("L", vertex) not in reachable
    )
    right_in_cover = frozenset(
        vertex for vertex in instance.right_weights if ("R", vertex) in reachable
    )
    # fsum: exact summation, so the weight is independent of set order.
    weight = math.fsum(instance.left_weights[v] for v in left_in_cover) + math.fsum(
        instance.right_weights[v] for v in right_in_cover
    )
    return CoverResult(
        left_in_cover=left_in_cover,
        right_in_cover=right_in_cover,
        weight=weight,
        flow_value=network.flow_value(SOURCE),
    )


def min_weight_vertex_cover(instance: BipartiteCoverInstance) -> CoverResult:
    """Solve a bipartite minimum-weight vertex-cover instance exactly.

    Parameters
    ----------
    instance:
        The weighted bipartite instance.

    Returns
    -------
    CoverResult
        The optimal cover; isolated vertices (no incident edges) are never
        selected because covering nothing costs nothing.
    """
    network = build_cover_network(instance)
    solve_max_flow(network, SOURCE, SINK)
    result = extract_cover_from_network(instance, network)
    return _drop_isolated_vertices(instance, result)


def _drop_isolated_vertices(
    instance: BipartiteCoverInstance, result: CoverResult
) -> CoverResult:
    """Remove cover vertices with no incident edges (they are never needed).

    The max-flow construction never saturates arcs of isolated vertices, so in
    practice nothing changes, but zero-weight isolated vertices can appear on
    the unreachable side of the cut; dropping them keeps the cover minimal in
    the set-inclusion sense as well.
    """
    touched_left: Set[Vertex] = {left for left, _ in instance.edges}
    touched_right: Set[Vertex] = {right for _, right in instance.edges}
    left = frozenset(v for v in result.left_in_cover if v in touched_left)
    right = frozenset(v for v in result.right_in_cover if v in touched_right)
    weight = math.fsum(instance.left_weights[v] for v in left) + math.fsum(
        instance.right_weights[v] for v in right
    )
    return CoverResult(
        left_in_cover=left,
        right_in_cover=right,
        weight=weight,
        flow_value=result.flow_value,
    )


def brute_force_min_cover(instance: BipartiteCoverInstance) -> CoverResult:
    """Exponential-time exact solver used as a test oracle on tiny instances.

    Enumerates all subsets of the left side; given a fixed left subset the
    required right vertices are exactly those with an uncovered incident edge.
    """
    left_vertices = list(instance.left_weights)
    if len(left_vertices) > 20:
        raise ValueError("brute force oracle limited to 20 left vertices")
    best_weight = float("inf")
    best: Tuple[FrozenSet[Vertex], FrozenSet[Vertex]] = (frozenset(), frozenset())
    edge_list = list(instance.edges)
    for mask in range(1 << len(left_vertices)):
        chosen_left = {
            left_vertices[i] for i in range(len(left_vertices)) if mask & (1 << i)
        }
        needed_right = {right for left, right in edge_list if left not in chosen_left}
        weight = math.fsum(instance.left_weights[v] for v in chosen_left) + math.fsum(
            instance.right_weights[v] for v in needed_right
        )
        if weight < best_weight - EPSILON:
            best_weight = weight
            best = (frozenset(chosen_left), frozenset(needed_right))
    return CoverResult(
        left_in_cover=best[0],
        right_in_cover=best[1],
        weight=best_weight,
        flow_value=best_weight,
    )
