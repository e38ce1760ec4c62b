"""Maximum-flow solvers: Edmonds-Karp (production) and Dinic (oracle).

The paper's offline decoupling algorithm reduces minimum-weight vertex cover
on the (bipartite) internal interaction graph to a maximum-flow computation
and cites Edmonds-Karp as the solver.  Edmonds-Karp (BFS augmenting paths) is
the one production solver, :func:`solve_max_flow`; Dinic (blocking flows) is
kept as an independent implementation for the tests to check it against.  Both
operate on :class:`repro.flow.graph.FlowNetwork` and *augment the existing
flow*, so they can be called again as the network grows.

Both accept three search hints, used by :mod:`repro.flow.incremental` to keep
a solve local to what changed.  ``source_arcs`` names the only arcs out of the
source worth trying (the caller vouches every other one is saturated or leads
into ``closed``), so the source's whole adjacency is never rescanned.
``closed`` is a set of vertices no residual arc leaves: no augmenting path can
pass through it, and skipping its members does not reorder the search over
the rest.  ``sink_arcs`` maps *every* vertex that has an arc into the sink to
that arc (the caller vouches none is missing and no vertex has a second one),
so Edmonds-Karp can test a vertex for sink residual when it *discovers* it
instead of when it pops it: breadth-first order is first-in first-out, so the
first vertex discovered with sink residual is the first one a plain search
would pop and reach the sink from, by the same parent arc -- what is skipped
is expanding everything queued ahead of it.  Under all three hints the paths
found -- and the flow left behind -- are exactly those of an unhinted solve.
Dinic accepts ``sink_arcs`` and ignores it (its level graph needs every
vertex of the last level anyway).
"""

from __future__ import annotations

from collections import deque
from typing import Container, Deque, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.flow.graph import EPSILON, Arc, FlowNetwork

Vertex = Hashable


def _bfs_augmenting_path(
    network: FlowNetwork,
    source: Vertex,
    sink: Vertex,
    source_arcs: Sequence[Arc],
    closed: Container[Vertex],
    sink_arcs: Mapping[Vertex, Arc],
) -> Optional[List[Arc]]:
    """Find a shortest augmenting path from ``source`` to ``sink``.

    Returns the list of arcs along the path, or ``None`` when the sink is not
    reachable in the residual graph.  A discovered vertex whose ``sink_arcs``
    entry has residual completes the path on the spot (module docstring).
    """
    parents: Dict[Vertex, Optional[Arc]] = {source: None}
    queue: Deque[Vertex] = deque()
    adjacency = network.adjacency()
    arcs = source_arcs
    examined = 0
    try:
        while True:
            examined += len(arcs)
            for arc in arcs:
                head = arc.head
                if arc.capacity - arc.flow <= EPSILON or head in parents or head in closed:
                    continue
                parents[head] = arc
                last = arc if head == sink else sink_arcs.get(head)
                if last is not None and last.capacity - last.flow > EPSILON:
                    path: List[Arc] = []
                    arc_in: Optional[Arc] = last
                    while arc_in is not None:
                        path.append(arc_in)
                        arc_in = parents[arc_in.tail]
                    path.reverse()
                    return path
                queue.append(head)
            if not queue:
                return None
            arcs = adjacency[queue.popleft()]
    finally:
        network.arcs_examined += examined


def edmonds_karp_max_flow(
    network: FlowNetwork,
    source: Vertex,
    sink: Vertex,
    source_arcs: Optional[Sequence[Arc]] = None,
    closed: Container[Vertex] = (),
    sink_arcs: Optional[Mapping[Vertex, Arc]] = None,
) -> float:
    """Augment ``network`` to a maximum flow using Edmonds-Karp.

    The existing flow on the network is used as the starting point, so calling
    this repeatedly as the network grows performs exactly the incremental
    computation described in Section 4 of the paper.  Returns the *total*
    flow carried by the source arcs searched after augmentation -- the value
    of the flow when ``source_arcs`` is not given.
    """
    if not network.has_vertex(source) or not network.has_vertex(sink):
        return network.flow_value(source)
    if source_arcs is None:
        source_arcs = network.adjacency()[source]
    if sink_arcs is None or sink in closed:
        # No vertex is tested early: without the hint, or because a closed
        # sink is never entered, from a discovered vertex or a popped one.
        sink_arcs = {}
    while True:
        path = _bfs_augmenting_path(network, source, sink, source_arcs, closed, sink_arcs)
        if path is None:
            break
        bottleneck = min(arc.capacity - arc.flow for arc in path)
        if bottleneck <= EPSILON:
            break
        for arc in path:
            arc.push(bottleneck)
    return sum((arc.flow for arc in source_arcs), 0.0)


class _DinicState:
    """Per-phase state for Dinic's algorithm (levels and arc iterators)."""

    __slots__ = ("network", "source", "sink", "source_arcs", "closed", "levels", "iter_pos")

    def __init__(
        self,
        network: FlowNetwork,
        source: Vertex,
        sink: Vertex,
        source_arcs: Sequence[Arc],
        closed: Container[Vertex],
    ) -> None:
        self.network = network
        self.source = source
        self.sink = sink
        self.source_arcs = source_arcs
        self.closed = closed
        self.levels: Dict[Vertex, int] = {}
        self.iter_pos: Dict[Vertex, int] = {}

    def build_levels(self) -> bool:
        """BFS layering of the residual graph; returns True if sink reachable."""
        levels = {self.source: 0}
        self.levels = levels
        queue: Deque[Vertex] = deque()
        adjacency = self.network.adjacency()
        closed = self.closed
        arcs = self.source_arcs
        next_level = 1
        examined = 0
        while True:
            examined += len(arcs)
            for arc in arcs:
                head = arc.head
                if (
                    arc.capacity - arc.flow > EPSILON
                    and head not in levels
                    and head not in closed
                ):
                    levels[head] = next_level
                    queue.append(head)
            if not queue:
                break
            vertex = queue.popleft()
            arcs = adjacency[vertex]
            next_level = levels[vertex] + 1
        self.network.arcs_examined += examined
        return self.sink in levels

    def send_blocking_flow(self, vertex: Vertex, limit: float) -> float:
        """DFS that pushes a blocking flow from ``vertex`` toward the sink."""
        if vertex == self.sink:
            return limit
        arcs = self.source_arcs if vertex == self.source else self.network.adjacency()[vertex]
        position = self.iter_pos.get(vertex, 0)
        levels = self.levels
        next_level = levels[vertex] + 1
        while position < len(arcs):
            arc = arcs[position]
            residual = arc.capacity - arc.flow
            if residual > EPSILON and levels.get(arc.head, -1) == next_level:
                pushed = self.send_blocking_flow(arc.head, min(limit, residual))
                if pushed > EPSILON:
                    arc.push(pushed)
                    self.iter_pos[vertex] = position
                    return pushed
            position += 1
            self.iter_pos[vertex] = position
        return 0.0


def dinic_max_flow(
    network: FlowNetwork,
    source: Vertex,
    sink: Vertex,
    source_arcs: Optional[Sequence[Arc]] = None,
    closed: Container[Vertex] = (),
    sink_arcs: Optional[Mapping[Vertex, Arc]] = None,
) -> float:
    """Augment ``network`` to a maximum flow using Dinic's algorithm.

    Like :func:`edmonds_karp_max_flow`, augmentation starts from the flow
    already on the network and honours ``source_arcs`` and ``closed``, so the
    function may be used incrementally; ``sink_arcs`` is accepted and unused.
    Returns the total flow carried by the source arcs searched.
    """
    if not network.has_vertex(source) or not network.has_vertex(sink):
        return network.flow_value(source)
    if source_arcs is None:
        source_arcs = network.adjacency()[source]
    state = _DinicState(network, source, sink, source_arcs, closed)
    infinity = float("inf")
    while state.build_levels():
        state.iter_pos = {}
        while True:
            pushed = state.send_blocking_flow(source, infinity)
            if pushed <= EPSILON:
                break
    return sum((arc.flow for arc in source_arcs), 0.0)


#: The production solver, under the name every caller uses.  Dinic would leave
#: a different flow but the same residual min cut (the minimal source side of a
#: min cut is unique), so the extracted covers would not change.
solve_max_flow = edmonds_karp_max_flow
