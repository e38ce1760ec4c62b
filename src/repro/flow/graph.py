"""Residual flow-network data structure.

The :class:`FlowNetwork` below is an adjacency-list residual graph supporting
the operations the Delta decision framework needs:

* adding vertices and capacitated edges *incrementally* (the interaction graph
  grows as queries and updates arrive),
* querying residual capacities and current flow on every edge,
* mutating flow along augmenting paths,
* computing the set of vertices reachable from the source in the residual
  graph (used to extract a minimum cut / vertex cover).

Vertices are arbitrary hashable identifiers.  Edges are stored as paired
forward/backward arcs so that pushing flow on one automatically updates the
residual capacity of the other.  Capacities are floats; the module treats any
value below :data:`EPSILON` as zero to keep floating-point arithmetic stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

#: Capacities or residuals below this threshold are treated as zero.
EPSILON = 1e-9

Vertex = Hashable


@dataclass(slots=True)
class Arc:
    """A single directed arc in the residual graph.

    Each logical edge ``u -> v`` with capacity ``c`` is represented by two
    :class:`Arc` objects: the forward arc (capacity ``c``) and the backward
    arc (capacity ``0``).  ``partner`` links the two so that pushing flow on
    one increases the residual capacity of the other.

    Arcs are the single most numerous objects in a run (every augmenting-path
    search touches them all), so the class is slotted and the solvers read
    ``capacity - flow`` directly instead of going through :attr:`residual`.
    """

    tail: Vertex
    head: Vertex
    capacity: float
    flow: float = 0.0
    partner: Optional["Arc"] = field(default=None, repr=False, compare=False)
    #: ``True`` for the arc that carries the original (non-residual) capacity.
    is_forward: bool = True

    @property
    def residual(self) -> float:
        """Remaining capacity on this arc."""
        return self.capacity - self.flow

    def push(self, amount: float) -> None:
        """Push ``amount`` units of flow along this arc.

        The partner arc's flow is decreased by the same amount, which is what
        makes the pair behave as a residual edge.
        """
        if amount < -EPSILON:
            raise ValueError(f"cannot push negative flow {amount!r}")
        if amount > self.residual + EPSILON:
            raise ValueError(
                f"pushing {amount!r} exceeds residual {self.residual!r} on arc "
                f"{self.tail!r}->{self.head!r}"
            )
        self.flow += amount
        if self.partner is not None:
            self.partner.flow -= amount


class FlowNetwork:
    """A mutable residual flow network over hashable vertices.

    The network supports incremental growth: vertices and edges may be added
    at any time, and previously computed flow remains valid (it never exceeds
    any capacity) because capacities only ever increase.  This is exactly the
    property the incremental vertex-cover computation in the UpdateManager
    relies on (Section 4 of the paper).
    """

    __slots__ = ("_adjacency", "_edge_index", "arcs_examined")

    def __init__(self) -> None:
        self._adjacency: Dict[Vertex, List[Arc]] = {}
        self._edge_index: Dict[Tuple[Vertex, Vertex], Arc] = {}
        #: Arcs looked at by augmenting-path searches and reachability passes
        #: so far: a deterministic measure of search work (counted per expanded
        #: vertex, so it costs nothing per arc).
        self.arcs_examined = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` to the network (a no-op if already present)."""
        self._adjacency.setdefault(vertex, [])

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return whether ``vertex`` is present."""
        return vertex in self._adjacency

    def add_edge(self, tail: Vertex, head: Vertex, capacity: float) -> Arc:
        """Add a directed edge ``tail -> head`` with the given capacity.

        If the edge already exists its capacity is *increased* by
        ``capacity``; existing flow is preserved.  Returns the forward arc.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity!r}")
        if tail == head:
            raise ValueError(f"self-loop edges are not allowed ({tail!r})")
        key = (tail, head)
        existing = self._edge_index.get(key)
        if existing is not None:
            existing.capacity += capacity
            return existing
        # Both endpoints join in that order, as :meth:`add_vertex` would add them.
        adjacency = self._adjacency
        tail_arcs = adjacency.get(tail)
        if tail_arcs is None:
            tail_arcs = adjacency[tail] = []
        head_arcs = adjacency.get(head)
        if head_arcs is None:
            head_arcs = adjacency[head] = []
        # Positional: a keyword call to a class packs its arguments into a dict.
        forward = Arc(tail, head, capacity)
        backward = Arc(head, tail, 0.0, 0.0, forward, False)
        forward.partner = backward
        tail_arcs.append(forward)
        head_arcs.append(backward)
        self._edge_index[key] = forward
        return forward

    def remove_vertices(self, vertices: Collection[Vertex]) -> None:
        """Delete ``vertices`` with every arc into and out of them, in place.

        Survivors keep their arcs, flow and adjacency order; the caller
        vouches for the flow left behind.  Costs the arcs removed plus the
        adjacency lists of the survivors that lose one.
        """
        adjacency, edge_index = self._adjacency, self._edge_index
        gone = set(vertices)
        thinned: Dict[Vertex, None] = {}
        for vertex in vertices:
            for arc in adjacency.pop(vertex):
                head = arc.head
                edge_index.pop((vertex, head) if arc.is_forward else (head, vertex), None)
                if head not in gone:
                    thinned[head] = None
        for vertex in thinned:
            adjacency[vertex] = [arc for arc in adjacency[vertex] if arc.head not in gone]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get_edge(self, tail: Vertex, head: Vertex) -> Optional[Arc]:
        """Return the forward arc for edge ``tail -> head`` or ``None``."""
        return self._edge_index.get((tail, head))

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adjacency)

    def adjacency(self) -> Dict[Vertex, List[Arc]]:
        """The vertex -> outgoing-arcs map itself (solver fast path).

        The max-flow solvers walk every arc of the residual graph many times
        per augmentation; handing them the underlying dict avoids a method
        call per visited vertex.  Callers must treat the mapping and its
        lists as read-only.
        """
        return self._adjacency

    def forward_edges(self) -> Iterator[Arc]:
        """Iterate over every forward (original) arc in the network."""
        return iter(self._edge_index.values())

    @property
    def vertex_count(self) -> int:
        """Number of vertices currently in the network."""
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of forward edges currently in the network."""
        return len(self._edge_index)

    def flow_value(self, source: Vertex) -> float:
        """Net flow leaving ``source`` (the value of the current flow).

        Outgoing forward flow minus incoming forward flow.  A reverse arc at
        the source carries ``-flow`` of its inbound partner, so both kinds
        contribute with a plain ``+``.
        """
        total = 0.0
        for arc in self._adjacency.get(source, ()):
            total += arc.flow
        return total

    # ------------------------------------------------------------------
    # Residual reachability (used for min-cut extraction)
    # ------------------------------------------------------------------
    def residual_reachable(self, source: Vertex) -> Set[Vertex]:
        """Vertices reachable from ``source`` using arcs with positive residual."""
        seen: Set[Vertex] = set()
        if source in self._adjacency:
            self.extend_reachable([source], seen)
        return seen

    def extend_reachable(self, roots: Iterable[Vertex], seen: Set[Vertex]) -> List[Vertex]:
        """Grow ``seen`` by everything residual-reachable from ``roots``.

        Vertices already in ``seen`` are neither entered nor expanded, which
        is what lets a caller that knows a region is closed (no residual arc
        leaves it) keep the search out of it.  Returns the vertices added,
        in visit order.
        """
        adjacency = self._adjacency
        added: List[Vertex] = []
        for root in roots:
            if root not in seen:
                seen.add(root)
                added.append(root)
        stack = added[::-1]
        examined = 0
        while stack:
            arcs = adjacency[stack.pop()]
            examined += len(arcs)
            for arc in arcs:
                head = arc.head
                if arc.capacity - arc.flow > EPSILON and head not in seen:
                    seen.add(head)
                    added.append(head)
                    stack.append(head)
        self.arcs_examined += examined
        return added

    # ------------------------------------------------------------------
    # Validation helpers (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def check_flow_conservation(self, source: Vertex, sink: Vertex) -> None:
        """Raise ``AssertionError`` if the current flow is infeasible.

        Checks capacity constraints on every forward arc and flow conservation
        at every vertex other than ``source`` and ``sink``.
        """
        for arc in self._edge_index.values():
            if arc.flow < -EPSILON or arc.flow > arc.capacity + EPSILON:
                raise AssertionError(
                    f"arc {arc.tail!r}->{arc.head!r} violates capacity: "
                    f"flow={arc.flow!r} capacity={arc.capacity!r}"
                )
        balance: Dict[Vertex, float] = {v: 0.0 for v in self._adjacency}
        for arc in self._edge_index.values():
            balance[arc.tail] -= arc.flow
            balance[arc.head] += arc.flow
        for vertex, net in balance.items():
            if vertex in (source, sink):
                continue
            if abs(net) > 1e-6:
                raise AssertionError(f"flow conservation violated at {vertex!r}: net={net!r}")

    def copy(self) -> "FlowNetwork":
        """Return a deep copy of the network (structure, capacities and flow)."""
        clone = FlowNetwork()
        for vertex in self._adjacency:
            clone.add_vertex(vertex)
        for (tail, head), arc in self._edge_index.items():
            new_arc = clone.add_edge(tail, head, arc.capacity)
            new_arc.flow = arc.flow
            assert new_arc.partner is not None
            new_arc.partner.flow = arc.partner.flow if arc.partner is not None else -arc.flow
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(vertices={self.vertex_count}, edges={self.edge_count})"
        )
