"""Incremental, frontier-local maximum flow / minimum-weight vertex cover.

The UpdateManager in VCover (Figure 4/5 of the paper) never recomputes a flow
from scratch.  Instead it keeps the flow network built in the previous
iteration, adds the vertices and edges contributed by the newly arrived query
and its interacting updates, and searches only for *new* augmenting paths.
Because vertices and edges are only ever added (capacities never shrink), the
previous flow remains feasible and serves as the warm start.  The paper notes
that over an entire sequence this costs no more than a single Edmonds-Karp run
on the final network -- ``O(n m^2)`` instead of ``O(n^2 m^2)``.

:class:`IncrementalMaxFlow` goes one step further: a cover costs what the new
vertices can *reach*, not the size of the accumulated network.  Three
invariants make that sound:

1. *Only new source arcs carry residual.*  After :meth:`compute_cover` a left
   vertex is either unreachable from the source -- then its source arc is
   saturated, and stays so, because a vertex is added once and augmenting
   paths never push flow back into the source -- or it lies in the reachable
   set ``S`` of that cover.  The only source arcs worth searching from are
   those of the left vertices added since the last cover.
2. *Reachable sets are closed for good.*  Every arc leaving ``S`` is saturated
   (it is a minimum cut), and :meth:`add_edge` refuses to attach an edge to a
   left vertex inside it, so no arc ever leaves ``S`` again: no augmenting
   path can pass through it, its members stay reachable, and skipping them
   leaves the breadth-first order over everything else unchanged.
   Edmonds-Karp therefore finds the *same paths* and leaves the *same flow*
   as a search over the whole network would.
3. *The cover changes only where the last search went.*  A vertex's cover
   status is its reachability (left: in the cover iff unreachable; right: iff
   reachable), so the vertices whose status changes are exactly those the
   final reachability pass visits from the new vertices.
   :meth:`compute_cover` reports that delta; nothing else is looked at.

A fourth invariant makes one augmentation cost the path it finds rather than
a whole breadth-first level:

4. *The first discovered vertex with sink residual is the first popped one.*
   Breadth-first order is first-in first-out, so testing a right vertex's
   sink arc when the search discovers it, instead of when it pops it, ends
   the search at the same vertex with the same parent arc: the path is plain
   BFS's.  What is skipped is expanding the saturated vertices queued ahead
   of it.  The search learns the sink arc from ``sink_arcs`` (below), which
   must hold every vertex with an arc into the sink for this to be exact.

Bookkeeping.  The caller's vertex keys never enter the network: each vertex
gets a dense integer id, handed out monotonically and never reused, and the
network, the closed set and the hints speak ids only (an int hashes in one
step; a nested key tuple is re-hashed on every ``in parents`` / ``in closed``
/ ``adjacency[...]``).  ``_left_ids`` / ``_right_ids`` map key to id,
``_keys`` maps id back to key for the report, and ``_sink_arcs`` maps a right
vertex's id to its arc into the sink -- which also tells the two sides apart.
:meth:`compact` keeps the survivors' ids and prunes all four tables, with the
weights, to the survivors, so they track the live graph, not history.

One record.  This class is the only record of which vertices are live and how
they are joined; the UpdateManager above it keeps no copy.  The edges are the
network's own edge table.  A left vertex is live while it has an entry in
``_live_degree``, which counts its edges whose right end is live; a right
vertex is live until it enters ``_retired_right``.  Vertices are *retired*
(removed from the cover bookkeeping) to maintain the remainder subgraph of
Section 4, and :meth:`retire` is what notices a left vertex losing its last
live edge.  Retiring only detaches a vertex from the reporting; its arcs and
flow stay in the network, so a retired vertex outside every closed set -- an
update dropped while its sink arc still had capacity, say -- can still carry
flow until :meth:`compact` rebuilds the network without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.flow.graph import EPSILON, Arc, FlowNetwork
from repro.flow.maxflow import solve_max_flow
from repro.flow.vertex_cover import (
    SINK,
    SOURCE,
    BipartiteCoverInstance,
    CoverResult,
    INFINITE_CAPACITY,
)
from repro.perf import PHASE_COVER_SOLVE, add_phase_time, phase_clock

Vertex = Hashable


@dataclass(frozen=True, slots=True)
class CoverDelta:
    """How one :meth:`IncrementalMaxFlow.compute_cover` changed the cover.

    Both tuples hold *active* vertices only, in the (deterministic) order the
    reachability pass visited them.
    """

    #: Left vertices that left the cover (they became reachable).
    uncovered_left: Tuple[Vertex, ...]
    #: Right vertices that entered the cover (they became reachable).
    covered_right: Tuple[Vertex, ...]


class IncrementalMaxFlow:
    """Warm-started min-weight vertex cover over a growing bipartite graph.

    The class mirrors the interface the UpdateManager needs:

    * :meth:`add_left` / :meth:`add_right` register a weighted query/update
      vertex (once: weights never change, which invariant 1 relies on),
    * :meth:`add_edge` registers an interaction and counts it towards the left
      vertex's live degree,
    * :meth:`compute_cover` augments the existing flow from the left vertices
      added since the previous call and returns the resulting change of the
      minimum-weight vertex cover over the *active* (non-retired) vertices,
    * :meth:`retire` removes vertices from the active set (remainder-subgraph
      maintenance) and reports the left vertices left without a live edge;
      their arcs and flow stay in the underlying network so the warm start
      remains valid.
    """

    __slots__ = (
        "_network",
        "_method",
        "_left_weights",
        "_right_weights",
        "_left_ids",
        "_right_ids",
        "_keys",
        "_sink_arcs",
        "_next_id",
        "_live_degree",
        "_retired_right",
        "_open",
        "_closed",
        "_augmentations",
    )

    def __init__(self, method: str = "edmonds-karp") -> None:
        self._network = FlowNetwork()
        self._network.add_vertex(SOURCE)
        self._network.add_vertex(SINK)
        self._method = method
        self._left_weights: Dict[Vertex, float] = {}
        self._right_weights: Dict[Vertex, float] = {}
        #: Network vertex id of every registered vertex, and the way back.
        self._left_ids: Dict[Vertex, int] = {}
        self._right_ids: Dict[Vertex, int] = {}
        self._keys: Dict[Vertex, Vertex] = {}
        #: Right vertex id -> its arc into the sink (invariant 4).
        self._sink_arcs: Dict[Vertex, Arc] = {}
        self._next_id = 0
        #: Live left vertex -> number of its edges whose right end is live.
        #: Its key set *is* the set of live left vertices.
        self._live_degree: Dict[Vertex, int] = {}
        self._retired_right: Set[Vertex] = set()
        #: Source arcs of the left vertices added since the last cover: the
        #: only ones that can still carry flow (invariant 1).
        self._open: List[Arc] = []
        #: Network vertex ids reached by some earlier cover (invariant 2).  The
        #: source is a member so residual arcs back into it are never taken.
        self._closed: Set[Vertex] = {SOURCE}
        self._augmentations = 0

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _mint_id(self, vertex: Vertex) -> int:
        vertex_id = self._next_id
        self._next_id = vertex_id + 1
        self._keys[vertex_id] = vertex
        return vertex_id

    def add_left(self, vertex: Vertex, weight: float) -> None:
        """Register a new left-side (query) vertex with the given weight."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight!r}")
        if vertex in self._left_weights:
            raise ValueError(f"left vertex {vertex!r} has already been added")
        self._left_weights[vertex] = weight
        self._live_degree[vertex] = 0
        vertex_id = self._left_ids[vertex] = self._mint_id(vertex)
        self._open.append(self._network.add_edge(SOURCE, vertex_id, weight))

    def add_right(self, vertex: Vertex, weight: float) -> None:
        """Register a new right-side (update) vertex with the given weight."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight!r}")
        if vertex in self._right_weights:
            raise ValueError(f"right vertex {vertex!r} has already been added")
        self._right_weights[vertex] = weight
        vertex_id = self._right_ids[vertex] = self._mint_id(vertex)
        self._sink_arcs[vertex_id] = self._network.add_edge(vertex_id, SINK, weight)

    def add_edge(self, left: Vertex, right: Vertex) -> None:
        """Register an interaction edge between a query and an update vertex.

        ``left`` must not have been reached by an earlier cover: an edge out
        of a closed set would reopen it (invariant 2).
        """
        left_id = self._left_ids.get(left)
        if left_id is None:
            raise KeyError(f"left vertex {left!r} has not been added")
        right_id = self._right_ids.get(right)
        if right_id is None:
            raise KeyError(f"right vertex {right!r} has not been added")
        if self._network.get_edge(left_id, right_id) is not None:
            return
        if left_id in self._closed:
            raise ValueError(
                f"left vertex {left!r} was reached by an earlier cover and "
                "cannot take new edges"
            )
        self._network.add_edge(left_id, right_id, INFINITE_CAPACITY)
        # Counted here, past the duplicate test above: an edge named twice is
        # one edge, and :meth:`retire` will take it off the count only once.
        if left in self._live_degree and right not in self._retired_right:
            self._live_degree[left] += 1

    def has_left(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is a registered, non-retired left vertex."""
        return vertex in self._live_degree

    def has_right(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is a registered, non-retired right vertex."""
        return vertex in self._right_weights and vertex not in self._retired_right

    # ------------------------------------------------------------------
    # Remainder subgraph maintenance
    # ------------------------------------------------------------------
    def retire(self, left: Iterable[Vertex] = (), right: Iterable[Vertex] = ()) -> List[Vertex]:
        """Mark vertices as retired (excluded from future cover reports).

        The UpdateManager retires update vertices that were picked in a cover
        (their shipping has been paid for) and query vertices that were *not*
        picked (they were answered from cache and can no longer justify future
        shipping).  The underlying arcs keep their flow, preserving the warm
        start; only the reporting changes.

        Returns the left vertices that are still live but whose last live
        edge went with ``right``: edges only ever arrive with a new left
        vertex, so these can never matter to a cover again.  Each newly
        retired right vertex's reverse arcs are walked for this, once in the
        vertex's life.
        """
        live_degree = self._live_degree
        for vertex in left:
            live_degree.pop(vertex, None)
        stranded: List[Vertex] = []
        right_ids, retired_right = self._right_ids, self._retired_right
        keys, adjacency = self._keys, self._network.adjacency()
        for vertex in right:
            right_id = right_ids.get(vertex)
            if right_id is None or vertex in retired_right:
                continue
            retired_right.add(vertex)
            for arc in adjacency[right_id]:
                # Every arc but the one into the sink mirrors an interaction edge.
                if not arc.is_forward:
                    neighbour = keys[arc.head]
                    degree = live_degree.get(neighbour)
                    if degree is not None:
                        live_degree[neighbour] = degree - 1
                        if degree == 1:
                            stranded.append(neighbour)
        return stranded

    @property
    def active_left(self) -> FrozenSet[Vertex]:
        """Currently active (non-retired) left vertices."""
        return frozenset(self._live_degree)

    @property
    def active_right(self) -> FrozenSet[Vertex]:
        """Currently active (non-retired) right vertices."""
        return frozenset(v for v in self._right_weights if v not in self._retired_right)

    def _interaction_edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Every interaction edge in the network, retired endpoints or not."""
        keys = self._keys
        for arc in self._network.forward_edges():
            if arc.tail != SOURCE and arc.head != SINK:
                yield keys[arc.tail], keys[arc.head]

    @property
    def active_edges(self) -> FrozenSet[Tuple[Vertex, Vertex]]:
        """Interaction edges whose both endpoints are active.

        Read off the network's forward edges: for tests, export and
        compaction, not for the decision loop.
        """
        live_degree, retired_right = self._live_degree, self._retired_right
        return frozenset(
            edge
            for edge in self._interaction_edges()
            if edge[0] in live_degree and edge[1] not in retired_right
        )

    def live_degree(self, left: Vertex) -> int:
        """Number of live right vertices ``left`` is joined to (0 once retired)."""
        return self._live_degree.get(left, 0)

    @property
    def live_left_count(self) -> int:
        """Number of live left vertices."""
        return len(self._live_degree)

    @property
    def live_right_count(self) -> int:
        """Number of live right vertices."""
        return len(self._right_weights) - len(self._retired_right)

    @property
    def live_edge_count(self) -> int:
        """Number of interaction edges whose both endpoints are live."""
        return sum(self._live_degree.values())

    @property
    def augmentation_count(self) -> int:
        """Number of times :meth:`compute_cover` has augmented the flow."""
        return self._augmentations

    @property
    def arcs_examined(self) -> int:
        """Arcs looked at by augmentation and reachability so far.

        A deterministic measure of the work :meth:`compute_cover` has done;
        divided by :attr:`augmentation_count` it must not grow with the
        length of the run.
        """
        return self._network.arcs_examined

    # ------------------------------------------------------------------
    # Cover computation
    # ------------------------------------------------------------------
    def compute_cover(self) -> CoverDelta:
        """Augment the warm-started flow and return how the cover changed.

        Augmentation and the reachability pass start at the left vertices
        added since the previous call and stay out of every closed set (see
        the module docstring), so the cost is what those vertices can reach.
        Retired vertices that are not closed keep carrying flow, which is what
        keeps the warm start sound; they are left out of the report.
        """
        start = phase_clock()
        try:
            source_arcs = self._open
            solve_max_flow(
                self._network,
                SOURCE,
                SINK,
                method=self._method,
                source_arcs=source_arcs,
                closed=self._closed,
                sink_arcs=self._sink_arcs,
            )
            self._augmentations += 1
            reached = self._network.extend_reachable(
                [arc.head for arc in source_arcs if arc.capacity - arc.flow > EPSILON],
                self._closed,
            )
            self._open = []
            keys, sink_arcs = self._keys, self._sink_arcs
            live_degree, retired_right = self._live_degree, self._retired_right
            uncovered_left: List[Vertex] = []
            covered_right: List[Vertex] = []
            for vertex_id in reached:
                vertex = keys[vertex_id]
                if vertex_id in sink_arcs:
                    if vertex not in retired_right:
                        covered_right.append(vertex)
                elif vertex in live_degree:
                    uncovered_left.append(vertex)
            return CoverDelta(
                uncovered_left=tuple(uncovered_left), covered_right=tuple(covered_right)
            )
        finally:
            add_phase_time(PHASE_COVER_SOLVE, phase_clock() - start)

    def active_cover(self) -> CoverResult:
        """The whole cover over the active vertices, as of the last cover.

        Read off invariant 3: an active left vertex is in the cover iff no
        cover has reached it, an active right vertex iff one has.  This walks
        every edge, so it is for introspection and tests; the decision loop
        reads the :class:`CoverDelta` instead.
        """
        closed = self._closed
        left_ids, right_ids = self._left_ids, self._right_ids
        left_in_cover = set()
        right_in_cover = set()
        # Populate-only fold into sets: order provably does not matter.
        for left, right in self.active_edges:  # repro-lint: disable=DET003
            if left_ids[left] not in closed:
                left_in_cover.add(left)
            if right_ids[right] in closed:
                right_in_cover.add(right)
        # fsum: exact summation, so the weight is independent of set order.
        weight = math.fsum(self._left_weights[v] for v in left_in_cover) + math.fsum(
            self._right_weights[v] for v in right_in_cover
        )
        return CoverResult(
            left_in_cover=frozenset(left_in_cover),
            right_in_cover=frozenset(right_in_cover),
            weight=weight,
            flow_value=self._network.flow_value(SOURCE),
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    @property
    def retired_count(self) -> int:
        """Number of retired vertices still occupying the underlying network."""
        return len(self._left_weights) - len(self._live_degree) + len(self._retired_right)

    def compact(self) -> None:
        """Rebuild the underlying network with retired vertices removed.

        Retired vertices never receive new edges, so they can only slow the
        augmenting-path searches down.  Compaction rebuilds the network over
        the active vertices only, preserving the decision-relevant state:

        * flow on active-active edges (and the matching flow on their source
          and sink arcs) is carried over unchanged;
        * capacity already *consumed* toward retired counterparts is removed
          from the vertex's arc (a left vertex that pushed ``f`` units into
          now-retired right vertices keeps ``weight - f`` of justification
          capacity), which leaves the residual graph among the survivors
          identical to the un-compacted network;
        * the closed set and the open source arcs are carried over for the
          survivors (a closed set stays closed when vertices are deleted);
        * survivors keep their vertex ids, and the id tables, ``_sink_arcs``
          and the weights are pruned to them; ``_live_degree`` holds live
          vertices and counts live neighbours only, so it carries over as is.

        What compaction does change is that retired vertices outside every
        closed set stop absorbing flow, so *when* it runs is part of the
        decision sequence.
        """
        old_network = self._network
        new_network = FlowNetwork()
        new_network.add_vertex(SOURCE)
        new_network.add_vertex(SINK)
        new_network.arcs_examined = old_network.arcs_examined
        open_left = [arc.head for arc in self._open]

        active_left = self.active_left
        active_right = self.active_right
        surviving_edges = self.active_edges
        # Arc insertion order steers the augmenting-path search, so fix it:
        # the rebuilt network must not depend on set iteration order.
        left_order = sorted(active_left)
        right_order = sorted(active_right)
        edge_order = sorted(surviving_edges)

        # Flow carried by surviving interaction edges, per endpoint.
        consumed_from_left: Dict[Vertex, float] = {v: 0.0 for v in left_order}
        consumed_into_right: Dict[Vertex, float] = {v: 0.0 for v in right_order}
        edge_flows: Dict[Tuple[Vertex, Vertex], float] = {}
        left_ids, right_ids = self._left_ids, self._right_ids
        for left, right in edge_order:
            arc = old_network.get_edge(left_ids[left], right_ids[right])
            flow = max(arc.flow, 0.0) if arc is not None else 0.0
            edge_flows[(left, right)] = flow
            consumed_from_left[left] += flow
            consumed_into_right[right] += flow

        for left in left_order:
            left_id = left_ids[left]
            source_arc = old_network.get_edge(SOURCE, left_id)
            total_pushed = max(source_arc.flow, 0.0) if source_arc is not None else 0.0
            kept_flow = consumed_from_left[left]
            lost_flow = max(total_pushed - kept_flow, 0.0)
            capacity = max(self._left_weights[left] - lost_flow, kept_flow)
            arc = new_network.add_edge(SOURCE, left_id, capacity)
            arc.flow = kept_flow
            assert arc.partner is not None
            arc.partner.flow = -kept_flow
            self._left_weights[left] = capacity
        sink_arcs: Dict[Vertex, Arc] = {}
        for right in right_order:
            right_id = right_ids[right]
            total_received = max(self._sink_arcs[right_id].flow, 0.0)
            kept_flow = consumed_into_right[right]
            lost_flow = max(total_received - kept_flow, 0.0)
            capacity = max(self._right_weights[right] - lost_flow, kept_flow)
            arc = sink_arcs[right_id] = new_network.add_edge(right_id, SINK, capacity)
            arc.flow = kept_flow
            assert arc.partner is not None
            arc.partner.flow = -kept_flow
            self._right_weights[right] = capacity
        for (left, right), flow in edge_flows.items():
            arc = new_network.add_edge(left_ids[left], right_ids[right], INFINITE_CAPACITY)
            arc.flow = flow
            assert arc.partner is not None
            arc.partner.flow = -flow

        self._network = new_network
        self._left_weights = {v: w for v, w in self._left_weights.items() if v in active_left}
        self._right_weights = {v: w for v, w in self._right_weights.items() if v in active_right}
        self._left_ids = {v: i for v, i in left_ids.items() if v in active_left}
        self._right_ids = {v: i for v, i in right_ids.items() if v in active_right}
        self._keys = {i: v for v, i in self._left_ids.items()}
        self._keys.update((i, v) for v, i in self._right_ids.items())
        self._sink_arcs = sink_arcs
        self._retired_right.clear()
        reopened = (new_network.get_edge(SOURCE, head) for head in open_left)
        self._open = [arc for arc in reopened if arc is not None]
        closed = self._closed
        self._closed = {SOURCE}
        self._closed.update(vertex_id for vertex_id in self._keys if vertex_id in closed)

    # ------------------------------------------------------------------
    # Introspection / testing helpers
    # ------------------------------------------------------------------
    def to_instance(self, active_only: bool = True) -> BipartiteCoverInstance:
        """Export the current graph as a standalone cover instance.

        With ``active_only`` (the default) only non-retired vertices and the
        edges between them are exported, which is what an oracle should solve
        to cross-check :meth:`active_cover`.
        """
        if active_only:
            left = {v: w for v, w in self._left_weights.items() if v in self._live_degree}
            right = {
                v: w for v, w in self._right_weights.items() if v not in self._retired_right
            }
            edges = self.active_edges
        else:
            left = dict(self._left_weights)
            right = dict(self._right_weights)
            edges = frozenset(self._interaction_edges())
        return BipartiteCoverInstance(left_weights=left, right_weights=right, edges=edges)

    @property
    def network(self) -> FlowNetwork:
        """The underlying residual network (exposed for tests and metrics)."""
        return self._network

    def left_id(self, vertex: Vertex) -> int:
        """The network vertex standing for left vertex ``vertex`` (for tests)."""
        return self._left_ids[vertex]

    def right_id(self, vertex: Vertex) -> int:
        """The network vertex standing for right vertex ``vertex`` (for tests)."""
        return self._right_ids[vertex]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "IncrementalMaxFlow("
            f"left={len(self._left_weights)}, right={len(self._right_weights)}, "
            f"edges={self._network.edge_count - len(self._keys)}, "
            f"retired={self.retired_count})"
        )
