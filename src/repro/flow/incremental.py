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

Bundles.  Between the two sides sits a third kind of vertex, the *bundle*:
no source arc, no sink arc, infinite arcs in (from left vertices and other
bundles) and out (to right vertices and one *base* bundle).  A left vertex
joined to a bundle reaches every right vertex below it, so left vertices that
share right vertices cost one arc each instead of a biclique.  Infinite arcs
are never cut and the minimal source side of a minimum cut is unique, so
every :class:`CoverDelta` is what the expanded bipartite graph gives; only
the augmenting paths differ.  Invariants 1-4 carry over: a bundle reached by
a cover is closed with everything below it, a closed tail is still refused,
and a bundle has no ``sink_arcs`` entry.

Bookkeeping.  The caller's vertex keys never enter the network: each vertex
gets a dense integer id, handed out monotonically and never reused, and the
network, the closed set and the hints speak ids only (an int hashes in one
step; a nested key tuple is re-hashed on every ``in parents`` / ``in closed``
/ ``adjacency[...]``).  ``_left_ids`` / ``_right_ids`` map key to id,
``_keys`` maps id back to key for the report, ``_sink_arcs`` maps a right
vertex's id to its arc into the sink; a bundle is its id, told apart by its
``_bundle_alive`` entry.  A vertex's weight is the capacity of its source or
sink arc; no table copies it.

One record.  This class is the only record of which vertices are live and how
they are joined; the UpdateManager above it keeps no copy.  A left vertex is
live while it has an entry in ``_left_alive``, a right vertex until it enters
``_retired_right``.  ``_left_alive`` and ``_bundle_alive`` count *alive
out-neighbours* -- a right vertex until retired, a bundle while its own count
is positive -- so a count is zero exactly when no live right vertex is
reached.  The *logical* edges, (left, right) pairs joined directly or through
bundles, are what :attr:`active_edges`, :attr:`live_edge_count` and
:meth:`to_instance` speak, expanded on demand for reports and tests only.
Vertices are *retired* to maintain the remainder subgraph of Section 4, and
:meth:`retire` is what notices a left vertex losing its last live edge.
Retiring only detaches a vertex from the reporting; its arcs and flow stay,
so a retired vertex outside every closed set -- an update dropped while its
sink arc still had capacity, say -- can still carry flow until
:meth:`compact` takes it out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.flow.graph import EPSILON, Arc, FlowNetwork
from repro.flow.maxflow import solve_max_flow
from repro.flow.vertex_cover import (
    SINK,
    SOURCE,
    BipartiteCoverInstance,
    CoverResult,
    INFINITE_CAPACITY,
)

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
    * :meth:`add_edge` joins a left vertex to one right vertex, and
      :meth:`add_bundle` / :meth:`add_bundle_edge` to many by one arc,
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
        "_left_ids",
        "_right_ids",
        "_keys",
        "_sink_arcs",
        "_next_id",
        "_left_alive",
        "_bundle_alive",
        "_retired_right",
        "_open",
        "_closed",
        "_augmentations",
    )

    def __init__(self) -> None:
        self._network = FlowNetwork()
        self._network.add_vertex(SOURCE)
        self._network.add_vertex(SINK)
        #: Network vertex id of every registered vertex, and the way back.
        self._left_ids: Dict[Vertex, int] = {}
        self._right_ids: Dict[Vertex, int] = {}
        self._keys: Dict[Vertex, Vertex] = {}
        #: Right vertex id -> its arc into the sink (invariant 4).
        self._sink_arcs: Dict[Vertex, Arc] = {}
        self._next_id = itertools.count()
        #: Live left vertex -> its alive out-neighbours; the key set *is* the live set.
        self._left_alive: Dict[Vertex, int] = {}
        #: Bundle id -> its alive out-neighbours, dead at zero; in id order.
        self._bundle_alive: Dict[Vertex, int] = {}
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
    def add_left(self, vertex: Vertex, weight: float) -> None:
        """Register a new left-side (query) vertex with the given weight."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight!r}")
        if vertex in self._left_ids:
            raise ValueError(f"left vertex {vertex!r} has already been added")
        self._left_alive[vertex] = 0
        vertex_id = self._left_ids[vertex] = next(self._next_id)
        self._keys[vertex_id] = vertex
        self._open.append(self._network.add_edge(SOURCE, vertex_id, weight))

    def add_right(self, vertex: Vertex, weight: float) -> None:
        """Register a new right-side (update) vertex with the given weight."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight!r}")
        if vertex in self._right_ids:
            raise ValueError(f"right vertex {vertex!r} has already been added")
        vertex_id = self._right_ids[vertex] = next(self._next_id)
        self._keys[vertex_id] = vertex
        self._sink_arcs[vertex_id] = self._network.add_edge(vertex_id, SINK, weight)

    def add_bundle(self, rights: Iterable[Vertex], base: Optional[int] = None) -> int:
        """Register a bundle over ``rights`` and all that bundle ``base`` reaches; return it."""
        network, retired_right = self._network, self._retired_right
        bundle_id = next(self._next_id)
        alive = 0
        if base is not None:
            alive = int(self._bundle_alive[base] > 0)
            network.add_edge(bundle_id, base, INFINITE_CAPACITY)
        for right in rights:
            right_id = self._right_ids.get(right)
            if right_id is None:
                raise KeyError(f"right vertex {right!r} has not been added")
            # A right vertex named twice is one arc, counted once.
            if network.get_edge(bundle_id, right_id) is None:
                network.add_edge(bundle_id, right_id, INFINITE_CAPACITY)
                if right not in retired_right:
                    alive += 1
        self._bundle_alive[bundle_id] = alive
        return bundle_id

    def add_edge(self, left: Vertex, right: Vertex) -> None:
        """Register an interaction edge between a query and an update vertex.

        ``left`` must not have been reached by an earlier cover: an edge out
        of a closed set would reopen it (invariant 2).
        """
        right_id = self._right_ids.get(right)
        if right_id is None:
            raise KeyError(f"right vertex {right!r} has not been added")
        self._join(left, right_id, right not in self._retired_right)

    def add_bundle_edge(self, left: Vertex, bundle: int) -> None:
        """Join ``left`` to every right vertex below ``bundle`` (:meth:`add_edge`'s rules)."""
        self._join(left, bundle, self._bundle_alive[bundle] > 0)

    def _join(self, left: Vertex, head_id: int, head_alive: bool) -> None:
        left_id = self._left_ids.get(left)
        if left_id is None:
            raise KeyError(f"left vertex {left!r} has not been added")
        if self._network.get_edge(left_id, head_id) is not None:
            return
        if left_id in self._closed:
            raise ValueError(f"left vertex {left!r} was reached by a cover: it takes no new edge")
        self._network.add_edge(left_id, head_id, INFINITE_CAPACITY)
        # Counted here, past the duplicate test above: an edge named twice is
        # one edge, and :meth:`retire` will take it off the count only once.
        if head_alive and left in self._left_alive:
            self._left_alive[left] += 1

    def has_left(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is a registered, non-retired left vertex."""
        return vertex in self._left_alive

    def has_right(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is a registered, non-retired right vertex."""
        return vertex in self._right_ids and vertex not in self._retired_right

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
        vertex, so these can never matter to a cover again.  The reverse arcs
        of each newly retired right vertex are walked for this and, in the
        same pass, those of each bundle that dies with it -- every arc once.
        A count is zero exactly when no live right vertex is reached, so the
        call reports whom it would were every edge a direct one.
        """
        left_alive, bundle_alive = self._left_alive, self._bundle_alive
        for vertex in left:
            left_alive.pop(vertex, None)
        stranded: List[Vertex] = []
        right_ids, retired_right = self._right_ids, self._retired_right
        keys, adjacency = self._keys, self._network.adjacency()
        for vertex in right:
            right_id = right_ids.get(vertex)
            if right_id is None or vertex in retired_right:
                continue
            retired_right.add(vertex)
            dead = [right_id]
            while dead:
                for arc in adjacency[dead.pop()]:
                    # Every arc but those towards the sink mirrors an arc in.
                    if arc.is_forward:
                        continue
                    tail = arc.head
                    count = bundle_alive.get(tail)
                    if count is not None:
                        bundle_alive[tail] = count - 1
                        if count == 1:
                            dead.append(tail)
                        continue
                    neighbour = keys[tail]
                    count = left_alive.get(neighbour)
                    if count is not None:
                        left_alive[neighbour] = count - 1
                        if count == 1:
                            stranded.append(neighbour)
        return stranded

    @property
    def active_left(self) -> FrozenSet[Vertex]:
        """Currently active (non-retired) left vertices."""
        return frozenset(self._left_alive)

    @property
    def active_right(self) -> FrozenSet[Vertex]:
        """Currently active (non-retired) right vertices."""
        return frozenset(v for v in self._right_ids if v not in self._retired_right)

    def _live_reach(self) -> Dict[Vertex, List[Vertex]]:
        """Live left vertex -> the live right vertices it reaches: the logical edges.

        In id order, so a bundle's reach is memoised before anything above it
        asks.  (A right vertex below two bundles of one left vertex would be
        listed twice; the UpdateManager builds none such.)
        """
        keys, sink_arcs, retired_right = self._keys, self._sink_arcs, self._retired_right
        adjacency = self._network.adjacency()
        below: Dict[Vertex, List[Vertex]] = {}

        def reach(vertex_id: Vertex) -> List[Vertex]:
            found: List[Vertex] = []
            for arc in adjacency[vertex_id]:
                if not arc.is_forward:
                    continue
                if arc.head not in sink_arcs:
                    found.extend(below[arc.head])
                elif keys[arc.head] not in retired_right:
                    found.append(keys[arc.head])
            return found

        for bundle_id in self._bundle_alive:
            below[bundle_id] = reach(bundle_id)
        return {left: reach(self._left_ids[left]) for left in self._left_alive}

    @property
    def active_edges(self) -> FrozenSet[Tuple[Vertex, Vertex]]:
        """Logical edges whose both endpoints are active (for tests and export)."""
        return frozenset(
            (left, right) for left, rights in self._live_reach().items() for right in rights
        )

    def live_degree(self, left: Vertex) -> int:
        """Alive out-neighbours of ``left``: positive exactly while a live right is reached."""
        return self._left_alive.get(left, 0)

    @property
    def live_left_count(self) -> int:
        """Number of live left vertices."""
        return len(self._left_alive)

    @property
    def live_right_count(self) -> int:
        """Number of live right vertices."""
        return len(self._right_ids) - len(self._retired_right)

    @property
    def live_edge_count(self) -> int:
        """Number of logical edges, counted on demand: only reports and tests read it."""
        return sum(len(rights) for rights in self._live_reach().values())

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
        source_arcs = self._open
        solve_max_flow(
            self._network,
            SOURCE,
            SINK,
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
        left_alive, retired_right = self._left_alive, self._retired_right
        bundle_alive = self._bundle_alive
        uncovered_left: List[Vertex] = []
        covered_right: List[Vertex] = []
        for vertex_id in reached:
            if vertex_id in sink_arcs:
                if keys[vertex_id] not in retired_right:
                    covered_right.append(keys[vertex_id])
            elif vertex_id not in bundle_alive and keys[vertex_id] in left_alive:
                uncovered_left.append(keys[vertex_id])  # (a bundle is on neither side)
        return CoverDelta(
            uncovered_left=tuple(uncovered_left), covered_right=tuple(covered_right)
        )

    def _weight(self, vertex_id: Vertex) -> float:
        """A vertex's weight: the capacity of its sink arc, or else of its source arc."""
        arc = self._sink_arcs.get(vertex_id) or self._network.get_edge(SOURCE, vertex_id)
        assert arc is not None
        return arc.capacity

    def active_cover(self) -> CoverResult:
        """The whole cover over the active vertices, as of the last cover.

        Read off invariant 3: an active left vertex is in the cover iff no
        cover has reached it, an active right vertex iff one has.  This walks
        every logical edge, so it is for introspection and tests; the decision
        loop reads the :class:`CoverDelta` instead.
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
        weight = math.fsum(self._weight(left_ids[v]) for v in left_in_cover) + math.fsum(
            self._weight(right_ids[v]) for v in right_in_cover
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
        """Retired left and right vertices still in the network.

        Bundles are on neither side, so the compaction schedule -- part of
        the decision sequence -- is what it would be without them.
        """
        return len(self._left_ids) - len(self._left_alive) + len(self._retired_right)

    def compact(self) -> None:
        """Take retired vertices and dead bundles out of the network, in place.

        They never receive new edges, so they only slow the searches down.
        Survivors keep ids, arcs, flow and adjacency order: nothing is rebuilt
        or sorted, a compaction costs what it removes.  A closed set goes as
        it is -- no flow crosses into it from the open side (the arc would
        leave a residual arc out), and under the UpdateManager everything
        closed is retired or dead.  Where a doomed vertex outside every
        closed set exchanges flow with a survivor, that flow is cancelled on
        the survivor's side along the arcs that carry it, and the source or
        sink arcs at their end lose the same capacity (a left vertex that
        pushed ``f`` units into now-retired right vertices keeps ``weight -
        f``).  The residual graph among the survivors is what it was.

        What it does change: retired vertices outside every closed set stop
        absorbing flow, so *when* it runs is part of the decision sequence,
        and what a *live* left vertex loses to one depends on which maximum
        flow the searches found.
        """
        left_alive, retired_right = self._left_alive, self._retired_right
        # In table order, never set order: cancelling is order-sensitive.
        doomed = [i for vertex, i in self._left_ids.items() if vertex not in left_alive]
        doomed += [i for vertex, i in self._right_ids.items() if vertex in retired_right]
        doomed += [i for i, count in self._bundle_alive.items() if not count]
        gone = set(doomed)
        adjacency = self._network.adjacency()
        # (survivor, flow it exchanges with a doomed vertex, whether it sends it)
        pending = [
            (arc.head, abs(arc.flow), not arc.is_forward)
            for vertex_id in doomed
            for arc in adjacency[vertex_id]
            if arc.head not in gone and arc.head != SOURCE and arc.head != SINK
        ]
        while pending:
            # Flow sent is cancelled upstream to the source arcs, flow received
            # downstream to the sink arcs, over surviving vertices only.
            vertex_id, amount, upstream = pending.pop()
            for arc in adjacency[vertex_id]:
                if amount <= EPSILON:
                    break
                if arc.is_forward is upstream or arc.head in gone:
                    continue
                carrier = arc.partner if upstream else arc
                assert carrier is not None and carrier.partner is not None
                taken = min(amount, carrier.flow)
                if taken > EPSILON:
                    carrier.flow -= taken
                    carrier.partner.flow += taken
                    amount -= taken
                    if arc.head == (SOURCE if upstream else SINK):
                        carrier.capacity -= taken
                    else:
                        pending.append((arc.head, taken, upstream))
        self._network.remove_vertices(doomed)
        self._left_ids = {v: i for v, i in self._left_ids.items() if v in left_alive}
        self._right_ids = {v: i for v, i in self._right_ids.items() if v not in retired_right}
        self._keys = {i: v for i, v in self._keys.items() if i not in gone}
        self._sink_arcs = {i: arc for i, arc in self._sink_arcs.items() if i not in gone}
        self._bundle_alive = {i: count for i, count in self._bundle_alive.items() if count}
        self._retired_right = set()
        self._open = [arc for arc in self._open if arc.head not in gone]
        self._closed = self._closed.difference(gone)

    # ------------------------------------------------------------------
    # Introspection / testing helpers
    # ------------------------------------------------------------------
    def to_instance(self) -> BipartiteCoverInstance:
        """Export the active vertices, their weights now and the logical edges (for oracles)."""
        weight, retired = self._weight, self._retired_right
        return BipartiteCoverInstance(
            left_weights={v: weight(self._left_ids[v]) for v in self._left_alive},
            right_weights={v: weight(i) for v, i in self._right_ids.items() if v not in retired},
            edges=self.active_edges,
        )

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
            f"IncrementalMaxFlow(left={len(self._left_ids)}, right={len(self._right_ids)}, "
            f"bundles={len(self._bundle_alive)}, "
            f"arcs={self._network.edge_count - len(self._keys)}, retired={self.retired_count})"
        )
