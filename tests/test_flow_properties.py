"""Property-based tests for the flow layer (hypothesis).

Five families of invariants, each checked against randomly generated
structures rather than hand-picked examples:

* the max-flow solvers certify themselves: both solvers agree, conserve
  flow, and the max-flow value equals the capacity of the residual min cut
  (the LP-duality identity the vertex-cover reduction rests on);
* :func:`repro.flow.vertex_cover.min_weight_vertex_cover` is *exactly*
  optimal: on small random bipartite instances it always returns a valid
  cover whose weight matches the exponential brute-force oracle;
* :class:`repro.core.update_manager.UpdateManager` keeps one record of the
  interaction graph under arbitrary decide / forget sequences -- what it
  reports is what the flow object holds, and the remainder-subgraph pruning
  of Section 4 never leaves a dangling edge or a stale vertex behind;
* the frontier-local cover of :class:`repro.flow.incremental.IncrementalMaxFlow`
  gives the same advice, retirements and flow as a whole-network reference
  kept here for that purpose;
* the bundle network the UpdateManager builds decides what the biclique it
  stands for decides: a test-only manager that joins every (query, update)
  pair directly runs beside it as the oracle.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.update_manager import UpdateManager
from repro.flow import vertex_cover as vertex_cover_module
from repro.flow.graph import FlowNetwork
from repro.flow.incremental import CoverDelta, IncrementalMaxFlow
from repro.flow.maxflow import dinic_max_flow, edmonds_karp_max_flow, solve_max_flow
from repro.flow.vertex_cover import (
    SINK,
    SOURCE,
    brute_force_min_cover,
    build_cover_network,
    min_weight_vertex_cover,
)
from repro.repository.queries import Query
from repro.repository.updates import Update
from tests.strategies import (
    cover_instances,
    flow_networks,
    graph_ops,
    graph_ops_without_drops,
)

#: The production solver and its oracle.
SOLVER_FUNCTIONS = st.sampled_from([edmonds_karp_max_flow, dinic_max_flow])


# ----------------------------------------------------------------------
# Max-flow = min-cut
# ----------------------------------------------------------------------
def _residual_cut_capacity(network: FlowNetwork, source) -> float:
    """Capacity of the cut induced by the residual-reachable source side."""
    reachable = network.residual_reachable(source)
    return sum(
        arc.capacity
        for arc in network.forward_edges()
        if arc.tail in reachable and arc.head not in reachable
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_networks(), solver=SOLVER_FUNCTIONS)
def test_property_max_flow_equals_min_cut(case, solver):
    """On arbitrary networks the flow value equals the residual cut capacity."""
    network, source, sink = case
    flow = solver(network, source, sink)
    network.check_flow_conservation(source, sink)
    assert flow == pytest.approx(_residual_cut_capacity(network, source))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_networks())
def test_property_solvers_agree(case):
    """Edmonds-Karp and its oracle Dinic compute the same max-flow value."""
    network, source, sink = case
    ek = edmonds_karp_max_flow(network.copy(), source, sink)
    dinic = dinic_max_flow(network.copy(), source, sink)
    assert ek == pytest.approx(dinic)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_networks())
def test_property_solvers_agree_on_residual_cut(case):
    """Both solvers induce the same minimal source side of the min cut.

    The minimal source side of a min cut is unique, so the covers extracted
    from the residual graph cannot depend on the solver.
    """
    network, source, sink = case
    ek_network = network.copy()
    dinic_network = network.copy()
    edmonds_karp_max_flow(ek_network, source, sink)
    dinic_max_flow(dinic_network, source, sink)
    dinic_network.check_flow_conservation(source, sink)
    assert ek_network.residual_reachable(source) == dinic_network.residual_reachable(
        source
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=cover_instances(), solver=SOLVER_FUNCTIONS)
def test_property_cover_network_flow_equals_cut(instance, solver):
    """The duality identity holds on the vertex-cover reduction networks too."""
    network = build_cover_network(instance)
    flow = solver(network, SOURCE, SINK)
    assert flow == pytest.approx(_residual_cut_capacity(network, SOURCE))


# ----------------------------------------------------------------------
# Vertex cover vs brute force
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=cover_instances(), solver=SOLVER_FUNCTIONS)
def test_property_vertex_cover_matches_brute_force(instance, solver):
    """The flow-based cover is valid and exactly as light as the oracle's."""
    with mock.patch.object(vertex_cover_module, "solve_max_flow", solver):
        result = min_weight_vertex_cover(instance)
    oracle = brute_force_min_cover(instance)
    assert result.covers(instance.edges)
    assert result.weight == pytest.approx(oracle.weight)
    # LP duality: the certifying flow carries exactly the cover weight.
    assert result.flow_value == pytest.approx(result.weight)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=cover_instances())
def test_property_cover_contains_no_isolated_vertices(instance):
    """Vertices without incident edges are never charged for."""
    result = min_weight_vertex_cover(instance)
    touched = {left for left, _ in instance.edges} | {
        right for _, right in instance.edges
    }
    assert result.cover <= touched


# ----------------------------------------------------------------------
# UpdateManager: one record of the interaction graph
# ----------------------------------------------------------------------
def _reach(flow: IncrementalMaxFlow, vertex_id) -> set:
    """Live right vertices below a network vertex, by walking its forward arcs."""
    adjacency = flow.network.adjacency()
    found, stack = set(), [vertex_id]
    while stack:
        for arc in adjacency[stack.pop()]:
            if not arc.is_forward or arc.head == SINK:
                continue
            if arc.head in flow._sink_arcs:
                if flow.has_right(flow._keys[arc.head]):
                    found.add(flow._keys[arc.head])
            else:
                stack.append(arc.head)
    return found


def _optimum(instance):
    """The exact minimum cover weight (the flow reduction past brute force's reach)."""
    if len(instance.left_weights) <= 10:
        return brute_force_min_cover(instance).weight
    return min_weight_vertex_cover(instance).weight


def _check_one_record(manager: UpdateManager) -> None:
    """Everything the manager reports is read off the one flow object.

    The alive counts are the only thing kept *beside* the network's arcs, so
    their zero-ness is checked against the logical degrees recomputed from
    the arcs; remainder pruning is driven by them and must leave no live
    query without an edge.  The chains are the manager's own index into the
    bundles: each must stand for exactly the live prefix it claims.
    """
    flow = manager._flow
    instance = flow.to_instance()  # its validator checks every edge endpoint
    degree = Counter(left for left, _ in instance.edges)
    assert set(flow._left_alive) == flow.active_left == set(instance.left_weights)
    for left, alive in flow._left_alive.items():
        reach = _reach(flow, flow.left_id(left))
        assert len(reach) == degree[left] > 0, "a live query was left without an edge"
        assert alive > 0
    for bundle, alive in flow._bundle_alive.items():
        assert (alive > 0) == bool(_reach(flow, bundle))
    assert {key for key, _ in manager._updates.values()} == flow.active_right
    stats = manager.stats()
    assert stats["graph_queries"] == len(instance.left_weights)
    assert stats["graph_updates"] == len(instance.right_weights)
    assert stats["graph_edges"] == len(instance.edges) == flow.live_edge_count
    for object_id, chain in manager._chains.items():
        assert chain.members and all(u.object_id == object_id for u in chain.members)
        entries = [manager._updates[u.update_id] for u in chain.members]
        assert [update for _, update in entries] == chain.members
        ends = [end for end, _ in chain.bundles]
        assert ends == sorted(set(ends)) and 0 < ends[0] and ends[-1] <= len(chain.members)
        for end, bundle in chain.bundles:
            assert _reach(flow, bundle) == {key for key, _ in entries[:end]}
    cover = flow.active_cover()
    assert cover.covers(instance.edges)
    if flow.retired_count == 0:
        # Nothing retired is left to absorb flow: the cover is the optimum.
        assert cover.weight == pytest.approx(_optimum(instance))


def _wanted(op, outstanding: dict) -> dict:
    """The ``interacting_updates`` a ``graph_ops`` query stands for."""
    _, _, picks, cuts = op
    wanted: dict[int, list[Update]] = {}
    if cuts:
        for object_id, cut in enumerate(cuts, start=1):
            pending = [u for _, u in sorted(outstanding.items()) if u.object_id == object_id]
            if pending:
                wanted[object_id] = pending[: len(pending) - cut % len(pending)]
    elif outstanding:
        candidates = sorted(outstanding)
        for pick in picks:
            update = outstanding[candidates[pick % len(candidates)]]
            wanted.setdefault(update.object_id, []).append(update)
    return wanted


def _apply(managers, op, op_id: int, outstanding: dict, joined: set):
    """Apply one ``graph_ops`` entry to every manager; return the decisions.

    ``outstanding`` holds the updates not yet shipped or dropped, ``joined``
    the ids of those a query has interacted with (production never adds an
    update vertex without an edge, so an ``update`` op only records it).
    Picks may repeat, so duplicate edges are exercised.
    """
    kind, cost, picks, _ = op
    results = []
    if kind == "update":
        outstanding[op_id] = Update(
            update_id=op_id,
            object_id=1 + (picks[0] % 3 if picks else 0),
            cost=cost,
            timestamp=float(op_id),
        )
    elif kind == "query":
        wanted = _wanted(op, outstanding)
        chosen = {update.update_id for updates in wanted.values() for update in updates}
        query = Query(
            query_id=op_id, object_ids=frozenset({1, 2, 3}), cost=cost, timestamp=float(op_id)
        )
        results = [manager.decide(query, wanted) for manager in managers]
        if not results[0].ship_query:
            # Keeping the query at the cache requires every update it
            # interacts with to be shipped by this or an earlier cover.
            assert chosen <= set(results[0].ship_update_ids)
        joined.update(chosen)
        for update_id in results[0].ship_update_ids:
            del outstanding[update_id]
    elif outstanding:  # drop
        candidates = sorted(outstanding)
        chosen = {candidates[pick % len(candidates)] for pick in picks}
        for manager in managers:
            manager.forget_updates(sorted(chosen))
        for update_id in chosen:
            del outstanding[update_id]
    joined.intersection_update(outstanding)
    return results


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops)
def test_property_interaction_graph_advice_covers_interactions(ops):
    """Advice is a cover: a kept query never leaves an interaction unpaid.

    And arbitrary decide / forget sequences never leave a dangling edge, a
    stale vertex, a miscounted vertex or a chain out of step behind.
    """
    manager = UpdateManager()
    outstanding: dict[int, Update] = {}
    joined: set[int] = set()
    for op_id, op in enumerate(ops, start=1):
        _apply([manager], op, op_id, outstanding, joined)
        _check_one_record(manager)
        assert manager.active_update_ids() == joined


# ----------------------------------------------------------------------
# Frontier-local cover vs a whole-network reference
# ----------------------------------------------------------------------
def _global_cover(flow: IncrementalMaxFlow):
    """Cover over the active edges from whole-network reachability."""
    reachable = flow.network.residual_reachable(SOURCE)
    edges = flow.active_edges
    return (
        frozenset(left for left, _ in edges if flow.left_id(left) not in reachable),
        frozenset(right for _, right in edges if flow.right_id(right) in reachable),
    )


class GlobalCoverFlow(IncrementalMaxFlow):
    """Whole-network reference for the frontier-local cover (test oracle).

    Every call searches from *all* source arcs with no hint at all -- no
    closed set, no ``sink_arcs``, so the sink is only ever found from a popped
    vertex -- recomputes reachability from the source over the whole
    accumulated network, bundles and all, and reads the full cover off the
    active edges; the delta is whatever the remainder protocol would then
    retire.  Arc-by-arc flow equality with it therefore certifies the
    discovery-time sink test against plain breadth-first search as well.
    """

    __slots__ = ()

    def compute_cover(self) -> CoverDelta:
        self._open = []
        solve_max_flow(self._network, SOURCE, SINK)
        left_in_cover, right_in_cover = _global_cover(self)
        return CoverDelta(
            uncovered_left=tuple(sorted(self.active_left - left_in_cover)),
            covered_right=tuple(sorted(right_in_cover)),
        )


class TunableManager(UpdateManager):
    """:class:`UpdateManager` with an instance ``__dict__``, so a test can set
    ``COMPACTION_SLACK`` per manager (the production class is slotted)."""


def _flows(manager: UpdateManager) -> dict:
    return {(arc.tail, arc.head): arc.flow for arc in manager._flow.network.forward_edges()}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops, slack=st.sampled_from([0, 3, 256]))
def test_property_frontier_cover_matches_global_reference(ops, slack):
    """Same advice, same retirements, same flow as searching the whole network.

    Driven through :class:`UpdateManager` (the only production caller), on
    the bundle network, across drops, scheduled compactions (``slack``) and
    forced ones.
    """
    local, reference = TunableManager(), TunableManager()
    reference._flow = GlobalCoverFlow()
    local.COMPACTION_SLACK = reference.COMPACTION_SLACK = slack
    outstanding: dict[int, Update] = {}
    joined: set[int] = set()
    for op_id, op in enumerate(ops, start=1):
        results = _apply([local, reference], op, op_id, outstanding, joined)
        if results:
            assert results[0] == results[1]
        if len(op[2]) == 4:
            local._flow.compact()
            reference._flow.compact()
        _check_one_record(local)
        assert local.active_update_ids() == joined
        assert local._flow.active_left == reference._flow.active_left
        assert local._flow._left_alive == reference._flow._left_alive
        assert local._flow._bundle_alive == reference._flow._bundle_alive
        assert local._flow._retired_right == reference._flow._retired_right
        assert local._flow.retired_count == reference._flow.retired_count
        assert local._updates == reference._updates
        assert local._chains == reference._chains
        assert local.stats() == reference.stats()
        assert local._flow.to_instance() == reference._flow.to_instance()
        assert _flows(local) == _flows(reference)
        # Invariant 3: the status nobody looked at is still the true one.
        cover, truth = local._flow.active_cover(), _global_cover(reference._flow)
        assert cover.left_in_cover == truth[0]
        assert cover.right_in_cover == truth[1]


# ----------------------------------------------------------------------
# Bundles vs the biclique they stand for
# ----------------------------------------------------------------------
class _WatchedFlow(IncrementalMaxFlow):
    """Notes whether a compaction ever took weight off a live left vertex."""

    __slots__ = ("lossy",)

    def __init__(self) -> None:
        super().__init__()
        self.lossy = False

    def compact(self) -> None:
        before = {left: self._weight(self._left_ids[left]) for left in self._left_alive}
        super().compact()
        self.lossy |= any(self._weight(self._left_ids[left]) != w for left, w in before.items())


class BicliqueManager(TunableManager):
    """The construction the bundles replaced, kept as the oracle.

    Joins the query to each update it must see by an edge of its own:
    |Q_o| x |U_o| arcs per object, no bundle, no chain.
    """

    def _join(self, query_key, object_id, wanted) -> None:
        for update in wanted:
            self._flow.add_edge(query_key, self._update_key(update))


def _oracle_pair(slack: int):
    managers = TunableManager(), BicliqueManager()
    for manager in managers:
        manager._flow = _WatchedFlow()
        manager.COMPACTION_SLACK = slack
    return managers


def _assert_same_graph(bundled: UpdateManager, oracle: UpdateManager) -> None:
    """The two managers stand for the same graph in the same state."""
    ours, theirs = bundled._flow, oracle._flow
    assert not theirs._bundle_alive and not oracle._chains
    assert ours.active_left == theirs.active_left
    assert ours._retired_right == theirs._retired_right
    # Retired vertices leave at the same compactions ...
    assert ours.retired_count == theirs.retired_count
    assert set(ours._left_ids) == set(theirs._left_ids)
    assert set(ours._right_ids) == set(theirs._right_ids)
    assert bundled._updates == oracle._updates
    assert bundled.stats() == oracle.stats()
    # ... with the same weights left on the survivors.
    assert ours.to_instance() == theirs.to_instance()
    assert ours.active_cover() == theirs.active_cover()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops_without_drops, slack=st.sampled_from([0, 3, 256]))
def test_property_bundles_match_the_biclique_oracle(ops, slack):
    """One arc per (query, object) decides what one arc per (query, update) does.

    Without drops nothing retired lies outside a closed set, so scheduled
    (``slack``) and forced compactions lose nothing and the two managers
    agree on everything but the arcs.
    """
    bundled, oracle = _oracle_pair(slack)
    outstanding: dict[int, Update] = {}
    joined: set[int] = set()
    for op_id, op in enumerate(ops, start=1):
        results = _apply([bundled, oracle], op, op_id, outstanding, joined)
        if results:
            assert results[0] == results[1]
        if len(op[2]) == 4:
            bundled._flow.compact()
            oracle._flow.compact()
        _check_one_record(bundled)
        _check_one_record(oracle)
        _assert_same_graph(bundled, oracle)
        assert not bundled._flow.lossy and not oracle._flow.lossy


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops, slack=st.sampled_from([0, 3, 256]))
def test_property_bundles_match_the_biclique_oracle_across_drops(ops, slack):
    """With drops the two agree until a compaction costs a live query weight.

    A live query carrying flow into a dropped update that no cover closed
    loses that flow's worth of weight when the update is compacted away, and
    how much it carried depends on the maximum flow the searches found --
    which differs between the two networks.  From then on each manager runs
    in its own world and answers to :func:`_check_one_record` alone: a valid
    cover, exactly as light as the optimum of the graph it exports.
    """
    managers = _oracle_pair(slack)
    worlds = [({}, set()), ({}, set())]
    agree = True
    for op_id, op in enumerate(ops, start=1):
        results = [
            _apply([manager], op, op_id, *world)
            for manager, world in zip(managers, worlds, strict=True)
        ]
        for manager in managers:
            if len(op[2]) == 4:
                manager._flow.compact()
            _check_one_record(manager)
        agree = agree and not any(manager._flow.lossy for manager in managers)
        if agree:
            assert results[0] == results[1]
            _assert_same_graph(*managers)
