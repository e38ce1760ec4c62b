"""Property-based tests for the flow layer (hypothesis).

Three families of invariants, each checked against randomly generated
structures rather than hand-picked examples:

* the max-flow solvers certify themselves: both methods agree, conserve
  flow, and the max-flow value equals the capacity of the residual min cut
  (the LP-duality identity the vertex-cover reduction rests on);
* :func:`repro.flow.vertex_cover.min_weight_vertex_cover` is *exactly*
  optimal: on small random bipartite instances it always returns a valid
  cover whose weight matches the exponential brute-force oracle;
* :class:`repro.core.interaction_graph.InteractionGraph` keeps its incidence
  maps consistent under arbitrary add / advise / drop sequences -- the
  remainder-subgraph pruning of Section 4 must never leave dangling edges or
  stale vertices behind;
* the frontier-local cover of :class:`repro.flow.incremental.IncrementalMaxFlow`
  gives the same advice, retirements and flow as a whole-network reference
  kept here for that purpose.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.interaction_graph import InteractionGraph
from repro.flow.graph import FlowNetwork
from repro.flow.incremental import CoverDelta, IncrementalMaxFlow
from repro.flow.maxflow import solve_max_flow
from repro.flow.vertex_cover import (
    SINK,
    SOURCE,
    brute_force_min_cover,
    build_cover_network,
    min_weight_vertex_cover,
)
from repro.repository.queries import Query
from repro.repository.updates import Update
from tests.strategies import cover_instances, flow_networks, graph_ops


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
@given(case=flow_networks())
def test_property_max_flow_equals_min_cut(case):
    """On arbitrary networks the flow value equals the residual cut capacity."""
    network, source, sink = case
    flow = solve_max_flow(network, source, sink, method="edmonds-karp")
    network.check_flow_conservation(source, sink)
    assert flow == pytest.approx(_residual_cut_capacity(network, source))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flow_networks())
def test_property_solvers_agree(case):
    """Edmonds-Karp and its oracle Dinic compute the same max-flow value."""
    network, source, sink = case
    ek = solve_max_flow(network.copy(), source, sink, method="edmonds-karp")
    dinic = solve_max_flow(network.copy(), source, sink, method="dinic")
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
    solve_max_flow(ek_network, source, sink, method="edmonds-karp")
    solve_max_flow(dinic_network, source, sink, method="dinic")
    dinic_network.check_flow_conservation(source, sink)
    assert ek_network.residual_reachable(source) == dinic_network.residual_reachable(
        source
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=cover_instances())
def test_property_cover_network_flow_equals_cut(instance):
    """The duality identity holds on the vertex-cover reduction networks too."""
    network = build_cover_network(instance)
    flow = solve_max_flow(network, SOURCE, SINK, method="dinic")
    assert flow == pytest.approx(_residual_cut_capacity(network, SOURCE))


# ----------------------------------------------------------------------
# Vertex cover vs brute force
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    instance=cover_instances(),
    method=st.sampled_from(["edmonds-karp", "dinic"]),
)
def test_property_vertex_cover_matches_brute_force(instance, method):
    """The flow-based cover is valid and exactly as light as the oracle's."""
    result = min_weight_vertex_cover(instance, method=method)
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
# InteractionGraph incidence consistency
# ----------------------------------------------------------------------
def _check_incidence_consistency(graph: InteractionGraph) -> None:
    """The incidence maps must stay symmetric and reference only active keys."""
    active_updates = set(graph._active_update_keys.values())
    assert set(graph._edges_by_query) <= graph._active_query_keys
    assert set(graph._edges_by_update) <= active_updates
    for query_key, update_keys in graph._edges_by_query.items():
        assert update_keys, "empty incidence sets must be removed"
        for update_key in update_keys:
            assert query_key in graph._edges_by_update[update_key]
    for update_key, query_keys in graph._edges_by_update.items():
        assert query_keys, "empty incidence sets must be removed"
        for query_key in query_keys:
            assert update_key in graph._edges_by_query[query_key]
    assert graph.edge_count == sum(
        len(keys) for keys in graph._edges_by_update.values()
    )
    # Pruning is driven by the queries that just lost an edge; it must still
    # leave no kept query without one.
    assert set(graph._edges_by_query) == graph._active_query_keys
    # The exported instance must be self-consistent (its validator checks
    # every edge endpoint has a weight).
    graph.to_instance()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops)
def test_property_interaction_graph_incidence_consistency(ops):
    """Arbitrary add/advise/drop sequences never corrupt the remainder graph."""
    graph = InteractionGraph()
    outstanding: dict[int, Update] = {}
    next_id = 0
    for kind, cost, picks in ops:
        next_id += 1
        if kind == "update":
            update = Update(
                update_id=next_id, object_id=1, cost=cost, timestamp=float(next_id)
            )
            graph.add_update(update)
            outstanding[next_id] = update
        elif kind == "query":
            query = Query(
                query_id=next_id,
                object_ids=frozenset({1}),
                cost=cost,
                timestamp=float(next_id),
            )
            graph.add_query(query)
            candidates = sorted(outstanding)
            for pick in picks:
                if candidates:
                    graph.add_interaction(
                        query, outstanding[candidates[pick % len(candidates)]]
                    )
            advice = graph.advise(query)
            for update_id in advice.ship_updates:
                outstanding.pop(update_id, None)
        else:  # drop
            candidates = sorted(outstanding)
            dropped = {
                candidates[pick % len(candidates)] for pick in picks if candidates
            }
            graph.drop_updates(dropped)
            for update_id in dropped:
                outstanding.pop(update_id, None)
        _check_incidence_consistency(graph)
        assert graph.active_update_ids() == frozenset(outstanding)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops)
def test_property_interaction_graph_advice_covers_interactions(ops):
    """Advice is a cover: a kept query never leaves an interaction unpaid."""
    graph = InteractionGraph()
    outstanding: dict[int, Update] = {}
    next_id = 0
    for kind, cost, picks in ops:
        next_id += 1
        if kind == "update":
            update = Update(
                update_id=next_id, object_id=1, cost=cost, timestamp=float(next_id)
            )
            graph.add_update(update)
            outstanding[next_id] = update
        elif kind == "query":
            query = Query(
                query_id=next_id,
                object_ids=frozenset({1}),
                cost=cost,
                timestamp=float(next_id),
            )
            graph.add_query(query)
            candidates = sorted(outstanding)
            interacting = set()
            for pick in picks:
                if candidates:
                    chosen = candidates[pick % len(candidates)]
                    graph.add_interaction(query, outstanding[chosen])
                    interacting.add(chosen)
            advice = graph.advise(query)
            if not advice.ship_query:
                # Keeping the query at the cache requires every update it
                # interacts with to be shipped by this or an earlier cover.
                assert interacting <= set(advice.ship_updates)
            for update_id in advice.ship_updates:
                outstanding.pop(update_id, None)
        else:
            candidates = sorted(outstanding)
            dropped = {
                candidates[pick % len(candidates)] for pick in picks if candidates
            }
            graph.drop_updates(dropped)
            for update_id in dropped:
                outstanding.pop(update_id, None)


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
    accumulated network and reads the full cover off the active edges; the
    delta is whatever the remainder protocol would then retire.  Arc-by-arc
    flow equality with it therefore certifies the discovery-time sink test
    against plain breadth-first search as well.
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


def _flows(graph: InteractionGraph) -> dict:
    return {(arc.tail, arc.head): arc.flow for arc in graph._flow.network.forward_edges()}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=graph_ops, slack=st.sampled_from([0, 3, 256]))
def test_property_frontier_cover_matches_global_reference(ops, slack):
    """Same advice, same retirements, same flow as searching the whole network.

    Driven through :class:`InteractionGraph` (the only production caller)
    across drops, scheduled compactions (``slack``) and forced ones.
    """
    local, reference = InteractionGraph(), InteractionGraph()
    reference._flow = GlobalCoverFlow()
    local.COMPACTION_SLACK = reference.COMPACTION_SLACK = slack
    outstanding: dict[int, Update] = {}
    next_id = 0
    for kind, cost, picks in ops:
        next_id += 1
        candidates = sorted(outstanding)
        chosen = [candidates[pick % len(candidates)] for pick in picks if candidates]
        if kind == "update":
            update = Update(
                update_id=next_id, object_id=1, cost=cost, timestamp=float(next_id)
            )
            outstanding[next_id] = update
            for graph in (local, reference):
                graph.add_update(update)
        elif kind == "query":
            query = Query(
                query_id=next_id,
                object_ids=frozenset({1}),
                cost=cost,
                timestamp=float(next_id),
            )
            advice = []
            for graph in (local, reference):
                graph.add_query(query)
                for update_id in chosen:
                    graph.add_interaction(query, outstanding[update_id])
                advice.append(graph.advise(query))
            assert advice[0] == advice[1]
            for update_id in advice[0].ship_updates:
                outstanding.pop(update_id, None)
        else:
            for graph in (local, reference):
                graph.drop_updates(chosen)
            for update_id in chosen:
                outstanding.pop(update_id, None)
        if len(picks) == 4:
            local._flow.compact()
            reference._flow.compact()
        _check_incidence_consistency(local)
        assert local._flow._retired_left == reference._flow._retired_left
        assert local._flow._retired_right == reference._flow._retired_right
        assert local._active_query_keys == reference._active_query_keys
        assert local._active_update_keys == reference._active_update_keys
        assert local.edge_count == reference.edge_count
        assert local.to_instance() == reference.to_instance()
        assert _flows(local) == _flows(reference)
        # Invariant 3: the status nobody looked at is still the true one.
        cover, truth = local._flow.active_cover(), _global_cover(reference._flow)
        assert cover.left_in_cover == truth[0]
        assert cover.right_in_cover == truth[1]

