"""Unit and oracle tests for the max-flow solvers."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.graph import FlowNetwork
from repro.flow.incremental import CoverDelta, IncrementalMaxFlow
from repro.flow.maxflow import dinic_max_flow, edmonds_karp_max_flow, solve_max_flow
from repro.flow.vertex_cover import SINK


def build_classic_network() -> FlowNetwork:
    """The classic CLRS example network with max flow 23."""
    network = FlowNetwork()
    edges = [
        ("s", "v1", 16), ("s", "v2", 13), ("v1", "v3", 12), ("v2", "v1", 4),
        ("v2", "v4", 14), ("v3", "v2", 9), ("v3", "t", 20), ("v4", "v3", 7),
        ("v4", "t", 4),
    ]
    for tail, head, capacity in edges:
        network.add_edge(tail, head, float(capacity))
    return network


class TestKnownNetworks:
    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_classic_clrs_network(self, solver):
        network = build_classic_network()
        assert solver(network, "s", "t") == pytest.approx(23.0)

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_single_edge(self, solver):
        network = FlowNetwork()
        network.add_edge("s", "t", 7.5)
        assert solver(network, "s", "t") == pytest.approx(7.5)

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_disconnected_sink_gives_zero(self, solver):
        network = FlowNetwork()
        network.add_edge("s", "a", 5.0)
        network.add_vertex("t")
        assert solver(network, "s", "t") == pytest.approx(0.0)

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_missing_vertices_give_zero(self, solver):
        network = FlowNetwork()
        assert solver(network, "s", "t") == pytest.approx(0.0)

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_parallel_paths_sum(self, solver):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "t", 3.0)
        network.add_edge("s", "b", 4.0)
        network.add_edge("b", "t", 4.0)
        assert solver(network, "s", "t") == pytest.approx(7.0)

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_flow_is_feasible_after_solving(self, solver):
        network = build_classic_network()
        solver(network, "s", "t")
        network.check_flow_conservation("s", "t")

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_infinite_capacity_edges(self, solver):
        network = FlowNetwork()
        network.add_edge("s", "a", 5.0)
        network.add_edge("a", "t", float("inf"))
        assert solver(network, "s", "t") == pytest.approx(5.0)


class TestIncrementalAugmentation:
    def test_flow_can_be_augmented_after_adding_edges(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "t", 3.0)
        assert edmonds_karp_max_flow(network, "s", "t") == pytest.approx(3.0)
        # Add a second path; re-solving augments the existing flow.
        network.add_edge("s", "b", 2.0)
        network.add_edge("b", "t", 2.0)
        assert edmonds_karp_max_flow(network, "s", "t") == pytest.approx(5.0)

    def test_capacity_increase_is_picked_up(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1.0)
        network.add_edge("a", "t", 5.0)
        assert edmonds_karp_max_flow(network, "s", "t") == pytest.approx(1.0)
        network.add_edge("s", "a", 3.0)  # capacity is now 4
        assert edmonds_karp_max_flow(network, "s", "t") == pytest.approx(4.0)


class TestProductionSolver:
    def test_solve_max_flow_is_edmonds_karp(self):
        """Every caller's name for the solver is the one the paper names."""
        assert solve_max_flow is edmonds_karp_max_flow
        assert solve_max_flow(build_classic_network(), "s", "t") == pytest.approx(23.0)


class TestSearchHints:
    """``source_arcs`` / ``closed`` / ``sink_arcs`` keep a solve local without changing it."""

    def _network_with_closed_branch(self):
        """s->a->t is open; s->b->c is a dead end (c has no way to t)."""
        network = FlowNetwork()
        network.add_edge("s", "b", 5.0)
        network.add_edge("b", "c", 5.0)
        network.add_edge("s", "a", 4.0)
        network.add_edge("a", "t", 3.0)
        network.add_edge("a", "c", 9.0)
        return network

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_hinted_solve_leaves_the_same_flow(self, solver):
        plain = self._network_with_closed_branch()
        hinted = self._network_with_closed_branch()
        assert solver(plain, "s", "t") == pytest.approx(3.0)
        carried = solver(
            hinted,
            "s",
            "t",
            source_arcs=[hinted.get_edge("s", "a")],
            closed={"s", "b", "c"},
        )
        assert carried == pytest.approx(3.0)
        assert [arc.flow for arc in hinted.forward_edges()] == [
            arc.flow for arc in plain.forward_edges()
        ]
        assert hinted.arcs_examined < plain.arcs_examined

    def test_closed_vertices_are_never_entered(self):
        network = self._network_with_closed_branch()
        seen = {"s", "c"}
        added = network.extend_reachable(["a"], seen)
        assert added == ["a", "t"]
        assert seen == {"s", "a", "c", "t"}

    def _network_with_late_sink_arcs(self):
        """a and b both reach t, by arcs that are *not* first in their adjacency.

        Each leads with an arc into the decoy c->d->t, which is longer and,
        because d->t is the bottleneck, can be fed from either: which of a and
        b feeds it depends on the order the paths are found in.
        """
        network = FlowNetwork()
        network.add_edge("s", "a", 5.0)
        network.add_edge("s", "b", 5.0)
        network.add_edge("a", "c", 9.0)
        network.add_edge("b", "c", 9.0)
        network.add_edge("a", "t", 2.0)
        network.add_edge("b", "t", 4.0)
        network.add_edge("c", "d", 9.0)
        network.add_edge("d", "t", 3.0)
        return network

    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_sink_arcs_hint_leaves_the_same_flow(self, solver):
        plain = self._network_with_late_sink_arcs()
        hinted = self._network_with_late_sink_arcs()
        assert hinted.adjacency()["a"][1].head == "c"  # the sink arc comes later
        sink_arcs = {vertex: hinted.get_edge(vertex, "t") for vertex in ("a", "b", "d")}
        assert solver(plain, "s", "t") == pytest.approx(9.0)
        assert solver(hinted, "s", "t", sink_arcs=sink_arcs) == pytest.approx(9.0)
        assert {(arc.tail, arc.head): arc.flow for arc in hinted.forward_edges()} == {
            (arc.tail, arc.head): arc.flow for arc in plain.forward_edges()
        }
        if solver is edmonds_karp_max_flow:
            assert plain.get_edge("a", "c").flow == 3.0  # a was discovered first
            assert hinted.arcs_examined < plain.arcs_examined
        else:
            assert hinted.arcs_examined == plain.arcs_examined

    def test_sink_arcs_hint_respects_a_closed_sink(self):
        network = self._network_with_late_sink_arcs()
        sink_arcs = {vertex: network.get_edge(vertex, "t") for vertex in ("a", "b", "d")}
        assert edmonds_karp_max_flow(network, "s", "t", closed={"t"}, sink_arcs=sink_arcs) == 0.0

    def test_three_arc_path_costs_the_new_query_not_its_neighbourhood(self):
        """One new query over k updates, each already fed by m saturated queries.

        Every update but the last has no sink capacity left, so a search that
        tests an update for the sink only when it pops it expands the k - 1
        queued ahead of the last one, m reverse arcs apiece, to find a
        three-arc path.
        """
        updates, earlier = 20, 30
        solver = IncrementalMaxFlow()
        for update in range(updates):
            spare = 10.0 if update == updates - 1 else 0.0
            solver.add_right(("u", update), earlier + spare)
        for query in range(earlier):
            solver.add_left(("q", query), float(updates))
            for update in range(updates):
                solver.add_edge(("q", query), ("u", update))
        assert solver.compute_cover() == CoverDelta((), ())  # every query is saturated
        sink_arcs = [
            solver.network.get_edge(solver.right_id(("u", update)), SINK)
            for update in range(updates)
        ]
        assert [arc.residual for arc in sink_arcs] == [0.0] * (updates - 1) + [10.0]

        solver.add_left("new", 1.0)
        for update in range(updates):
            solver.add_edge("new", ("u", update))
        before = solver.arcs_examined
        assert solver.compute_cover() == CoverDelta((), ())
        assert sink_arcs[-1].residual == 9.0
        # The new query's source arc, its k + 1 arcs, and the source arc
        # again to find it saturated -- not the (k - 1) * (m + 1) behind them.
        assert solver.arcs_examined - before <= updates + 4


def random_graph_edges(seed: int, node_count: int, edge_count: int):
    """Deterministic random capacitated edges between numbered nodes."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(edge_count):
        tail = int(rng.integers(0, node_count))
        head = int(rng.integers(0, node_count))
        if tail == head:
            continue
        edges.append((tail, head, float(rng.integers(1, 20))))
    return edges


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("solver", [edmonds_karp_max_flow, dinic_max_flow])
    def test_random_graphs_match_networkx(self, seed, solver):
        edges = random_graph_edges(seed, node_count=8, edge_count=24)
        network = FlowNetwork()
        graph = nx.DiGraph()
        for tail, head, capacity in edges:
            network.add_edge(tail, head, capacity)
            if graph.has_edge(tail, head):
                graph[tail][head]["capacity"] += capacity
            else:
                graph.add_edge(tail, head, capacity=capacity)
        network.add_vertex(0)
        network.add_vertex(7)
        graph.add_node(0)
        graph.add_node(7)
        expected = nx.maximum_flow_value(graph, 0, 7) if graph.number_of_edges() else 0.0
        assert solver(network, 0, 7) == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    node_count=st.integers(min_value=3, max_value=7),
)
def test_property_both_solvers_agree(seed, node_count):
    """Edmonds-Karp and Dinic always compute the same max-flow value."""
    edges = random_graph_edges(seed, node_count=node_count, edge_count=3 * node_count)
    network_a = FlowNetwork()
    network_b = FlowNetwork()
    for tail, head, capacity in edges:
        network_a.add_edge(tail, head, capacity)
        network_b.add_edge(tail, head, capacity)
    for network in (network_a, network_b):
        network.add_vertex(0)
        network.add_vertex(node_count - 1)
    value_a = edmonds_karp_max_flow(network_a, 0, node_count - 1)
    value_b = dinic_max_flow(network_b, 0, node_count - 1)
    assert value_a == pytest.approx(value_b)
