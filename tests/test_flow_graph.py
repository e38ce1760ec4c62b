"""Unit tests for the residual flow-network data structure."""

from __future__ import annotations

import pytest

from repro.flow.graph import FlowNetwork


class TestConstruction:
    def test_add_vertex_is_idempotent(self):
        network = FlowNetwork()
        network.add_vertex("a")
        network.add_vertex("a")
        assert network.vertex_count == 1

    def test_add_edge_creates_both_endpoints(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 5.0)
        assert network.has_vertex("a")
        assert network.has_vertex("b")
        assert network.edge_count == 1

    def test_add_edge_rejects_negative_capacity(self):
        network = FlowNetwork()
        with pytest.raises(ValueError):
            network.add_edge("a", "b", -1.0)

    def test_add_edge_rejects_self_loop(self):
        network = FlowNetwork()
        with pytest.raises(ValueError):
            network.add_edge("a", "a", 1.0)

    def test_readding_edge_increases_capacity(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 5.0)
        network.add_edge("a", "b", 3.0)
        assert network.get_edge("a", "b").capacity == pytest.approx(8.0)
        assert network.edge_count == 1


class TestArcs:
    def test_push_updates_partner_residual(self):
        network = FlowNetwork()
        arc = network.add_edge("a", "b", 10.0)
        arc.push(4.0)
        assert arc.residual == pytest.approx(6.0)
        assert arc.partner.residual == pytest.approx(4.0)

    def test_push_beyond_residual_raises(self):
        network = FlowNetwork()
        arc = network.add_edge("a", "b", 2.0)
        with pytest.raises(ValueError):
            arc.push(3.0)

    def test_push_negative_raises(self):
        network = FlowNetwork()
        arc = network.add_edge("a", "b", 2.0)
        with pytest.raises(ValueError):
            arc.push(-0.5)

    def test_backward_arc_allows_cancelling_flow(self):
        network = FlowNetwork()
        arc = network.add_edge("a", "b", 2.0)
        arc.push(2.0)
        # Pushing on the backward arc undoes the flow.
        arc.partner.push(1.5)
        assert arc.flow == pytest.approx(0.5)


class TestFlowAccounting:
    def _diamond(self):
        """s -> a -> t and s -> b -> t, capacities 3/2/2/3."""
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "t", 2.0)
        network.add_edge("s", "b", 2.0)
        network.add_edge("b", "t", 3.0)
        return network

    def test_flow_value_counts_outgoing_flow(self):
        network = self._diamond()
        network.get_edge("s", "a").push(2.0)
        network.get_edge("a", "t").push(2.0)
        assert network.flow_value("s") == pytest.approx(2.0)

    def test_conservation_check_passes_for_valid_flow(self):
        network = self._diamond()
        network.get_edge("s", "a").push(2.0)
        network.get_edge("a", "t").push(2.0)
        network.check_flow_conservation("s", "t")

    def test_conservation_check_detects_imbalance(self):
        network = self._diamond()
        network.get_edge("s", "a").push(2.0)
        with pytest.raises(AssertionError):
            network.check_flow_conservation("s", "t")


class TestResidualReachability:
    def test_reachable_stops_at_saturated_arcs(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1.0)
        network.add_edge("a", "t", 1.0)
        network.get_edge("s", "a").push(1.0)
        network.get_edge("a", "t").push(1.0)
        reachable = network.residual_reachable("s")
        assert reachable == {"s"}

    def test_reachable_follows_backward_arcs(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1.0)
        network.add_edge("a", "t", 2.0)
        network.add_edge("s", "b", 1.0)
        network.add_edge("b", "a", 1.0)
        network.get_edge("s", "a").push(1.0)
        network.get_edge("a", "t").push(1.0)
        reachable = network.residual_reachable("s")
        # s -> b still has residual, b -> a has residual, a -> t has residual.
        assert {"s", "b", "a", "t"} <= reachable

    def test_reachable_of_unknown_vertex_is_empty(self):
        network = FlowNetwork()
        assert network.residual_reachable("missing") == set()


class TestCopy:
    def test_copy_preserves_structure_and_flow(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "t", 3.0)
        network.get_edge("s", "a").push(2.0)
        clone = network.copy()
        assert clone.edge_count == network.edge_count
        assert clone.get_edge("s", "a").flow == pytest.approx(2.0)

    def test_copy_is_independent(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        clone = network.copy()
        clone.get_edge("s", "a").push(1.0)
        assert network.get_edge("s", "a").flow == pytest.approx(0.0)
