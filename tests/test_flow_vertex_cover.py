"""Tests for minimum-weight vertex cover on bipartite graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import vertex_cover as vertex_cover_module
from repro.flow.maxflow import dinic_max_flow, edmonds_karp_max_flow
from repro.flow.vertex_cover import (
    BipartiteCoverInstance,
    brute_force_min_cover,
    min_weight_vertex_cover,
)


def make_instance(left, right, edges) -> BipartiteCoverInstance:
    return BipartiteCoverInstance.from_iterables(left, right, edges)


class TestValidation:
    def test_edge_endpoint_must_have_weight(self):
        with pytest.raises(ValueError):
            make_instance({"q1": 1.0}, {"u1": 1.0}, [("q1", "u2")])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_instance({"q1": -1.0}, {}, [])


class TestSmallInstances:
    def test_single_edge_picks_cheaper_side(self):
        instance = make_instance({"q": 10.0}, {"u": 3.0}, [("q", "u")])
        result = min_weight_vertex_cover(instance)
        assert result.right_in_cover == frozenset({"u"})
        assert result.left_in_cover == frozenset()
        assert result.weight == pytest.approx(3.0)

    def test_single_edge_picks_query_when_cheaper(self):
        instance = make_instance({"q": 2.0}, {"u": 3.0}, [("q", "u")])
        result = min_weight_vertex_cover(instance)
        assert result.left_in_cover == frozenset({"q"})
        assert result.weight == pytest.approx(2.0)

    def test_star_of_updates_covered_by_single_query(self):
        instance = make_instance(
            {"q": 5.0},
            {"u1": 3.0, "u2": 3.0, "u3": 3.0},
            [("q", "u1"), ("q", "u2"), ("q", "u3")],
        )
        result = min_weight_vertex_cover(instance)
        assert result.left_in_cover == frozenset({"q"})
        assert result.weight == pytest.approx(5.0)

    def test_star_of_updates_covered_by_updates_when_query_expensive(self):
        instance = make_instance(
            {"q": 50.0},
            {"u1": 3.0, "u2": 3.0, "u3": 3.0},
            [("q", "u1"), ("q", "u2"), ("q", "u3")],
        )
        result = min_weight_vertex_cover(instance)
        assert result.right_in_cover == frozenset({"u1", "u2", "u3"})
        assert result.weight == pytest.approx(9.0)

    def test_shared_update_between_two_queries(self):
        # One expensive update shared by two cheap queries: ship the queries.
        instance = make_instance(
            {"q1": 2.0, "q2": 2.0},
            {"u": 10.0},
            [("q1", "u"), ("q2", "u")],
        )
        result = min_weight_vertex_cover(instance)
        assert result.left_in_cover == frozenset({"q1", "q2"})
        assert result.weight == pytest.approx(4.0)

    def test_shared_update_covered_once_for_many_queries(self):
        # The same update interacting with many queries is paid only once.
        instance = make_instance(
            {f"q{i}": 4.0 for i in range(5)},
            {"u": 10.0},
            [(f"q{i}", "u") for i in range(5)],
        )
        result = min_weight_vertex_cover(instance)
        assert result.right_in_cover == frozenset({"u"})
        assert result.weight == pytest.approx(10.0)

    def test_isolated_vertices_never_in_cover(self):
        instance = make_instance(
            {"q1": 1.0, "q_isolated": 100.0},
            {"u1": 5.0, "u_isolated": 100.0},
            [("q1", "u1")],
        )
        result = min_weight_vertex_cover(instance)
        assert "q_isolated" not in result.cover
        assert "u_isolated" not in result.cover

    def test_empty_instance(self):
        instance = make_instance({}, {}, [])
        result = min_weight_vertex_cover(instance)
        assert result.weight == pytest.approx(0.0)
        assert result.cover == frozenset()

    def test_cover_weight_equals_flow_value(self):
        instance = make_instance(
            {"q1": 3.0, "q2": 7.0},
            {"u1": 2.0, "u2": 4.0},
            [("q1", "u1"), ("q1", "u2"), ("q2", "u2")],
        )
        result = min_weight_vertex_cover(instance)
        assert result.weight == pytest.approx(result.flow_value)

    def test_result_always_covers_all_edges(self):
        edges = [("q1", "u1"), ("q1", "u2"), ("q2", "u2"), ("q3", "u3")]
        instance = make_instance(
            {"q1": 3.0, "q2": 1.0, "q3": 9.0},
            {"u1": 2.0, "u2": 8.0, "u3": 1.0},
            edges,
        )
        result = min_weight_vertex_cover(instance)
        assert result.covers(edges)

    @pytest.mark.parametrize(
        "solver", [edmonds_karp_max_flow, dinic_max_flow], ids=["edmonds-karp", "dinic"]
    )
    def test_both_solvers_give_same_weight(self, solver, monkeypatch):
        monkeypatch.setattr(vertex_cover_module, "solve_max_flow", solver)
        instance = make_instance(
            {"q1": 3.0, "q2": 7.0, "q3": 2.0},
            {"u1": 2.0, "u2": 4.0, "u3": 6.0},
            [("q1", "u1"), ("q2", "u2"), ("q3", "u3"), ("q1", "u3"), ("q2", "u1")],
        )
        result = min_weight_vertex_cover(instance)
        oracle = brute_force_min_cover(instance)
        assert result.weight == pytest.approx(oracle.weight)


def random_instance(seed: int, left_count: int, right_count: int, edge_count: int):
    rng = np.random.default_rng(seed)
    left = {f"q{i}": float(rng.integers(1, 30)) for i in range(left_count)}
    right = {f"u{i}": float(rng.integers(1, 30)) for i in range(right_count)}
    edges = set()
    for _ in range(edge_count):
        edges.add(
            (f"q{int(rng.integers(0, left_count))}", f"u{int(rng.integers(0, right_count))}")
        )
    return make_instance(left, right, edges)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_match_oracle(self, seed):
        instance = random_instance(seed, left_count=6, right_count=6, edge_count=12)
        result = min_weight_vertex_cover(instance)
        oracle = brute_force_min_cover(instance)
        assert result.weight == pytest.approx(oracle.weight)
        assert result.covers(instance.edges)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    left_count=st.integers(min_value=1, max_value=6),
    right_count=st.integers(min_value=1, max_value=6),
)
def test_property_cover_is_valid_and_optimal(seed, left_count, right_count):
    """The flow-based cover is always a valid cover with the oracle's weight."""
    instance = random_instance(seed, left_count, right_count, edge_count=2 * (left_count + right_count))
    result = min_weight_vertex_cover(instance)
    oracle = brute_force_min_cover(instance)
    assert result.covers(instance.edges)
    assert result.weight == pytest.approx(oracle.weight)
