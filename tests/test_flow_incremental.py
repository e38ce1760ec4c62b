"""Tests for the incremental (warm-started) max-flow / vertex-cover solver."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import textwrap
from collections.abc import Sized
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vcover import VCoverPolicy
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.flow.incremental import CoverDelta, IncrementalMaxFlow
from repro.flow.vertex_cover import (
    SINK,
    SOURCE,
    brute_force_min_cover,
    min_weight_vertex_cover,
)
from repro.network.link import NetworkLink
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.workload.trace import QueryEvent


class TestBasics:
    def test_single_edge_cover(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 10.0)
        solver.add_right("u1", 3.0)
        solver.add_edge("q1", "u1")
        delta = solver.compute_cover()
        assert delta.uncovered_left == ("q1",)
        assert delta.covered_right == ("u1",)
        cover = solver.active_cover()
        assert cover.right_in_cover == frozenset({"u1"})
        assert cover.weight == pytest.approx(3.0)

    def test_edge_requires_registered_vertices(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 1.0)
        with pytest.raises(KeyError):
            solver.add_edge("q1", "u1")

    def test_negative_weight_rejected(self):
        solver = IncrementalMaxFlow()
        with pytest.raises(ValueError):
            solver.add_left("q1", -1.0)

    def test_readding_a_vertex_is_rejected(self):
        """A vertex is added once: its weight is fixed and it never un-retires."""
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 5.0)
        solver.add_right("u1", 5.0)
        for weight in (2.0, 5.0, 8.0):
            with pytest.raises(ValueError):
                solver.add_left("q1", weight)
            with pytest.raises(ValueError):
                solver.add_right("u1", weight)
        solver.retire(left=["q1"], right=["u1"])
        with pytest.raises(ValueError):
            solver.add_left("q1", 5.0)
        with pytest.raises(ValueError):
            solver.add_right("u1", 5.0)
        assert not solver.has_left("q1") and not solver.has_right("u1")

    def test_edge_out_of_a_reached_left_is_rejected(self):
        """A reachable set is closed for good: nothing may be attached to it."""
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 10.0)
        solver.add_right("u1", 3.0)
        solver.add_edge("q1", "u1")
        assert solver.compute_cover().uncovered_left == ("q1",)
        solver.add_right("u2", 1.0)
        with pytest.raises(ValueError):
            solver.add_edge("q1", "u2")
        solver.add_edge("q1", "u1")  # a known edge stays a no-op
        # A reached right vertex may still gain edges from new left vertices:
        # the arc enters the closed set, it does not leave it.
        solver.add_left("q2", 1.0)
        solver.add_edge("q2", "u1")
        assert solver.compute_cover().uncovered_left == ("q2",)

    def test_duplicate_edge_is_idempotent(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 4.0)
        solver.add_right("u1", 10.0)
        solver.add_edge("q1", "u1")
        solver.add_edge("q1", "u1")
        solver.compute_cover()
        assert solver.active_cover().weight == pytest.approx(4.0)

    def test_has_left_and_right_track_retirement(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 4.0)
        solver.add_right("u1", 1.0)
        assert solver.has_left("q1")
        assert solver.has_right("u1")
        solver.retire(left=["q1"], right=["u1"])
        assert not solver.has_left("q1")
        assert not solver.has_right("u1")


class TestBundles:
    """A bundle stands for the right vertices below it; the cover cannot tell."""

    def _chained(self):
        """q1 -> b1 -> {u1, u2};  q2 -> b2 -> {b1, u3};  q3 -> u3 directly."""
        solver = IncrementalMaxFlow()
        for update, weight in (("u1", 2.0), ("u2", 3.0), ("u3", 9.0)):
            solver.add_right(update, weight)
        lower = solver.add_bundle(["u1", "u2", "u1"])  # named twice, one arc
        upper = solver.add_bundle(["u3"], base=lower)
        for query, weight in (("q1", 10.0), ("q2", 6.0), ("q3", 2.0)):
            solver.add_left(query, weight)
        solver.add_bundle_edge("q1", lower)
        solver.add_bundle_edge("q2", upper)
        solver.add_bundle_edge("q2", upper)  # named twice, one arc
        solver.add_edge("q3", "u3")
        return solver, lower, upper

    def test_logical_edges_are_expanded_through_the_chain(self):
        solver, _, _ = self._chained()
        assert solver.active_edges == {
            ("q1", "u1"), ("q1", "u2"),
            ("q2", "u1"), ("q2", "u2"), ("q2", "u3"),
            ("q3", "u3"),
        }  # fmt: skip
        assert solver.live_edge_count == 6
        assert sum(map(bool, solver._bundle_alive.values())) == 2
        # 3 source arcs, 3 sink arcs, 3 arcs in, 4 arcs out of the bundles.
        assert solver.network.edge_count == 13
        # Alive out-neighbours, not logical degrees.
        assert [solver.live_degree(q) for q in ("q1", "q2", "q3")] == [1, 1, 1]

    def test_cover_is_the_expanded_graphs_cover(self):
        solver, lower, upper = self._chained()
        delta = solver.compute_cover()
        # q1 (10) pays for u1 + u2 (5); q2 (6) and q3 (2) together do not reach
        # u3 (9).  Bundles are on neither side of the report.
        assert set(delta.covered_right) == {"u1", "u2"}
        assert delta.uncovered_left == ("q1",)
        cover = solver.active_cover()
        assert cover.left_in_cover == {"q2", "q3"}
        instance = solver.to_instance()
        assert cover.covers(instance.edges)
        assert cover.weight == pytest.approx(brute_force_min_cover(instance).weight)
        assert lower in solver._closed and upper not in solver._closed

    def test_a_reached_bundle_is_closed_with_everything_below_it(self):
        solver, lower, upper = self._chained()
        solver.add_left("q4", 20.0)
        solver.add_bundle_edge("q4", upper)
        delta = solver.compute_cover()
        assert set(delta.covered_right) == {"u1", "u2", "u3"}
        assert set(delta.uncovered_left) == {"q1", "q2", "q3", "q4"}
        assert {lower, upper} <= solver._closed
        with pytest.raises(ValueError):
            solver.add_bundle_edge("q4", lower)  # a closed tail takes no arc
        # An arc *into* the closed set is fine, from a left vertex or a bundle.
        solver.add_left("q5", 1.0)
        solver.add_bundle_edge("q5", solver.add_bundle([], base=upper))
        assert solver.compute_cover() == CoverDelta(("q5",), ())

    def test_unknown_vertices_are_rejected(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 1.0)
        with pytest.raises(KeyError):
            solver.add_bundle(["u1"])
        with pytest.raises(KeyError):
            solver.add_bundle([], base=7)
        with pytest.raises(KeyError):
            solver.add_bundle_edge("q1", 7)
        with pytest.raises(KeyError):
            solver.add_bundle_edge("q2", solver.add_bundle([]))

    def test_retire_strands_through_the_chain_in_one_pass(self):
        """A left vertex is reported by the call that retires its last live right."""
        solver, lower, upper = self._chained()
        assert solver.retire(right=["u1"]) == []
        assert solver.retire(right=["u2"]) == ["q1"]  # lower died, upper lives on u3
        assert (solver._bundle_alive[lower], solver._bundle_alive[upper]) == (0, 1)
        assert sum(map(bool, solver._bundle_alive.values())) == 1
        assert solver.live_edge_count == 2
        assert sorted(solver.retire(right=["u3"])) == ["q2", "q3"]
        assert sum(map(bool, solver._bundle_alive.values())) == solver.live_edge_count == 0
        # Bundles are on neither side of the compaction test.
        assert solver.retired_count == 3
        # A bundle over nothing alive is born dead and counts for nobody.
        solver.add_left("q4", 1.0)
        solver.add_bundle_edge("q4", solver.add_bundle(["u3"], base=upper))
        assert solver.live_degree("q4") == 0


class TestIncrementalEquivalence:
    def test_growing_graph_matches_from_scratch(self):
        """Covers computed incrementally match solving each snapshot fresh."""
        rng = np.random.default_rng(5)
        solver = IncrementalMaxFlow()
        for step in range(20):
            query = f"q{step}"
            solver.add_left(query, float(rng.integers(1, 20)))
            for _ in range(int(rng.integers(1, 4))):
                update = f"u{int(rng.integers(0, 10))}"
                if not solver.has_right(update):
                    solver.add_right(update, float(rng.integers(1, 20)))
                solver.add_edge(query, update)
            solver.compute_cover()
            incremental = solver.active_cover()
            instance = solver.to_instance()
            assert incremental.covers(instance.edges)
            assert incremental.weight == pytest.approx(min_weight_vertex_cover(instance).weight)

    def test_total_augmentations_counted(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 1.0)
        solver.add_right("u1", 2.0)
        solver.add_edge("q1", "u1")
        solver.compute_cover()
        solver.compute_cover()
        assert solver.augmentation_count == 2


class TestRetirement:
    def _two_phase_solver(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 10.0)
        solver.add_right("u1", 3.0)
        solver.add_edge("q1", "u1")
        return solver

    def test_retired_updates_leave_active_cover(self):
        solver = self._two_phase_solver()
        first = solver.compute_cover()
        assert first.covered_right == ("u1",)
        solver.retire(right=["u1"])
        second = solver.compute_cover()
        assert second.covered_right == ()
        cover = solver.active_cover()
        assert "u1" not in cover.right_in_cover
        assert cover.weight == pytest.approx(0.0)

    def test_retire_reports_the_left_vertices_left_without_an_edge(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 1.0)
        solver.add_left("q2", 1.0)
        solver.add_right("u1", 5.0)
        solver.add_right("u2", 5.0)
        solver.add_edge("q1", "u1")
        solver.add_edge("q1", "u1")  # named twice, counted once
        solver.add_edge("q2", "u1")
        solver.add_edge("q2", "u2")
        assert (solver.live_degree("q1"), solver.live_degree("q2")) == (1, 2)
        assert solver.live_edge_count == 3
        assert solver.retire(right=["u1"]) == ["q1"]
        assert solver.retire(right=["u1"]) == []  # already retired: nothing to walk
        # Stranded is reported, not retired: pruning is the caller's decision.
        assert solver.has_left("q1") and solver.live_degree("q1") == 0
        # A left vertex retired in the same call is gone, not stranded.
        assert solver.retire(left=["q2"], right=["u2"]) == []
        assert (solver.live_left_count, solver.live_right_count) == (1, 0)
        assert (solver.live_edge_count, solver.retired_count) == (0, 3)

    def _shipped_query_solver(self):
        """q1 (3) against u1 (10): the query is shipped, then retired."""
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 3.0)
        solver.add_right("u1", 10.0)
        solver.add_edge("q1", "u1")
        delta = solver.compute_cover()
        assert delta.uncovered_left == () and delta.covered_right == ()
        assert solver.active_cover().left_in_cover == frozenset({"q1"})
        solver.retire(left=["q1"])
        return solver

    def test_consumed_weight_persists_after_retirement(self):
        """Weight a query spent against an update stays spent once it retires.

        q1 (3) was shipped against u1 (10) and then retired.  q2 (8) alone is
        cheaper than u1, but only 7 units of u1's cost are still unjustified,
        so the cover now picks u1 and keeps q2 at the cache.
        """
        solver = self._shipped_query_solver()
        solver.add_left("q2", 8.0)
        solver.add_edge("q2", "u1")
        delta = solver.compute_cover()
        assert delta.covered_right == ("u1",)
        assert delta.uncovered_left == ("q2",)

    def test_cheap_followup_update_still_shipped(self):
        """A cheap update arriving later is shipped along with the justified one."""
        solver = self._shipped_query_solver()
        solver.add_left("q2", 10.0)
        solver.add_right("u2", 2.0)
        solver.add_edge("q2", "u1")
        solver.add_edge("q2", "u2")
        delta = solver.compute_cover()
        assert set(delta.covered_right) == {"u1", "u2"}
        assert delta.uncovered_left == ("q2",)


    @pytest.mark.parametrize("retire_q1", [False, True])
    def test_retired_vertices_carry_flow_but_are_not_reported(self, retire_q1):
        """A dropped update outside every closed set still absorbs flow.

        q1 (5) saturates against u1 (3) and u2 (4).  u2 is then dropped with
        2 units of sink capacity left, which q2 (4) reaches by rerouting
        q1's flow off u1; q2's remaining weight then reaches u1, q1 and u2.
        Only the vertices still active are reported.
        """
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 5.0)
        solver.add_right("u1", 3.0)
        solver.add_right("u2", 4.0)
        solver.add_edge("q1", "u1")
        solver.add_edge("q1", "u2")
        assert solver.compute_cover() == CoverDelta((), ())
        solver.retire(left=["q1"] if retire_q1 else [], right=["u2"])
        solver.add_left("q2", 4.0)
        solver.add_edge("q2", "u1")
        delta = solver.compute_cover()
        assert solver.network.get_edge(solver.right_id("u2"), SINK).flow == pytest.approx(4.0)
        assert delta.covered_right == ("u1",)
        assert set(delta.uncovered_left) == ({"q2"} if retire_q1 else {"q1", "q2"})


class TestCompaction:
    def test_compact_preserves_active_decisions(self):
        rng = np.random.default_rng(11)
        solver = IncrementalMaxFlow()
        reference = IncrementalMaxFlow()
        for step in range(30):
            query = f"q{step}"
            weight = float(rng.integers(1, 15))
            solver.add_left(query, weight)
            reference.add_left(query, weight)
            update = f"u{step}"
            update_weight = float(rng.integers(1, 15))
            solver.add_right(update, update_weight)
            reference.add_right(update, update_weight)
            solver.add_edge(query, update)
            reference.add_edge(query, update)
            delta = solver.compute_cover()
            assert delta == reference.compute_cover()
            cover_a, cover_b = solver.active_cover(), reference.active_cover()
            assert cover_a.left_in_cover == cover_b.left_in_cover
            assert cover_a.right_in_cover == cover_b.right_in_cover
            assert cover_a.weight == pytest.approx(cover_b.weight)
            solver.retire(left=delta.uncovered_left, right=delta.covered_right)
            reference.retire(left=delta.uncovered_left, right=delta.covered_right)
            if step % 5 == 4:
                solver.compact()

    def test_compact_shrinks_network(self):
        solver = IncrementalMaxFlow()
        for step in range(10):
            solver.add_left(f"q{step}", 5.0)
            solver.add_right(f"u{step}", 1.0)
            solver.add_edge(f"q{step}", f"u{step}")
        solver.compute_cover()
        solver.retire(
            left=[f"q{step}" for step in range(10)],
            right=[f"u{step}" for step in range(10)],
        )
        before = solver.network.vertex_count
        solver.compact()
        assert solver.network.vertex_count < before
        assert solver.retired_count == 0

    def test_compact_carries_open_and_closed_vertices_over(self):
        """Compaction between add and cover, with reached vertices still active."""
        solvers = [IncrementalMaxFlow(), IncrementalMaxFlow()]
        for solver in solvers:
            solver.add_left("q1", 10.0)
            solver.add_right("u1", 3.0)
            solver.add_right("u2", 9.0)
            solver.add_edge("q1", "u1")
            assert solver.compute_cover().covered_right == ("u1",)  # q1, u1 reached, kept
            solver.add_left("q2", 4.0)  # open: added, not yet searched from
            solver.add_left("q3", 1.0)
            solver.retire(left=["q3"])  # open and gone with the compaction
        solvers[0].compact()
        for solver in solvers:
            with pytest.raises(ValueError):
                solver.add_edge("q1", "u2")  # q1 is still closed
            solver.add_edge("q2", "u1")
            solver.add_edge("q2", "u2")
        deltas = [solver.compute_cover() for solver in solvers]
        assert deltas[0] == deltas[1]
        assert deltas[0].uncovered_left == () and deltas[0].covered_right == ()
        covers = [solver.active_cover() for solver in solvers]
        assert covers[0].left_in_cover == covers[1].left_in_cover == frozenset({"q2"})
        assert covers[0].right_in_cover == covers[1].right_in_cover == frozenset({"u1"})

    def test_tables_track_the_live_graph_not_history(self):
        """2 000 add/retire/compact rounds leave every table at the active size."""
        solver = IncrementalMaxFlow()
        for step in range(2000):
            # Alternate reached (closed) and saturated (unreached) queries.
            solver.add_left(f"q{step}", 10.0 if step % 2 else 1.0)
            solver.add_right(f"u{step}", 3.0)
            solver.add_bundle_edge(f"q{step}", solver.add_bundle([f"u{step}"]))
            solver.compute_cover()
            if step >= 3:
                solver.retire(left=[f"q{step - 3}"], right=[f"u{step - 3}"])
            solver.compact()
        left, right = solver.active_left, solver.active_right
        assert len(left) == len(right) == 3
        assert set(solver._left_ids) == set(solver._left_alive) == left
        assert set(solver._right_ids) == right and not solver._retired_right
        assert sorted(solver._keys) == sorted(
            [*solver._left_ids.values(), *solver._right_ids.values()]
        )
        assert sorted(solver._sink_arcs) == sorted(solver._right_ids.values())
        assert len(solver._bundle_alive) == 3 and all(solver._bundle_alive.values())
        vertices = {*solver._keys, *solver._bundle_alive}
        assert solver._closed <= {SOURCE, *vertices}
        assert set(solver.network.vertices()) == {SOURCE, SINK, *vertices}
        # A source or sink arc per vertex, an arc in and an arc out per bundle.
        assert solver.network.edge_count == len(solver._keys) + 2 * len(solver._bundle_alive)
        assert solver.right_id("u1999") == 3 * 1999 + 1  # ids are never reused

    def test_compact_is_in_place_and_keeps_the_survivors_order(self):
        """Same vertices, same Arc objects, same relative adjacency order."""
        solver = IncrementalMaxFlow()
        for index in range(6):
            solver.add_left(f"q{index}", 1.0)
            solver.add_right(f"u{index}", 5.0)
        for index in range(6):
            solver.add_edge(f"q{index}", f"u{index}")
            solver.add_edge(f"q{index}", f"u{(index + 1) % 6}")
        solver.compute_cover()
        network = solver.network
        solver.retire(left=["q1", "q4"], right=["u2"])
        doomed = {solver.left_id("q1"), solver.left_id("q4"), solver.right_id("u2")}
        expected = {
            vertex: [arc for arc in arcs if arc.head not in doomed]
            for vertex, arcs in network.adjacency().items()
            if vertex not in doomed
        }
        solver.compact()
        assert solver.network is network
        assert list(network.adjacency()) == list(expected)
        for vertex, arcs in network.adjacency().items():
            assert all(kept is arc for kept, arc in zip(arcs, expected[vertex], strict=True))
        assert all(
            arc.tail not in doomed and arc.head not in doomed for arc in network.forward_edges()
        )
        network.check_flow_conservation(SOURCE, SINK)

    def test_compact_cancels_flow_into_a_dropped_update_back_to_the_source(self):
        """Today's "lost flow" rule, through a chain of bundles.

        q1 (4) and q2 (3) share b1 over u1 (6); q2 also reaches u2 (1) through
        b2.  Both saturate.  u1 is then dropped outside every closed set: the 6
        units it absorbed are cancelled back along b2 -> b1 / q1 -> b1 to the
        source arcs, which lose that capacity; u2's unit stays.
        """
        solver = IncrementalMaxFlow()
        solver.add_right("u1", 6.0)
        solver.add_right("u2", 1.0)
        lower = solver.add_bundle(["u1"])
        upper = solver.add_bundle(["u2"], base=lower)
        solver.add_left("q1", 4.0)
        solver.add_left("q2", 3.0)
        solver.add_bundle_edge("q1", lower)
        solver.add_bundle_edge("q2", upper)
        assert solver.compute_cover() == CoverDelta((), ())
        assert solver.retire(right=["u1"]) == ["q1"]
        solver.retire(left=["q1"])
        solver.compact()
        assert solver._bundle_alive == {upper: 1}  # the dead bundle went too
        assert solver.to_instance().left_weights == {"q2": pytest.approx(1.0)}
        assert solver.to_instance().right_weights == {"u2": 1.0}
        solver.network.check_flow_conservation(SOURCE, SINK)
        assert solver.network.flow_value(SOURCE) == pytest.approx(1.0)
        # What is left of q2 is saturated against u2: a newcomer tips the cover.
        solver.add_left("q3", 0.5)
        solver.add_bundle_edge("q3", upper)
        assert solver.compute_cover() == CoverDelta(("q3", "q2"), ("u2",))

    def test_compact_cancels_flow_out_of_a_retired_left_down_to_the_sink(self):
        """The mirror image: a retired query's spent weight stays spent."""
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 3.0)
        solver.add_right("u1", 10.0)
        solver.add_bundle_edge("q1", solver.add_bundle(["u1"]))
        solver.compute_cover()
        solver.retire(left=["q1"])
        solver.compact()
        assert solver.to_instance().right_weights == {"u1": pytest.approx(7.0)}
        solver.network.check_flow_conservation(SOURCE, SINK)

    def test_arcs_examined_survives_compaction(self):
        solver = IncrementalMaxFlow()
        solver.add_left("q1", 5.0)
        solver.add_right("u1", 1.0)
        solver.add_edge("q1", "u1")
        assert solver.arcs_examined == 0
        solver.compute_cover()
        examined = solver.arcs_examined
        assert examined > 0
        solver.compact()
        assert solver.arcs_examined == examined


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(min_value=1, max_value=12))
def test_property_incremental_matches_oracle(seed, steps):
    """At every step the incremental cover weight equals the exact optimum."""
    rng = np.random.default_rng(seed)
    solver = IncrementalMaxFlow()
    for step in range(steps):
        query = f"q{step}"
        solver.add_left(query, float(rng.integers(1, 12)))
        for _ in range(int(rng.integers(1, 3))):
            update = f"u{int(rng.integers(0, 6))}"
            if not solver.has_right(update):
                solver.add_right(update, float(rng.integers(1, 12)))
            solver.add_edge(query, update)
        solver.compute_cover()
        cover = solver.active_cover()
        instance = solver.to_instance()
        assert cover.covers(instance.edges)
        assert cover.weight == pytest.approx(brute_force_min_cover(instance).weight)


class TestCompactionDeterminism:
    """compact() must not leak set iteration order into the rebuilt network.

    Arc insertion order steers the augmenting-path search, and string
    vertices hash differently across processes under hash randomisation --
    so the regression is only visible across interpreters with different
    ``PYTHONHASHSEED``.  (Caught by lint rule DET003.)
    """

    _SCRIPT = textwrap.dedent(
        """
        from repro.flow.incremental import CoverDelta, IncrementalMaxFlow

        solver = IncrementalMaxFlow()
        for i in range(12):
            solver.add_left(f"q{i}", 3.0 + (i % 4))
            solver.add_right(f"u{i}", 1.0 + (i % 3))
        for i in range(12):
            solver.add_edge(f"q{i}", f"u{i}")
            solver.add_edge(f"q{i}", f"u{(i + 1) % 12}")
        solver.compute_cover()
        solver.retire(
            left=[f"q{i}" for i in range(0, 12, 2)],
            right=[f"u{i}" for i in range(0, 12, 3)],
        )
        solver.compact()
        solver.compute_cover()
        cover = solver.active_cover()
        print(list(solver.network.adjacency()))
        print(sorted(cover.left_in_cover), sorted(cover.right_in_cover))
        print(round(cover.weight, 9), round(cover.flow_value, 9))
        """
    )

    def _run(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout

    def test_compacted_network_identical_across_hash_seeds(self):
        assert self._run("1") == self._run("4242")


def _replay_update_manager(config: ExperimentConfig, scenario=None):
    """Replay VCover over ``config``'s scenario; return its UpdateManager."""
    scenario = scenario or build_scenario(config)
    repository = Repository(scenario.catalog)
    link = NetworkLink()
    policy = VCoverPolicy(
        repository, scenario.catalog.total_size * config.cache_fraction, link
    )
    ReplayKernel(
        repository, [policy], [link], EngineConfig(sample_every=config.sample_every)
    ).run(scenario.trace)
    return policy.update_manager


def _default_shape(events: int) -> ExperimentConfig:
    return ExperimentConfig().scaled(query_count=events // 2, update_count=events // 2)


def _replay_default_shape(events: int):
    """Replay VCover over the default scenario shape; return its flow solver."""
    return _replay_update_manager(_default_shape(events))._flow


class TestBoundedState:
    """No table of the decision path is keyed by history (ROADMAP item 8).

    Nor by the *product* of what arrived.  With the retired vertices and the
    dead bundles compacted away, ``L`` live queries, ``R`` live updates and
    ``B`` live bundles, the network holds

    * one source arc per query and one sink arc per update: ``L + R``;
    * one arc per (query, stale object): at most ``K * L``, ``K`` being the
      most objects a query of the scenario touches;
    * one base arc per bundle: at most ``B``;
    * the arcs from bundles to updates.  A bundle's arcs go to the updates
      between its base's newest and its own, so the bundles minted at the
      end of a chain partition the object's updates -- one arc each -- and
      so do the ones a more tolerant query mints further down; the default
      shape has two tolerances, hence at most ``2 * R``;

    ``(K + 1) * L + 3 * R + B`` forward edges, where joining every query to
    every update it interacts with takes ``L + R + live_edge_count``.
    """

    def test_every_container_is_bounded_by_the_graph_it_describes(self):
        for events in (6000, 24000):
            config = _default_shape(events)
            scenario = build_scenario(config)
            manager = _replay_update_manager(config, scenario)
            flow = manager._flow
            covers = manager.stats()["covers_computed"]
            assert covers > 100
            # Retired vertices legitimately wait for the next compaction (up
            # to COMPACTION_SLACK more than the live ones); with them gone the
            # bound is tight enough that one entry per cover would break it.
            flow.compact()
            assert flow.retired_count == 0
            queries, updates = flow.live_left_count, flow.live_right_count
            bundles = sum(map(bool, flow._bundle_alive.values()))
            # No dead bundle outlives a compaction, in the network or in a chain.
            assert len(flow._bundle_alive) == bundles
            chains = list(manager._chains.values())
            assert all(flow._bundle_alive[b] > 0 for chain in chains for _, b in chain.bundles)
            bound = queries + updates + bundles + 2
            sizes = {
                "UpdateManager chain members": sum(len(chain.members) for chain in chains),
                "UpdateManager chain bundles": sum(len(chain.bundles) for chain in chains),
                "FlowNetwork vertices": flow.network.vertex_count,
            }
            for owner in (manager, flow):
                for name in getattr(owner, "__slots__", None) or vars(owner):
                    value = getattr(owner, name)
                    if isinstance(value, Sized):
                        sizes[f"{type(owner).__name__}.{name}"] = len(value)
            # The walk found the tables it is meant to bound ...
            assert {
                "UpdateManager._updates",
                "UpdateManager._chains",
                "IncrementalMaxFlow._keys",
                "IncrementalMaxFlow._bundle_alive",
            } <= set(sizes)
            # ... and none of them outgrew the live graph.
            assert {name: size for name, size in sizes.items() if size > bound} == {}
            if events == 6000:
                assert covers > bound  # so a per-cover table would have been caught
            most_objects = max(
                len(event.query.object_ids)
                for event in scenario.trace.iter_events()
                if isinstance(event, QueryEvent)
            )
            edge_bound = (most_objects + 1) * queries + 3 * updates + bundles
            assert flow.network.edge_count <= edge_bound
            if events == 24000:
                # The biclique's network would not have passed.
                assert queries + updates + flow.live_edge_count > edge_bound


class TestScalingGuard:
    """A cover must cost what the new query reaches, not the run so far.

    Counts arcs, not seconds, so it cannot flake.  The statistic is the
    *median* per cover: a handful of covers per run genuinely span a large
    component (tens of thousands of arcs in one cover) and own the mean,
    whereas a search that walks the accumulated network puts every cover,
    and so the median, at the size of that network -- which here grows about
    fourfold per doubling of the trace.
    """

    def test_arcs_examined_per_cover_does_not_grow_with_trace_length(self, monkeypatch):
        per_cover = []
        compute_cover = IncrementalMaxFlow.compute_cover

        def counted(self):
            before = self.arcs_examined
            try:
                return compute_cover(self)
            finally:
                per_cover.append(self.arcs_examined - before)

        monkeypatch.setattr(IncrementalMaxFlow, "compute_cover", counted)
        medians = {}
        for events in (6000, 12000, 24000):
            del per_cover[:]
            flow = _replay_default_shape(events)
            assert len(per_cover) == flow.augmentation_count > 100
            assert sum(per_cover) == flow.arcs_examined
            medians[events] = statistics.median(per_cover)
        assert max(medians.values()) <= 2 * min(medians.values()), medians
        # ... and nowhere near the network a whole-graph search would walk
        # (two arcs per edge, at least two passes per cover).
        assert medians[24000] * 100 < 2 * flow.network.edge_count, medians

    def test_a_dense_graph_is_held_in_linear_space(self):
        """Update bursts against resident objects: 81 logical edges per update.

        The ``updatestorm-1k2`` benchmark stream.  The network grows with the
        vertices that arrived, not with their product (21 260 forward edges
        and 1 592 376 arcs examined when every pair had its own arc), and
        the report still counts the pairs.
        """
        storm = ExperimentConfig(seed=7).scaled(
            workload_model="update_storm", query_count=600, update_count=600
        )
        manager = _replay_update_manager(storm)
        flow = manager._flow
        assert manager.stats()["covers_computed"] == 387
        assert manager.stats()["graph_edges"] == 20599
        assert flow.network.edge_count < 2500
        assert flow.arcs_examined < 250_000

