"""Microbenchmarks of the substrates the decision framework is built on.

These are conventional timing benchmarks (multiple rounds) rather than
figure regenerations: the incremental max-flow solver, the Greedy-Dual-Size
cache, the workload generators and the end-to-end per-event cost of the
VCover policy.  They exist to catch performance regressions in the hot paths
the experiment harness depends on.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache.gds import GreedyDualSize
from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.flow.graph import FlowNetwork
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.maxflow import edmonds_karp_max_flow
from repro.network.link import NetworkLink
from repro.repository.catalog import sdss_catalog
from repro.repository.server import Repository
from repro.workload.mixer import interleave
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.trace import QueryEvent, UpdateEvent
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig


def _random_flow_network(seed: int, nodes: int, edges: int) -> FlowNetwork:
    rng = np.random.default_rng(seed)
    network = FlowNetwork()
    for _ in range(edges):
        tail = int(rng.integers(0, nodes))
        head = int(rng.integers(0, nodes))
        if tail != head:
            network.add_edge(tail, head, float(rng.integers(1, 50)))
    network.add_vertex(0)
    network.add_vertex(nodes - 1)
    return network


@pytest.mark.benchmark(group="substrate-flow")
def test_bench_edmonds_karp(benchmark):
    def run():
        network = _random_flow_network(3, nodes=60, edges=400)
        return edmonds_karp_max_flow(network, 0, 59)

    value = benchmark(run)
    assert value >= 0.0


@pytest.mark.benchmark(group="substrate-flow")
def test_bench_incremental_cover_stream(benchmark):
    """Cost of a stream of 200 incremental cover computations."""

    def run():
        rng = np.random.default_rng(7)
        solver = IncrementalMaxFlow()
        live = {}
        for step in range(200):
            query = f"q{step}"
            solver.add_left(query, float(rng.integers(1, 20)))
            # A vertex is added once: an update id whose vertex was retired
            # by an earlier cover comes back as a fresh generation.
            slot = step % 40
            update = live.get(slot)
            if update is None or not solver.has_right(update):
                update = live[slot] = (slot, step)
                solver.add_right(update, float(1 + slot))
            solver.add_edge(query, update)
            delta = solver.compute_cover()
            solver.retire(left=delta.uncovered_left, right=delta.covered_right)
        return solver.augmentation_count

    assert benchmark(run) == 200


@pytest.mark.benchmark(group="substrate-cache")
def test_bench_gds_churn(benchmark):
    """Load/hit/evict churn through Greedy-Dual-Size."""

    def run():
        gds = GreedyDualSize()
        rng = random.Random(5)
        resident = set()
        for step in range(5000):
            object_id = rng.randint(1, 300)
            if object_id in resident:
                gds.on_hit(object_id, timestamp=float(step))
            else:
                gds.on_load(object_id, size=rng.uniform(1, 50), cost=rng.uniform(1, 50),
                            timestamp=float(step))
                resident.add(object_id)
                if len(resident) > 100:
                    victim = gds.victim(resident)
                    gds.on_evict(victim)
                    resident.discard(victim)
        return len(resident)

    assert benchmark(run) <= 101


@pytest.mark.benchmark(group="substrate-workload")
def test_bench_trace_generation(benchmark):
    """Generating a 10k-event interleaved SDSS-style trace."""

    def run():
        catalog = sdss_catalog(object_count=68)
        queries = SDSSQueryGenerator(
            catalog, SDSSWorkloadConfig(query_count=5000, target_total_cost=1000.0)
        ).generate()
        updates = SurveyUpdateGenerator(
            catalog, UpdateWorkloadConfig(update_count=5000, target_total_cost=1000.0)
        ).generate()
        return len(interleave(queries, updates))

    assert benchmark(run) == 10000


@pytest.mark.benchmark(group="substrate-policy")
def test_bench_vcover_events_per_second(benchmark, benchmark_scenario):
    """End-to-end per-event cost of the VCover policy on the default trace."""
    trace = benchmark_scenario.trace[:4000]

    def run():
        repository = Repository(benchmark_scenario.catalog)
        link = NetworkLink()
        policy = VCoverPolicy(
            repository, benchmark_scenario.cache_capacity, link, VCoverConfig()
        )
        for event in trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            elif isinstance(event, QueryEvent):
                policy.on_query(event.query)
        return link.total_cost

    total = benchmark(run)
    assert total > 0.0
