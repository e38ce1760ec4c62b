"""Sampling-grid edge cases for every shape the replay kernel runs.

Regression suite for two end-of-run sampling bugs:

* the engines used to record a *duplicate* final ``TrafficSample`` whenever
  ``total_events % sample_every == 0`` (once from the in-loop grid check,
  once from the epilogue),
* :class:`repro.sim.metrics.CacheOccupancySeries` never received an
  end-of-run sample at all, so it stopped at the last grid point and stayed
  empty for traces shorter than ``sample_every``.

The contract, for every row (scalar, batched, routed, fleet) and every
series, the aggregate's included: sample indices are strictly increasing,
fall on the grid except for the last one, and always end at ``total_events``
exactly once.
"""

from __future__ import annotations

import pytest

from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.sim.multicache import TopologySpec, run_topology
from repro.sim.runner import vcover_spec
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({1: 10.0, 2: 20.0, 3: 30.0})


def build_trace(events: int) -> Trace:
    items = []
    for index in range(events):
        timestamp = float(index + 1)
        if index % 3 == 2:
            items.append(
                UpdateEvent(
                    make_update(index, object_id=1 + index % 3, cost=1.0, timestamp=timestamp)
                )
            )
        else:
            items.append(
                QueryEvent(
                    make_query(index, object_ids=[1 + index % 3], cost=2.0, timestamp=timestamp)
                )
            )
    return Trace(items)


# ``vcover`` exercises the per-event step, ``nocache``/``replica`` the batched
# executors, the fleet rows the router and the aggregate series -- one grid
# walker serves them all, so the contract must hold identically on every row.
FLEET_ROWS = ("routed-1", "fleet-2")
POLICIES = ("nocache", "replica", "vcover") + FLEET_ROWS
STORE_ROWS = ("replica", "vcover") + FLEET_ROWS


def run_rows(catalog, row: str, events: int, sample_every: int, measure_from: int = 0):
    """Every run the kernel builds for one row: the site runs, then the aggregate.

    ``nocache``/``replica``/``vcover`` are one site without a router (no
    aggregate); ``routed-1`` and ``fleet-2`` are VCover fleets of one and two
    sites, which also emit the aggregate run.
    """
    repository = Repository(catalog)
    links = [NetworkLink() for _ in range(2 if row == "fleet-2" else 1)]
    if row == "nocache":
        policies = [NoCachePolicy(repository, 0.0, links[0])]
    elif row == "replica":
        policies = [ReplicaPolicy(repository, float("inf"), links[0])]
    else:
        policies = [VCoverPolicy(repository, 30.0, link, VCoverConfig()) for link in links]
    route = (lambda query: query.query_id % len(links)) if row in FLEET_ROWS else None
    config = EngineConfig(sample_every=sample_every, measure_from=measure_from)
    site_runs, aggregate = ReplayKernel(
        repository, policies, links, config, route=route
    ).run(build_trace(events))
    assert (aggregate is not None) == (row in FLEET_ROWS)
    return site_runs + ([aggregate] if aggregate is not None else [])


def assert_grid(indices, events: int, sample_every: int) -> None:
    """The grid contract: strictly increasing, on-grid, ends at ``events`` once."""
    assert indices == sorted(set(indices)), f"not strictly increasing: {indices}"
    assert indices[-1] == events
    assert indices.count(events) == 1
    for index in indices[:-1]:
        assert index % sample_every == 0, f"off-grid interior sample {index}"
    expected = list(range(sample_every, events, sample_every)) + [events]
    assert indices == expected


class TestSingleCacheGrid:
    @pytest.mark.parametrize("row", POLICIES)
    def test_length_equals_sample_every(self, catalog, row):
        for result in run_rows(catalog, row, events=10, sample_every=10):
            assert result.time_series.event_indices() == [10]

    @pytest.mark.parametrize("row", POLICIES)
    def test_length_shorter_than_sample_every(self, catalog, row):
        for result in run_rows(catalog, row, events=7, sample_every=10):
            assert result.time_series.event_indices() == [7]

    @pytest.mark.parametrize("row", POLICIES)
    def test_length_multiple_of_sample_every_no_duplicate(self, catalog, row):
        for result in run_rows(catalog, row, events=30, sample_every=10):
            assert_grid(result.time_series.event_indices(), 30, 10)

    @pytest.mark.parametrize("row", POLICIES)
    def test_length_off_grid(self, catalog, row):
        for result in run_rows(catalog, row, events=25, sample_every=10):
            assert_grid(result.time_series.event_indices(), 25, 10)

    @pytest.mark.parametrize("row", STORE_ROWS)
    def test_occupancy_gets_end_of_run_sample(self, catalog, row):
        for result in run_rows(catalog, row, events=25, sample_every=10):
            assert result.occupancy is not None
            assert_grid(result.occupancy.event_indices, 25, 10)

    @pytest.mark.parametrize("row", STORE_ROWS)
    def test_occupancy_sampled_for_short_traces(self, catalog, row):
        # Used to stay completely empty below sample_every.
        for result in run_rows(catalog, row, events=7, sample_every=10):
            assert result.occupancy.event_indices == [7]

    @pytest.mark.parametrize("row", STORE_ROWS)
    def test_occupancy_no_duplicate_on_grid_boundary(self, catalog, row):
        for result in run_rows(catalog, row, events=20, sample_every=10):
            assert result.occupancy.event_indices == [10, 20]

    @pytest.mark.parametrize("row", POLICIES)
    @pytest.mark.parametrize("measure_from", (10, 13))
    def test_warmup_capture_on_and_off_grid(self, catalog, row, measure_from):
        # Reference: a sample-every-1 run records cumulative traffic after
        # every event; warm-up at measure_from is the cumulative cost of the
        # first measure_from events.
        references = run_rows(catalog, row, events=25, sample_every=1)
        results = run_rows(
            catalog, row, events=25, sample_every=10, measure_from=measure_from
        )
        for reference, result in zip(references, results, strict=True):
            expected = reference.time_series.totals()[measure_from - 1]
            assert result.warmup_traffic == pytest.approx(expected)
            assert result.measured_traffic == pytest.approx(
                result.total_traffic - expected
            )

    @pytest.mark.parametrize("row", POLICIES)
    def test_measure_from_beyond_trace(self, catalog, row):
        for result in run_rows(
            catalog, row, events=7, sample_every=10, measure_from=100
        ):
            assert result.warmup_traffic == pytest.approx(result.total_traffic)
            assert result.measured_traffic == pytest.approx(0.0)


class TestMultiCacheGrid:
    def run_fleet(self, catalog, events: int, sample_every: int):
        return run_topology(
            TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.5),
            catalog,
            build_trace(events),
            EngineConfig(sample_every=sample_every),
        )

    def test_no_duplicate_final_sample_on_grid(self, catalog):
        result = self.run_fleet(catalog, events=30, sample_every=10)
        assert_grid(result.aggregate.time_series.event_indices(), 30, 10)
        for run in result.site_runs:
            assert_grid(run.time_series.event_indices(), 30, 10)

    def test_off_grid_length(self, catalog):
        result = self.run_fleet(catalog, events=25, sample_every=10)
        assert_grid(result.aggregate.time_series.event_indices(), 25, 10)
        for run in result.site_runs:
            assert_grid(run.time_series.event_indices(), 25, 10)

    def test_short_trace_still_sampled(self, catalog):
        result = self.run_fleet(catalog, events=7, sample_every=10)
        assert result.aggregate.time_series.event_indices() == [7]
        for run in result.site_runs:
            assert run.time_series.event_indices() == [7]

    def test_occupancy_series_follow_the_same_grid(self, catalog):
        result = self.run_fleet(catalog, events=25, sample_every=10)
        assert result.aggregate.occupancy is not None
        assert_grid(result.aggregate.occupancy.event_indices, 25, 10)
        for run in result.site_runs:
            assert run.occupancy is not None
            assert_grid(run.occupancy.event_indices, 25, 10)

    def test_occupancy_end_of_run_only_for_short_traces(self, catalog):
        result = self.run_fleet(catalog, events=7, sample_every=10)
        assert result.aggregate.occupancy.event_indices == [7]
        for run in result.site_runs:
            assert run.occupancy.event_indices == [7]
