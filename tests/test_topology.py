"""Tests for the multi-cache topology subsystem.

Covers the trace partitioner (repro.workload.partition), the topology specs
(repro.topology), fleet replays (repro.sim.multicache) -- including
the load-bearing guarantees: a 1-site topology is byte-identical to a
single-cache run, and a topology replay is deterministic in-process and
across sweep worker counts -- plus the multisite experiment and its
acceptance check (VCover at or below the NoCache yardstick at every site
count).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments import multisite
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.sim.engine import EngineConfig
from repro.sim.multicache import fleet_kernel, run_topology
from repro.sim.runner import nocache_spec, run_policy, vcover_spec
from repro.sim.sweep import DEFAULT_SCENARIO, InlineScenario, SweepPoint, SweepRunner
from repro.sky.partition import contiguous_sky_slices
from repro.topology import SiteSpec, TopologySpec, build_sites
from repro.repository.server import Repository
from repro.workload.partition import PARTITION_STRATEGIES, TracePartitioner
from repro.workload.trace import QueryEvent, Trace
from tests.conftest import make_query
from tests.strategies import build_trace, event_stream


@pytest.fixture(scope="module")
def small_config() -> ExperimentConfig:
    return ExperimentConfig(
        object_count=30, query_count=1200, update_count=1200, sample_every=300
    )


@pytest.fixture(scope="module")
def small_scenario(small_config):
    return build_scenario(small_config)


@pytest.fixture(scope="module")
def engine_config(small_config) -> EngineConfig:
    return EngineConfig(
        sample_every=small_config.sample_every,
        measure_from=small_config.measure_from,
    )


class TestSkySlices:
    def test_slices_are_contiguous_and_cover_everything(self):
        slices = contiguous_sky_slices(range(1, 11), 3)
        assert [len(piece) for piece in slices] == [4, 3, 3]
        assert [oid for piece in slices for oid in piece] == list(range(1, 11))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            contiguous_sky_slices(range(5), 0)
        with pytest.raises(ValueError):
            contiguous_sky_slices(range(3), 4)


class TestTracePartitioner:
    def test_region_assignment_is_contiguous(self, small_scenario):
        ids = small_scenario.catalog.object_ids
        partitioner = TracePartitioner(ids, 3, strategy="region")
        assignment = partitioner.assignment
        assert set(assignment) == set(ids)
        # Contiguous: site index is non-decreasing over sorted object ids.
        sites_in_order = [assignment[oid] for oid in sorted(ids)]
        assert sites_in_order == sorted(sites_in_order)

    def test_affinity_spreads_hot_objects(self, small_scenario):
        partitioner = TracePartitioner.for_trace(
            small_scenario.catalog.object_ids, 4, small_scenario.trace,
            strategy="affinity",
        )
        hot = [oid for oid, _ in small_scenario.trace.query_hotspots(top=4)]
        # The four hottest objects land on four different sites.
        assert len({partitioner.assignment[oid] for oid in hot}) == 4

    def test_query_routed_by_majority_vote(self):
        partitioner = TracePartitioner([1, 2, 3, 4], 2, strategy="region")
        assert partitioner.site_of_query(
            make_query(1, object_ids=[1, 2, 3], cost=1.0, timestamp=1.0)
        ) == 0
        assert partitioner.site_of_query(
            make_query(2, object_ids=[3, 4], cost=1.0, timestamp=2.0)
        ) == 1
        # Tie breaks to the lowest site index.
        assert partitioner.site_of_query(
            make_query(3, object_ids=[2, 3], cost=1.0, timestamp=3.0)
        ) == 0

    def test_vectorised_route_counts_votes_like_site_of_query(self):
        partitioner = TracePartitioner([1, 2, 3, 4, 5, 6], 3, strategy="region")
        footprints = (
            [1, 3],  # a tie between sites 0 and 1: the lower wins
            [3, 5, 6],  # site 2 outvotes site 1
            [4, 99],  # an unowned id casts no vote
            [98, 99],  # no votes at all: site 0
            [5, 6, 1, 2, 3],  # 2-2-1 across the three sites
        )
        trace = Trace(
            QueryEvent(make_query(index, object_ids=ids, cost=1.0, timestamp=float(index)))
            for index, ids in enumerate(footprints)
        )
        assert partitioner.sites_of_queries(trace.columns()).tolist() == [0, 2, 1, 0, 0]
        assert [partitioner(query) for query in trace.queries()] == [0, 2, 1, 0, 0]

    def test_split_broadcasts_updates_and_partitions_queries(self, small_scenario):
        trace = small_scenario.trace
        partitioner = TracePartitioner.for_trace(
            small_scenario.catalog.object_ids, 3, trace
        )
        pieces = partitioner.split(trace)
        assert len(pieces) == 3
        for piece in pieces:
            assert piece.update_count == trace.update_count
        assert sum(piece.query_count for piece in pieces) == trace.query_count
        # Every query landed on the site the router names.
        for site, piece in enumerate(pieces):
            for query in piece.queries():
                assert partitioner.site_of_query(query) == site

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="site_count"):
            TracePartitioner([1, 2], 0)
        with pytest.raises(ValueError, match="strategy"):
            TracePartitioner([1, 2], 2, strategy="roundrobin")

    def test_affinity_without_counts_rejected(self):
        # Without counts the greedy assignment would silently put every
        # object on site 0; the constructor must refuse instead.
        with pytest.raises(ValueError, match="query counts"):
            TracePartitioner([1, 2, 3, 4], 2, strategy="affinity")
        with pytest.raises(ValueError, match="query counts"):
            TracePartitioner([1, 2, 3, 4], 2, strategy="affinity", query_counts={})


@settings(max_examples=80, deadline=None)
@given(
    raw=event_stream(max_objects=8),
    owned=st.sets(st.integers(min_value=1, max_value=8), min_size=1),
    site_count=st.integers(min_value=1, max_value=4),
    strategy=st.sampled_from(PARTITION_STRATEGIES),
    touches=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
)
def test_property_vectorised_route_matches_site_of_query(
    raw, owned, site_count, strategy, touches
):
    """Every query's vectorised route is ``site_of_query``'s, unowned ids and
    tied votes included (queries touch ids 1-8; the partitioner owns a subset)."""
    assume(strategy == "affinity" or len(owned) >= site_count)
    counts = {object_id: touches[object_id - 1] for object_id in owned}
    partitioner = TracePartitioner(sorted(owned), site_count, strategy, query_counts=counts)
    trace = build_trace(raw)
    routes = partitioner.sites_of_queries(trace.columns()).tolist()
    assert routes == [partitioner.site_of_query(query) for query in trace.queries()]


class TestTopologySpec:
    def test_uniform_builds_ordered_sites(self):
        spec = TopologySpec.uniform(vcover_spec(), 3, cache_fraction=0.25)
        assert spec.site_count == 3
        assert [site.site_id for site in spec.sites] == [0, 1, 2]
        assert spec.name == "vcover-x3"
        assert spec.metadata()["policies"] == ["vcover", "vcover", "vcover"]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one site"):
            TopologySpec(name="empty", sites=())
        with pytest.raises(ValueError, match="strategy"):
            TopologySpec.uniform(vcover_spec(), 2, strategy="nope")
        with pytest.raises(ValueError, match="site ids"):
            TopologySpec(
                name="bad",
                sites=(SiteSpec(site_id=1, spec=vcover_spec()),),
            )

    def test_capacity_resolution(self):
        site = SiteSpec(site_id=0, spec=vcover_spec(), cache_fraction=0.5)
        assert site.resolve_capacity(100.0) == pytest.approx(50.0)
        absolute = SiteSpec(
            site_id=0, spec=vcover_spec(), cache_fraction=0.5, cache_capacity=7.0
        )
        assert absolute.resolve_capacity(100.0) == pytest.approx(7.0)
        defaulted = SiteSpec(site_id=0, spec=vcover_spec())
        assert defaulted.resolve_capacity(100.0) == pytest.approx(30.0)

    def test_spec_is_picklable(self):
        spec = TopologySpec.uniform(vcover_spec(), 4, cache_fraction=0.3)
        clone = pickle.loads(pickle.dumps(spec))
        # partial-based factories do not compare equal across pickling, so
        # compare the metadata (what artifacts and workers actually use).
        assert clone.metadata() == spec.metadata()
        assert clone.sites[0].spec.name == "vcover"


class TestMultiCacheEngine:
    def test_single_site_matches_single_cache_run(
        self, small_config, small_scenario, engine_config
    ):
        capacity = small_scenario.catalog.total_size * small_config.cache_fraction
        single = run_policy(
            vcover_spec(), small_scenario.catalog, small_scenario.trace,
            capacity, engine_config=engine_config,
        )
        topology = run_topology(
            TopologySpec.uniform(
                vcover_spec(), 1, cache_fraction=small_config.cache_fraction
            ),
            small_scenario.catalog, small_scenario.trace, engine_config,
        )
        assert topology.site_count == 1
        assert topology.site_runs[0].as_payload() == single.as_payload()
        assert topology.aggregate.total_traffic == single.total_traffic

    def test_updates_broadcast_queries_split(self, small_scenario, engine_config):
        spec = TopologySpec.uniform(vcover_spec(), 3, cache_fraction=0.3)
        result = run_topology(
            spec, small_scenario.catalog, small_scenario.trace, engine_config
        )
        trace = small_scenario.trace
        total_queries = sum(
            run.queries_answered_at_cache + run.queries_shipped
            for run in result.site_runs
        )
        assert total_queries == trace.query_count
        for run in result.site_runs:
            assert run.events_processed == trace.update_count + (
                run.queries_answered_at_cache + run.queries_shipped
            )
        assert result.aggregate.total_traffic == pytest.approx(
            sum(run.total_traffic for run in result.site_runs)
        )

    def test_repository_shared_not_replayed_per_site(self, small_scenario, engine_config):
        repository = Repository(small_scenario.catalog)
        spec = TopologySpec.uniform(nocache_spec(), 2, cache_fraction=0.3)
        partitioner = TracePartitioner.for_trace(
            small_scenario.catalog.object_ids, 2, small_scenario.trace
        )
        sites = build_sites(spec, repository)
        fleet_kernel(repository, sites, partitioner, engine_config).run(
            small_scenario.trace
        )
        # One ingest per update event, regardless of the site count.
        assert repository.stats()["updates_received"] == float(
            small_scenario.trace.update_count
        )

    def test_site_count_mismatch_rejected(self, small_scenario, engine_config):
        repository = Repository(small_scenario.catalog)
        spec = TopologySpec.uniform(nocache_spec(), 2)
        partitioner = TracePartitioner(small_scenario.catalog.object_ids, 3)
        sites = build_sites(spec, repository)
        with pytest.raises(ValueError, match="sites"):
            fleet_kernel(repository, sites, partitioner, engine_config)

    def test_format_table_lists_every_site_and_the_aggregate(
        self, small_scenario, engine_config
    ):
        result = run_topology(
            TopologySpec.uniform(vcover_spec(), 3, cache_fraction=0.3),
            small_scenario.catalog, small_scenario.trace, engine_config,
        )
        text = result.format_table()
        assert "3 sites, strategy=region" in text
        for site in range(3):
            assert f"site {site}" in text
        assert "aggregate" in text
        # The aggregate row carries the fleet-wide measured traffic.
        assert f"{result.measured_traffic:.1f}" in text

    def test_aggregate_carries_per_site_stats_and_occupancy(
        self, small_scenario, engine_config
    ):
        result = run_topology(
            TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.3),
            small_scenario.catalog, small_scenario.trace, engine_config,
        )
        stats = result.aggregate.policy_stats
        assert stats["site_count"] == 2.0
        for site in range(2):
            assert f"site{site}_total_traffic" in stats
            assert f"site{site}_measured_traffic" in stats
        assert result.aggregate.occupancy is not None
        assert len(result.aggregate.occupancy.event_indices) > 0
        for run in result.site_runs:
            assert run.occupancy is not None


class TestTopologyDeterminism:
    def test_rerun_is_byte_identical(self, small_scenario, engine_config):
        spec = TopologySpec.uniform(vcover_spec(), 4, cache_fraction=0.3)
        first = run_topology(
            spec, small_scenario.catalog, small_scenario.trace, engine_config
        )
        second = run_topology(
            spec, small_scenario.catalog, small_scenario.trace, engine_config
        )
        assert first.as_payload() == second.as_payload()

    @pytest.mark.parametrize("strategy", ["region", "affinity"])
    def test_sweep_jobs_match_serial(
        self, small_scenario, engine_config, strategy
    ):
        points = [
            SweepPoint(
                key=f"{spec.name}-x{sites}",
                spec=spec,
                engine=engine_config,
                tags=(("sites", sites),),
                topology=TopologySpec.uniform(
                    spec, sites, cache_fraction=0.3, strategy=strategy
                ),
            )
            for sites in (1, 2)
            for spec in (vcover_spec(), nocache_spec())
        ]
        scenarios = {
            DEFAULT_SCENARIO: InlineScenario(
                small_scenario.catalog, small_scenario.trace
            )
        }
        serial = SweepRunner(jobs=1).run(points, scenarios)
        parallel = SweepRunner(jobs=2).run(points, scenarios)
        assert len(serial) == len(parallel) == len(points)
        for one, other in zip(serial.points, parallel.points, strict=True):
            assert one.point.key == other.point.key
            assert one.payload() == other.payload()

    def test_topology_metadata_lands_in_artifacts(
        self, small_scenario, engine_config, tmp_path
    ):
        points = [
            SweepPoint(
                key="vcover-x2",
                spec=vcover_spec(),
                engine=engine_config,
                topology=TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.3),
            )
        ]
        scenarios = {
            DEFAULT_SCENARIO: InlineScenario(
                small_scenario.catalog, small_scenario.trace
            )
        }
        result = SweepRunner(jobs=1, output_dir=tmp_path).run(points, scenarios)
        payload = result["vcover-x2"].payload()
        assert payload["topology"]["site_count"] == 2
        assert payload["topology"]["strategy"] == "region"
        assert "site1_measured_traffic" in payload["result"]["policy_stats"]


class TestMultisiteExperiment:
    @pytest.fixture(scope="class")
    def result(self, small_config):
        return multisite.run(
            small_config,
            site_counts=(1, 2, 4),
            policies=("vcover", "nocache"),
            jobs=2,
        )

    def test_vcover_within_yardstick_at_every_site_count(self, result):
        assert result.vcover_within_yardstick()
        for count in result.site_counts:
            assert result.traffic("vcover", count) <= result.traffic("nocache", count)

    def test_nocache_traffic_independent_of_site_count(self, result):
        baseline = result.traffic("nocache", 1)
        for count in result.site_counts:
            assert result.traffic("nocache", count) == pytest.approx(baseline)

    def test_per_site_traffic_sums_to_aggregate(self, result):
        for count in result.site_counts:
            assert sum(result.site_traffic("vcover", count)) == pytest.approx(
                result.traffic("vcover", count)
            )

    def test_format_table_mentions_every_policy(self, result):
        text = multisite.format_table(result)
        assert "vcover" in text and "nocache" in text
        assert "every site count: yes" in text
