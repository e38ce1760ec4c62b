"""Tests for the multi-cache topology subsystem.

Covers the trace partitioner (repro.workload.partition), the topology specs
and fleet replays (repro.sim.multicache) -- including the load-bearing
guarantees: a 1-site topology is byte-identical to a single-cache run, and a
topology replay is deterministic in-process and across sweep worker counts
-- plus the ``multisite`` experiment row (its acceptance check, VCover at
or below the NoCache yardstick at every site count, is a claim gated in
``tests/test_figure_claims.py``).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.benefit import BenefitConfig
from repro.core.yardsticks import NoCachePolicy
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.network.link import NetworkLink
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.sim.multicache import TopologySpec, run_topology
from repro.sim.runner import benefit_spec, nocache_spec, policy_spec, run_policy, vcover_spec
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint, SweepRunner
from repro.sky.partition import contiguous_sky_slices
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.workload.partition import PARTITION_STRATEGIES, TracePartitioner
from repro.workload.trace import InlineScenario, QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update
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


def owner(partitioner: TracePartitioner, object_id: int) -> int:
    """The site a one-object query on ``object_id`` is routed to."""
    return partitioner(make_query(object_id, object_ids=[object_id], cost=1.0, timestamp=1.0))


class TestTracePartitioner:
    def test_region_assignment_is_contiguous(self, small_scenario):
        ids = small_scenario.catalog.object_ids
        partitioner = TracePartitioner(ids, 3, strategy="region")
        # Contiguous: site index is non-decreasing over sorted object ids,
        # and every site owns some.
        sites_in_order = [owner(partitioner, oid) for oid in sorted(ids)]
        assert sites_in_order == sorted(sites_in_order)
        assert set(sites_in_order) == {0, 1, 2}

    def test_affinity_spreads_hot_objects(self, small_scenario):
        partitioner = TracePartitioner.for_trace(
            small_scenario.catalog.object_ids, 4, small_scenario.trace,
            strategy="affinity",
        )
        hot = [oid for oid, _ in small_scenario.trace.query_hotspots(top=4)]
        # The four hottest objects land on four different sites.
        assert len({owner(partitioner, oid) for oid in hot}) == 4

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
        catalog = ObjectCatalog.from_sizes(dict.fromkeys(range(1, 7), 1.0))
        assert partitioner.sites_of_queries(trace.columns(), catalog).tolist() == [0, 2, 1, 0, 0]
        assert [partitioner(query) for query in trace.queries()] == [0, 2, 1, 0, 0]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="site_count"):
            TracePartitioner([1, 2], 0)
        with pytest.raises(ValueError, match="strategy"):
            TracePartitioner([1, 2], 2, strategy="roundrobin")

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_more_sites_than_objects_rejected(self, small_scenario, strategy):
        # Either strategy would leave a surplus site with no object to own.
        with pytest.raises(ValueError, match="cannot split 30 objects across 40 sites"):
            TracePartitioner.for_trace(
                small_scenario.catalog.object_ids, 40, small_scenario.trace, strategy=strategy
            )

    def test_affinity_without_queries_spreads_every_object(self):
        # A trace with no queries routes nothing, so every object weighs the
        # same and the greedy assignment alternates sites.
        trace = Trace(
            UpdateEvent(make_update(index, 1 + index % 4, 1.0, float(index + 1)))
            for index in range(8)
        )
        partitioner = TracePartitioner.for_trace([1, 2, 3, 4], 2, trace, strategy="affinity")
        assert [owner(partitioner, object_id) for object_id in (1, 2, 3, 4)] == [0, 1, 0, 1]

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
    assume(len(owned) >= site_count)
    counts = {object_id: touches[object_id - 1] for object_id in owned}
    partitioner = TracePartitioner(sorted(owned), site_count, strategy, query_counts=counts)
    trace = build_trace(raw)
    catalog = ObjectCatalog.from_sizes(dict.fromkeys(range(1, 9), 1.0))
    routes = partitioner.sites_of_queries(trace.columns(), catalog).tolist()
    assert routes == [partitioner.site_of_query(query) for query in trace.queries()]


class TestTopologySpec:
    def test_uniform_is_one_policy_at_n_sites(self):
        spec = TopologySpec.uniform(vcover_spec(), 3, cache_fraction=0.25)
        assert spec.site_count == 3
        assert spec.policy.name == "vcover"
        assert spec.name == "vcover-x3"

    def test_metadata_keeps_the_artifact_layout(self):
        # Sweep artifacts record this dict, so its layout is pinned.
        spec = TopologySpec.uniform(vcover_spec(), 3, cache_fraction=0.25, strategy="affinity")
        assert spec.metadata() == {
            "name": "vcover-x3",
            "site_count": 3,
            "strategy": "affinity",
            "policies": ["vcover", "vcover", "vcover"],
            "cache_fractions": [0.25, 0.25, 0.25],
            "cache_capacities": [None, None, None],
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            TopologySpec.uniform(vcover_spec(), 0, cache_fraction=0.3)
        with pytest.raises(ValueError, match="strategy"):
            TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.3, strategy="nope")

    def test_spec_is_picklable(self):
        spec = TopologySpec.uniform(vcover_spec(), 4, cache_fraction=0.3)
        clone = pickle.loads(pickle.dumps(spec))
        # partial-based factories do not compare equal across pickling, so
        # compare the metadata (what artifacts and workers actually use).
        assert clone.metadata() == spec.metadata()
        assert clone.policy.name == "vcover"


class TestFleetReplay:
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
        assert len(topology.site_runs) == 1
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
        partitioner = TracePartitioner.for_trace(
            small_scenario.catalog.object_ids, 2, small_scenario.trace
        )
        links = [NetworkLink(), NetworkLink()]
        policies = [NoCachePolicy(repository, 0.0, link) for link in links]
        ReplayKernel(repository, policies, links, engine_config, route=partitioner).run(
            small_scenario.trace
        )
        # One ingest per update event, regardless of the site count.
        assert repository.stats()["updates_received"] == float(
            small_scenario.trace.update_count
        )

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("name", ["nocache", "benefit", "vcover"])
    def test_update_only_trace_replays_at_every_strategy(self, strategy, name):
        # NoCache and Benefit replay batched, VCover per event; the batched
        # fleets must also match their per-event replay.
        catalog = ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 7)})
        trace = Trace(
            UpdateEvent(make_update(index, 1 + index % 6, 2.0, float(index + 1)))
            for index in range(30)
        )
        spec = policy_spec(name, BenefitConfig(window_size=4) if name == "benefit" else None)
        topology = TopologySpec.uniform(spec, 2, cache_fraction=0.3, strategy=strategy)
        engine = EngineConfig(sample_every=7)
        result = run_topology(topology, catalog, trace, engine)
        assert result.aggregate.events_processed == 30
        routed = [run.queries_answered_at_cache + run.queries_shipped for run in result.site_runs]
        assert routed == [0, 0]
        repository = Repository(catalog)
        links = [NetworkLink(), NetworkLink()]
        capacity = catalog.total_size * 0.3
        kernel = ReplayKernel(
            repository, [spec.factory(repository, capacity, link) for link in links], links,
            engine, route=TracePartitioner.for_trace(catalog.object_ids, 2, trace, strategy),
            on_decision=lambda payload, outcome: None,
        )  # fmt: skip
        per_event = kernel.run(trace, name=topology.name)
        assert [run.as_payload() for run in per_event[0]] == [
            run.as_payload() for run in result.site_runs
        ]
        assert per_event[1].as_payload() == result.aggregate.as_payload()

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

    def test_the_benchmark_import_path_still_runs_a_fleet(self, small_scenario, engine_config):
        # bench/workloads.py imports the spec from repro.topology.spec and
        # reads the fleet aggregate of a uniform spec.
        from repro.topology.spec import TopologySpec as BenchTopologySpec

        assert BenchTopologySpec is TopologySpec
        spec = BenchTopologySpec.uniform(benefit_spec(), 2, cache_fraction=0.3)
        result = run_topology(spec, small_scenario.catalog, small_scenario.trace, engine_config)
        assert result.name == "benefit-x2"
        assert result.aggregate.total_traffic == pytest.approx(
            sum(run.total_traffic for run in result.site_runs)
        )


class TestTopologyDeterminism:
    def test_rerun_is_byte_identical(self, small_scenario, engine_config):
        spec = TopologySpec.uniform(vcover_spec(), 4, cache_fraction=0.3)
        first = run_topology(
            spec, small_scenario.catalog, small_scenario.trace, engine_config
        )
        second = run_topology(
            spec, small_scenario.catalog, small_scenario.trace, engine_config
        )
        assert first.name == second.name == "vcover-x4"
        assert first.aggregate.as_payload() == second.aggregate.as_payload()
        assert [run.as_payload() for run in first.site_runs] == [
            run.as_payload() for run in second.site_runs
        ]

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
    """The ``multisite`` figure row; its yardstick claim is gated in test_figure_claims."""

    SITE_COUNTS = (1, 2, 4)

    @pytest.fixture(scope="class")
    def result(self, small_config):
        return api.run_experiment(
            "multisite",
            overrides={
                "object_count": small_config.object_count,
                "query_count": small_config.query_count,
                "update_count": small_config.update_count,
                "sample_every": small_config.sample_every,
                "site_counts": self.SITE_COUNTS,
                "policies": ("vcover", "nocache"),
            },
            jobs=2,
        )

    def test_nocache_traffic_independent_of_site_count(self, result):
        baseline, *others = result.series("nocache")
        for traffic in others:
            assert traffic == pytest.approx(baseline)

    def test_per_site_traffic_sums_to_aggregate(self, result):
        assert result.axis == self.SITE_COUNTS
        for count, comparison in zip(result.axis, result.comparisons, strict=True):
            run = comparison["vcover"]
            per_site = [run.policy_stats[f"site{site}_measured_traffic"] for site in range(count)]
            assert sum(per_site) == pytest.approx(run.measured_traffic)

    def test_format_table_mentions_every_policy(self, result):
        text = api.format_result("multisite", result)
        assert "vcover" in text and "nocache" in text
        assert "(holds)" in text
