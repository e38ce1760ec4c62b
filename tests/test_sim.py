"""Tests for the simulation engine, metrics, results and runner."""

from __future__ import annotations

import pytest

from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, SOptimalPolicy
from repro.network.cost import LinearCostModel
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.sim.metrics import CacheOccupancySeries, TrafficTimeSeries
from repro.sim.runner import (
    SERVABLE_POLICIES,
    build_site,
    check_online,
    compare_policies,
    default_policy_specs,
    policy_spec,
    run_policy,
    vcover_spec,
)
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({1: 10.0, 2: 20.0, 3: 30.0})


def build_trace(events: int = 30) -> Trace:
    items = []
    for index in range(events):
        timestamp = float(index + 1)
        if index % 3 == 2:
            items.append(UpdateEvent(make_update(index, object_id=1 + index % 3, cost=1.0,
                                                  timestamp=timestamp)))
        else:
            items.append(QueryEvent(make_query(index, object_ids=[1 + index % 3], cost=2.0,
                                               timestamp=timestamp)))
    return Trace(items)


class TestTrafficTimeSeries:
    def test_sampling_grid(self):
        link = NetworkLink()
        series = TrafficTimeSeries(link, sample_every=10)
        for index in range(1, 31):
            link.ship_query(1.0)
            series.maybe_sample(index)
        assert series.event_indices() == [10, 20, 30]
        assert series.totals() == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0)]

    def test_invalid_sample_every(self):
        with pytest.raises(ValueError):
            TrafficTimeSeries(NetworkLink(), sample_every=0)

    def test_series_for_mechanism(self):
        link = NetworkLink()
        series = TrafficTimeSeries(link, sample_every=1)
        link.load_object(5.0)
        series.sample(1)
        assert series.series_for("object_loading") == [pytest.approx(5.0)]
        with pytest.raises(ValueError):
            series.series_for("teleport")

    def test_final_total_empty(self):
        series = TrafficTimeSeries(NetworkLink(), sample_every=1)
        assert series.final_total() == 0.0

    def test_occupancy_series(self):
        occupancy = CacheOccupancySeries(sample_every=5)
        occupancy.maybe_sample(5, used=10.0, capacity=40.0, count=2)
        occupancy.maybe_sample(7, used=10.0, capacity=40.0, count=2)
        assert occupancy.event_indices == [5]
        assert occupancy.occupancy == [pytest.approx(0.25)]


def replay(repository, policy, link, config, trace, progress=None):
    """One cache, no router: the kernel's single site run (and no aggregate)."""
    (result,), aggregate = ReplayKernel(repository, [policy], [link], config).run(
        trace, progress=progress
    )
    assert aggregate is None
    return result


class TestEngine:
    def test_run_counts_queries_and_samples(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        trace = build_trace(30)
        result = replay(repository, policy, link, EngineConfig(sample_every=10), trace)
        assert result.events_processed == 30
        assert result.queries_shipped == trace.query_count
        assert result.queries_answered_at_cache == 0
        assert result.total_traffic == pytest.approx(trace.total_query_cost())
        assert result.time_series.event_indices()[-1] == 30

    def test_measurement_window_excludes_warmup(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        trace = build_trace(30)
        config = EngineConfig(sample_every=10, measure_from=15)
        result = replay(repository, policy, link, config, trace)
        assert 0.0 < result.warmup_traffic < result.total_traffic
        assert result.measured_traffic == pytest.approx(
            result.total_traffic - result.warmup_traffic
        )

    def test_progress_callback_invoked(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        calls = []
        replay(
            repository, policy, link, EngineConfig(sample_every=10), build_trace(30),
            progress=lambda done, total: calls.append(done),
        )
        assert calls == [10, 20, 30]

    def test_progress_reports_completion_of_short_traces(self, catalog):
        # Regression: traces shorter than sample_every never hit a sampling
        # boundary, so the progress callback was never invoked and callers
        # never saw the run finish.
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        calls = []
        replay(
            repository, policy, link, EngineConfig(sample_every=1000), build_trace(7),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(7, 7)]

    def test_progress_final_report_not_duplicated(self, catalog):
        # A trace ending exactly on a sampling boundary already reports
        # (total, total) from inside the loop; the completion guarantee must
        # not fire a second time.
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        calls = []
        replay(
            repository, policy, link, EngineConfig(sample_every=10), build_trace(20),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(10, 20), (20, 20)]

    def test_progress_fires_between_boundaries_and_at_end(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        calls = []
        replay(
            repository, policy, link, EngineConfig(sample_every=10), build_trace(25),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(10, 25), (20, 25), (25, 25)]

    def test_progress_on_empty_trace(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        calls = []
        replay(
            repository, policy, link, EngineConfig(sample_every=10), Trace([]),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(0, 0)]

    def test_vcover_run_produces_policy_stats(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(repository, 30.0, link, VCoverConfig())
        result = replay(repository, policy, link, EngineConfig(sample_every=10), build_trace(30))
        assert "update_manager_decisions" in result.policy_stats

    def test_occupancy_series_attached_to_result(self, catalog):
        # Regression: the engine used to build and sample the occupancy
        # series but never attach it to the RunResult.
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(repository, 30.0, link, VCoverConfig())
        result = replay(repository, policy, link, EngineConfig(sample_every=10), build_trace(30))
        assert result.occupancy is not None
        assert result.occupancy.event_indices == [10, 20, 30]
        assert len(result.occupancy.occupancy) == 3
        assert result.occupancy.resident_objects[-1] == len(policy.store)

    def test_occupancy_serialised_in_payload(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(repository, 30.0, link, VCoverConfig())
        result = replay(repository, policy, link, EngineConfig(sample_every=10), build_trace(30))
        payload = result.as_payload()
        assert payload["occupancy"] == [
            [index, fraction, resident]
            for index, fraction, resident in zip(
                result.occupancy.event_indices,
                result.occupancy.occupancy,
                result.occupancy.resident_objects,
                strict=True,
            )
        ]


class TestKernel:
    def observed(self, catalog, drive):
        """Counters, link totals and on_decision rows after ``drive(kernel)``."""
        repository = Repository(catalog)
        links = [NetworkLink(), NetworkLink()]
        policies = [VCoverPolicy(repository, 30.0, link, VCoverConfig()) for link in links]
        rows = []
        kernel = ReplayKernel(
            repository, policies, links, EngineConfig(sample_every=10),
            route=lambda query: query.query_id % 2,
            on_decision=lambda payload, outcome: rows.append(
                (type(payload).__name__, outcome and outcome.answered_at_cache)
            ),
        )
        drive(kernel)
        return (
            kernel.counters(),
            [link.total_by_mechanism() for link in links],
            repository.stats(),
            rows,
        )

    def test_stepping_event_by_event_matches_run(self, catalog):
        # The server drives step() once per frame; a replay drives run().
        trace = build_trace(60)

        def stepped(kernel):
            for is_update, payload in trace.iter_tagged():
                kernel.step(is_update, payload)

        by_step = self.observed(catalog, stepped)
        by_run = self.observed(catalog, lambda kernel: kernel.run(trace))
        assert by_step == by_run
        counters, _, _, rows = by_step
        assert counters["events_processed"] == len(rows) == 60
        assert (
            counters["queries_answered_at_cache"] + counters["queries_shipped"]
            == trace.query_count
        )
        assert [kind for kind, _ in rows].count("Update") == trace.update_count

    def test_site_lists_must_pair_up(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        policy = NoCachePolicy(repository, 0.0, link)
        with pytest.raises(ValueError, match="1 policies but 2 links"):
            ReplayKernel(repository, [policy], [link, NetworkLink()])
        with pytest.raises(ValueError, match="at least one site"):
            ReplayKernel(repository, [], [])

    def test_fleet_needs_a_router(self, catalog):
        repository = Repository(catalog)
        links = [NetworkLink(), NetworkLink()]
        policies = [NoCachePolicy(repository, 0.0, link) for link in links]
        with pytest.raises(ValueError, match="router"):
            ReplayKernel(repository, policies, links)


class TestBuildSite:
    def test_site_pairs_a_fresh_repository_with_its_own_link(self, catalog):
        first = build_site(catalog, vcover_spec(), 30.0)
        second = build_site(catalog, vcover_spec(), 30.0)
        (policy,) = first.policies
        assert isinstance(policy, VCoverPolicy)
        assert policy.store.capacity == pytest.approx(30.0)
        assert policy.repository.catalog is catalog
        other = second.policies[0]
        assert other.repository is not policy.repository
        assert other.link is not policy.link

    def test_run_matches_a_hand_built_stack(self, catalog):
        trace = build_trace(60)
        config = EngineConfig(sample_every=7)
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(repository, 30.0, link)
        by_hand = replay(repository, policy, link, config, trace)
        (built,), aggregate = build_site(catalog, vcover_spec(), 30.0, config).run(trace)
        assert aggregate is None
        assert built.as_payload() == by_hand.as_payload()

    def test_cost_model_prices_the_link(self, catalog):
        trace = build_trace(30)
        spec = default_policy_specs(include=("nocache",))[0]
        plain = build_site(catalog, spec, 0.0)
        tripled = build_site(catalog, spec, 0.0, cost_model=LinearCostModel(factor=3.0))
        plain.run(trace)
        tripled.run(trace)
        assert tripled.policies[0].link.cost_model == LinearCostModel(factor=3.0)
        assert tripled.policies[0].link.total_cost == pytest.approx(
            3.0 * plain.policies[0].link.total_cost
        )

    def test_on_decision_sees_every_event(self, catalog):
        trace = build_trace(30)
        rows = []
        kernel = build_site(
            catalog, vcover_spec(), 30.0,
            on_decision=lambda payload, outcome: rows.append(payload),
        )
        for is_update, payload in trace.iter_tagged():
            kernel.step(is_update, payload)
        assert len(rows) == kernel.counters()["events_processed"] == 30

    def test_policies_are_a_tuple_in_site_order(self, catalog):
        repository = Repository(catalog)
        links = [NetworkLink(), NetworkLink()]
        policies = [NoCachePolicy(repository, 0.0, link) for link in links]
        kernel = ReplayKernel(repository, policies, links, route=lambda query: 0)
        assert kernel.policies == tuple(policies)


class TestCheckOnline:
    @pytest.mark.parametrize("name", SERVABLE_POLICIES)
    def test_online_policies_accepted(self, catalog, name):
        spec = policy_spec(name)
        check_online(spec, build_site(catalog, spec, 30.0).policies[0])

    def test_offline_policy_refused_whatever_its_name(self, catalog):
        spec = policy_spec("soptimal", name="vcover")
        policy = build_site(catalog, spec, 30.0).policies[0]
        assert isinstance(policy, SOptimalPolicy)
        with pytest.raises(ValueError, match="'vcover' builds SOptimalPolicy"):
            check_online(spec, policy)


class TestResults:
    def test_run_result_summary_and_fraction(self, catalog):
        spec = default_policy_specs(include=("nocache",))[0]
        result = run_policy(spec, catalog, build_trace(30), cache_capacity=30.0)
        assert result.cache_answer_fraction == 0.0
        assert "total_traffic" in result.summary()

    def test_comparison_ratios_and_ranking(self, catalog):
        trace = build_trace(60)
        comparison = compare_policies(
            catalog, trace, cache_fraction=0.5,
            specs=default_policy_specs(include=("nocache", "replica", "vcover")),
        )
        assert set(comparison.policy_names()) == {"nocache", "replica", "vcover"}
        ranking = comparison.ranking()
        assert ranking == sorted(ranking, key=lambda item: item[1])
        assert comparison.ratio("nocache", "nocache") == pytest.approx(1.0)
        table = comparison.as_table()
        assert "nocache" in table and "vcover" in table
        assert "nocache_over_vcover" in comparison.summary()

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError):
            default_policy_specs(include=("quantum",))

    def test_run_policy_uses_fresh_repository(self, catalog):
        """Two runs over the same catalogue do not contaminate each other."""
        trace = build_trace(30)
        spec = default_policy_specs(include=("replica",))[0]
        first = run_policy(spec, catalog, trace, cache_capacity=0.0)
        second = run_policy(spec, catalog, trace, cache_capacity=0.0)
        assert first.total_traffic == pytest.approx(second.total_traffic)

    def test_absolute_cache_capacity_override(self, catalog):
        trace = build_trace(30)
        comparison = compare_policies(
            catalog, trace, cache_capacity=5.0,
            specs=default_policy_specs(include=("vcover",)),
        )
        assert comparison["vcover"].policy_stats["store_capacity"] == pytest.approx(5.0)
