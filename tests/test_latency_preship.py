"""Tests for the latency model and the preshipping extension."""

from __future__ import annotations

import pytest

from repro.core.decoupling import QueryOutcome
from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.experiments.ablations import run_preship_ablation
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.core.latency import (
    LatencyModel,
    ResponseTimeSummary,
    summarise_response_times,
)
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from tests.conftest import make_query, make_update


class TestLatencyModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            LatencyModel(round_trip_time=-1.0)

    def test_transfer_time_components(self):
        model = LatencyModel(bandwidth=100.0, round_trip_time=0.05)
        assert model.transfer_time(0.0) == pytest.approx(0.0)
        assert model.transfer_time(50.0) == pytest.approx(0.05 + 0.5)
        with pytest.raises(ValueError):
            model.transfer_time(-1.0)

    def test_cache_answer_is_local_latency(self):
        model = LatencyModel(local_latency=0.01)
        outcome = QueryOutcome(query_id=1, answered_at_cache=True)
        assert model.response_time(outcome) == pytest.approx(0.01)
        assert not model.is_delayed(outcome)

    def test_shipped_query_pays_wide_area_exchange(self):
        model = LatencyModel(bandwidth=10.0, round_trip_time=0.1, local_latency=0.0)
        outcome = QueryOutcome(query_id=1, answered_at_cache=False, query_shipping_cost=5.0)
        assert model.response_time(outcome) == pytest.approx(0.1 + 0.5)
        assert model.is_delayed(outcome)

    def test_update_wait_adds_latency(self):
        model = LatencyModel(bandwidth=10.0, round_trip_time=0.1, local_latency=0.0)
        outcome = QueryOutcome(query_id=1, answered_at_cache=True, update_shipping_cost=2.0)
        assert model.response_time(outcome) == pytest.approx(0.1 + 0.2)
        assert model.is_delayed(outcome)

    def test_background_loads_do_not_delay(self):
        model = LatencyModel(local_latency=0.0, round_trip_time=0.1)
        outcome = QueryOutcome(query_id=1, answered_at_cache=True, load_cost=100.0)
        assert model.response_time(outcome) == pytest.approx(0.0)

    def test_summary_statistics(self):
        model = LatencyModel(bandwidth=10.0, round_trip_time=0.0, local_latency=0.0)
        outcomes = [
            QueryOutcome(query_id=1, answered_at_cache=True),
            QueryOutcome(query_id=2, answered_at_cache=False, query_shipping_cost=10.0),
        ]
        summary = summarise_response_times(outcomes, model)
        assert summary.count == 2
        assert summary.mean == pytest.approx(0.5)
        assert summary.max == pytest.approx(1.0)
        assert summary.delayed_fraction == pytest.approx(0.5)

    def test_empty_summary(self):
        summary = summarise_response_times([], LatencyModel())
        assert summary == ResponseTimeSummary.empty()


class TestPreshipping:
    def _policy(self, preship: bool):
        catalog = ObjectCatalog.from_sizes({1: 10.0, 2: 20.0})
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(
            repository, 40.0, link, VCoverConfig(preship=preship, preship_min_hits=1)
        )
        return policy, repository, link

    def _load_and_hit(self, policy):
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))  # load
        policy.on_query(make_query(2, object_ids=[1], cost=5.0, timestamp=2.0))   # hit

    def test_preship_pushes_updates_for_hot_objects(self):
        policy, repository, link = self._policy(preship=True)
        self._load_and_hit(policy)
        update = make_update(1, object_id=1, cost=1.5, timestamp=3.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert policy.outstanding_updates(1) == []
        assert link.total_by_mechanism()["update_shipping"] == pytest.approx(1.5)
        # The next query finds the object fresh: no waiting at all.
        outcome = policy.on_query(make_query(3, object_ids=[1], cost=5.0, timestamp=4.0))
        assert outcome.answered_at_cache
        assert outcome.update_shipping_cost == pytest.approx(0.0)

    def test_without_preship_query_waits_for_update(self):
        policy, repository, link = self._policy(preship=False)
        self._load_and_hit(policy)
        update = make_update(1, object_id=1, cost=1.5, timestamp=3.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert len(policy.outstanding_updates(1)) == 1
        outcome = policy.on_query(make_query(3, object_ids=[1], cost=5.0, timestamp=4.0))
        # The update is shipped synchronously as part of answering the query.
        assert outcome.update_shipping_cost > 0.0 or not outcome.answered_at_cache

    def test_preship_skips_objects_without_hits(self):
        policy, repository, link = self._policy(preship=True)
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))  # load, 0 hits
        update = make_update(1, object_id=1, cost=1.5, timestamp=2.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert len(policy.outstanding_updates(1)) == 1

    def test_preship_drops_shipped_updates_from_interaction_graph(self):
        # Regression: preshipping used to ship outstanding updates without
        # telling the UpdateManager, leaving stale vertices in the
        # interaction graph that inflate later cover weights.
        catalog = ObjectCatalog.from_sizes({1: 10.0})
        repository = Repository(catalog)
        link = NetworkLink()
        policy = VCoverPolicy(
            repository, 40.0, link, VCoverConfig(preship=True, preship_min_hits=1)
        )
        manager = policy.update_manager

        # Load object 1 (expensive first query justifies the load).
        policy.on_query(make_query(1, object_ids=[1], cost=50.0, timestamp=1.0))
        assert policy.is_resident(1)
        # An expensive update arrives before any cache hit: no preship.
        update = make_update(1, object_id=1, cost=100.0, timestamp=2.0)
        repository.ingest_update(update)
        policy.on_update(update)
        assert len(policy.outstanding_updates(1)) == 1
        # A cheap query interacts with it; the cover ships the query and the
        # update vertex stays in the remainder graph.
        policy.on_query(make_query(2, object_ids=[1], cost=1.0, timestamp=3.0))
        assert manager.active_update_ids() == {update.update_id}
        # A tolerant query is answered at the cache, making the object hot.
        policy.on_query(
            make_query(3, object_ids=[1], cost=5.0, timestamp=4.0, tolerance=100.0)
        )
        # The next update triggers preshipping of everything outstanding;
        # the shipped updates must leave the graph too.
        second = make_update(2, object_id=1, cost=2.0, timestamp=5.0)
        repository.ingest_update(second)
        policy.on_update(second)
        assert policy.outstanding_updates(1) == []
        assert manager.active_update_ids() == frozenset()

    def test_graph_never_tracks_non_outstanding_updates(self):
        # Invariant behind the fix: every update vertex in the interaction
        # graph corresponds to an update the policy still holds outstanding.
        config = ExperimentConfig(
            object_count=20, query_count=600, update_count=600, sample_every=200
        )
        scenario = build_scenario(config)
        repository = Repository(scenario.catalog)
        link = NetworkLink()
        policy = VCoverPolicy(
            repository,
            scenario.cache_capacity,
            link,
            VCoverConfig(preship=True, preship_min_hits=1),
        )
        manager = policy.update_manager
        for event in scenario.trace:
            if event.kind == "update":
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            else:
                policy.on_query(event.query)
            outstanding = {
                update.update_id
                for object_id in policy.resident_objects()
                for update in policy.outstanding_updates(object_id)
            }
            assert manager.active_update_ids() <= outstanding

    def test_preship_ablation_improves_latency_not_traffic(self):
        config = ExperimentConfig(
            object_count=20, query_count=800, update_count=800, sample_every=200
        )
        scenario = build_scenario(config)
        results = run_preship_ablation(config, scenario)
        assert set(results) == {"baseline", "preship"}
        baseline = results["baseline"]
        preship = results["preship"]
        # Preshipping can only add traffic...
        assert preship.total_traffic >= baseline.total_traffic - 1e-6
        # ...but it reduces (or at least never increases) the fraction of
        # queries that wait on synchronous update shipping.
        assert (
            preship.response_times.delayed_fraction
            <= baseline.response_times.delayed_fraction + 1e-9
        )
