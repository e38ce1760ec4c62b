"""End-to-end integration tests across the whole stack.

These tests exercise the full pipeline -- catalogue, workload generation,
interleaving, the Delta facade / simulation engine, and the decision
policies -- on small but realistic scenarios, and check the global invariants
that hold regardless of workload randomness:

* traffic accounting is consistent between policies, outcomes and the link,
* currency guarantees are never violated,
* the yardstick identities hold (NoCache = total query cost, Replica = total
  update cost),
* results are reproducible for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.sim.delta import Delta, DeltaConfig
from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.network.link import NetworkLink
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig
from repro.sim.runner import compare_policies, default_policy_specs
from repro.workload.trace import QueryEvent, UpdateEvent


@pytest.fixture(scope="module")
def scenario():
    config = ExperimentConfig(
        object_count=30,
        query_count=2000,
        update_count=2000,
        sample_every=400,
        benefit_window=500,
    )
    return build_scenario(config)


@pytest.fixture(scope="module")
def comparison(scenario):
    config = scenario.config
    return compare_policies(
        scenario.catalog,
        scenario.trace,
        cache_fraction=config.cache_fraction,
        specs=default_policy_specs(),
        engine_config=EngineConfig(sample_every=config.sample_every,
                                   measure_from=config.measure_from),
    )


class TestYardstickIdentities:
    def test_nocache_equals_total_query_cost(self, scenario, comparison):
        assert comparison["nocache"].total_traffic == pytest.approx(
            scenario.trace.total_query_cost(), rel=1e-9
        )

    def test_replica_equals_total_update_cost(self, scenario, comparison):
        assert comparison["replica"].total_traffic == pytest.approx(
            scenario.trace.total_update_cost(), rel=1e-9
        )

    def test_replica_answers_every_query(self, comparison):
        assert comparison["replica"].cache_answer_fraction == pytest.approx(1.0)

    def test_nocache_answers_nothing(self, comparison):
        assert comparison["nocache"].cache_answer_fraction == pytest.approx(0.0)


class TestPaperOrdering:
    def test_vcover_beats_both_nocache_and_replica(self, comparison):
        vcover = comparison.traffic_of("vcover")
        assert vcover < comparison.traffic_of("nocache")
        assert vcover < comparison.traffic_of("replica")

    def test_soptimal_is_the_floor(self, comparison):
        soptimal = comparison.traffic_of("soptimal")
        for policy in ("vcover", "benefit"):
            assert soptimal <= comparison.traffic_of(policy) + 1e-6

    def test_every_policy_beats_or_matches_doing_both_naive_things(self, scenario, comparison):
        """No policy should cost more than shipping every query AND update."""
        ceiling = scenario.trace.total_query_cost() + scenario.trace.total_update_cost()
        for policy in comparison.policy_names():
            assert comparison[policy].total_traffic <= ceiling + scenario.catalog.total_size


class TestAccountingConsistency:
    def test_traffic_by_mechanism_sums_to_total(self, comparison):
        for policy in comparison.policy_names():
            run = comparison[policy]
            assert sum(run.traffic_by_mechanism.values()) == pytest.approx(run.total_traffic)

    def test_time_series_ends_at_total(self, comparison):
        for policy in comparison.policy_names():
            run = comparison[policy]
            assert run.time_series.final_total() == pytest.approx(run.total_traffic)

    def test_warmup_traffic_below_total(self, comparison):
        for policy in comparison.policy_names():
            run = comparison[policy]
            assert 0.0 <= run.warmup_traffic <= run.total_traffic + 1e-9


class TestCurrencyGuarantee:
    def test_vcover_never_serves_stale_data_beyond_tolerance(self, scenario):
        """Replaying manually, every cache answer satisfies the query's currency."""
        repository = Repository(scenario.catalog)
        link = NetworkLink()
        policy = VCoverPolicy(repository, scenario.cache_capacity, link, VCoverConfig())
        violations = 0
        for event in scenario.trace:
            if isinstance(event, UpdateEvent):
                repository.ingest_update(event.update)
                policy.on_update(event.update)
            elif isinstance(event, QueryEvent):
                outcome = policy.on_query(event.query)
                if outcome.answered_at_cache:
                    for object_id in event.query.object_ids:
                        if policy.interacting_updates(event.query, object_id):
                            violations += 1
        assert violations == 0


class TestReproducibility:
    def test_same_seed_same_results(self, scenario):
        config = scenario.config
        def run_once():
            fresh = build_scenario(config)
            return compare_policies(
                fresh.catalog, fresh.trace, cache_fraction=config.cache_fraction,
                specs=default_policy_specs(include=("vcover",)),
                engine_config=EngineConfig(sample_every=config.sample_every,
                                           measure_from=config.measure_from),
            ).traffic_of("vcover")
        assert run_once() == pytest.approx(run_once())


class TestDeltaFacadeEndToEnd:
    def test_facade_replay_matches_policy_behaviour(self, scenario):
        delta = Delta(
            scenario.catalog,
            DeltaConfig(policy="vcover", cache_fraction=scenario.config.cache_fraction),
        )
        answered = 0
        for event in scenario.trace[:2000]:
            if isinstance(event, UpdateEvent):
                delta.ingest_update(event.update)
            else:
                if delta.submit_query(event.query).answered_at_cache:
                    answered += 1
        report = delta.traffic_report()
        assert report["total"] == pytest.approx(sum(
            value for key, value in report.items() if key != "total"
        ))
        assert delta.cache_report()["queries_processed"] > 0
