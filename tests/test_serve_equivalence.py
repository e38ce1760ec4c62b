"""Sim-vs-served equivalence: byte-identical decisions, identical counters.

The tentpole guarantee of ``repro.serve``: for any online policy, replaying
a trace through the simulation engine and serving the same trace over TCP
(with any number of concurrent clients) produce the **same decision
sequence, byte for byte**, and the same traffic accounting.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.benefit import BenefitConfig
from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.serve import protocol
from repro.serve.equivalence import logs_identical, replay_with_log, serve_with_log
from repro.serve.harness import SERVABLE_POLICIES
from repro.serve.server import CacheServer
from repro.sim.runner import default_policy_specs
from repro.workload.trace import event_to_dict


def build_case(policy: str, **overrides):
    base = dict(object_count=20, query_count=120, update_count=120)
    base.update(overrides)
    config = ExperimentConfig().scaled(**base)
    catalog, trace = build_scenario_stream(config)
    spec = default_policy_specs(
        benefit_config=BenefitConfig(window_size=config.benefit_window),
        include=(policy,),
    )[0]
    return config, catalog, trace, spec, catalog.total_size * config.cache_fraction


@pytest.mark.parametrize("policy", SERVABLE_POLICIES)
class TestSimVsServed:
    def test_decision_logs_byte_identical(self, policy):
        config, catalog, trace, spec, capacity = build_case(policy)
        result, sim_log = replay_with_log(spec, catalog, trace, capacity)
        # Fresh catalogue + trace: the served run must not share any state
        # with the replay run for the comparison to mean anything.
        _, catalog2, trace2, spec2, _ = build_case(policy)
        stats, served_log = serve_with_log(spec2, catalog2, trace2, capacity, clients=3)

        assert logs_identical(sim_log, served_log)
        assert json.dumps(sim_log) == json.dumps(served_log)
        assert len(sim_log) == 240

    def test_traffic_counters_identical(self, policy):
        config, catalog, trace, spec, capacity = build_case(policy)
        result, _ = replay_with_log(spec, catalog, trace, capacity)
        _, catalog2, trace2, spec2, _ = build_case(policy)
        stats, _ = serve_with_log(spec2, catalog2, trace2, capacity, clients=2)

        assert stats["total_traffic"] == pytest.approx(result.total_traffic, abs=1e-9)
        assert stats["queries_answered_at_cache"] == result.queries_answered_at_cache
        assert stats["events_processed"] == 240
        for mechanism, cost in stats["traffic_by_mechanism"].items():
            assert cost == pytest.approx(
                result.traffic_by_mechanism.get(mechanism, 0.0), abs=1e-9
            )


class TestClientCountInvariance:
    def test_served_log_independent_of_client_count(self):
        logs = {}
        for clients in (1, 2, 5):
            _, catalog, trace, spec, capacity = build_case("vcover")
            _, served_log = serve_with_log(
                spec, catalog, trace, capacity, clients=clients
            )
            logs[clients] = served_log
        assert logs[1] == logs[2] == logs[5]


class TestWorkloadModels:
    @pytest.mark.parametrize("model", ["flash_crowd", "update_storm"])
    def test_equivalence_holds_on_adversarial_models(self, model):
        _, catalog, trace, spec, capacity = build_case(
            "vcover", workload_model=model
        )
        _, sim_log = replay_with_log(spec, catalog, trace, capacity)
        _, catalog2, trace2, spec2, _ = build_case("vcover", workload_model=model)
        _, served_log = serve_with_log(spec2, catalog2, trace2, capacity, clients=4)
        assert logs_identical(sim_log, served_log)


class TestResultLines:
    def test_every_answer_is_the_generic_encoding_of_its_decision(self):
        # The benchmark's served flash crowd at its smoke shape (150 + 150).
        config = ExperimentConfig(seed=7).scaled(
            workload_model="flash_crowd", query_count=150, update_count=150
        )
        catalog, stream = build_scenario_stream(config)
        spec = default_policy_specs(include=("vcover",))[0]
        decided = []
        server = CacheServer(
            catalog,
            spec,
            catalog.total_size * config.cache_fraction,
            on_decision=lambda event, outcome: decided.append((event, outcome)),
        )
        payloads = [event_to_dict(event) for event in stream.iter_events()]
        requests = b"".join(
            protocol.encode_frame(protocol.request_frame(payload["kind"], payload, seq=seq))
            for seq, payload in enumerate(payloads)
        )

        async def drive():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(requests)
                lines = [await asyncio.wait_for(reader.readline(), 5.0) for _ in payloads]
                writer.close()
                return lines
            finally:
                await server.stop()

        lines = asyncio.run(drive())
        assert len(lines) == len(decided) == 300
        for seq, (line, (event, outcome)) in enumerate(zip(lines, decided)):
            result = (
                {"kind": "update", "update_id": event.update_id, "object_id": event.object_id}
                if outcome is None
                else protocol.outcome_to_dict(outcome)
            )
            assert line == protocol.encode_frame(protocol.result_frame(result, seq)), seq
