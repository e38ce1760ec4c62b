"""Tests of the load harness and the streaming latency histogram."""

from __future__ import annotations

import copy
import math

import pytest

from repro.experiments.config import ExperimentConfig
from repro.core.latency import LatencyModel
from repro.serve.harness import (
    SERVABLE_POLICIES,
    format_load_report,
    loadgen_payload,
    run_loadgen,
)
from repro.serve.payload import SCHEMA_ID, PayloadSchemaError, validate_payload
from repro.sim.metrics import StreamingHistogram


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(object_count=16, query_count=80, update_count=80)
    base.update(overrides)
    return ExperimentConfig().scaled(**base)


class TestStreamingHistogram:
    def test_empty_histogram(self):
        histogram = StreamingHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(0.5) == 0.0

    def test_count_mean_min_max(self):
        histogram = StreamingHistogram()
        for value in (0.001, 0.002, 0.003, 0.010):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(0.004)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.010)

    def test_percentiles_are_bucket_tight(self):
        # With 32 buckets per decade the upper edge overshoots the true
        # quantile by at most a factor of 10**(1/32) ~ 7.5%.
        histogram = StreamingHistogram()
        values = [0.0001 * (1 + i / 100) for i in range(1000)]
        for value in values:
            histogram.record(value)
        exact = sorted(values)[int(math.ceil(0.99 * len(values))) - 1]
        measured = histogram.percentile(0.99)
        assert exact <= measured <= exact * 10 ** (1 / 32)

    def test_percentile_never_exceeds_observed_max(self):
        histogram = StreamingHistogram()
        histogram.record(0.00042)
        for q in (0.5, 0.99, 0.999, 1.0):
            assert histogram.percentile(q) == pytest.approx(0.00042)

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        histogram = StreamingHistogram(lower=1e-3, upper=1.0)
        histogram.record(1e-9)
        histogram.record(50.0)
        assert histogram.count == 2
        assert histogram.percentile(0.25) <= 1e-3 * 10 ** (1 / 32)
        assert histogram.percentile(1.0) == pytest.approx(50.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram().record(-0.1)

    def test_merge_matches_single_histogram(self):
        one, two, merged_ref = (
            StreamingHistogram(),
            StreamingHistogram(),
            StreamingHistogram(),
        )
        for i in range(200):
            value = 0.0001 * (i + 1)
            (one if i % 2 else two).record(value)
            merged_ref.record(value)
        one.merge(two)
        assert one.count == merged_ref.count
        assert one.mean == pytest.approx(merged_ref.mean)
        for q in (0.5, 0.9, 0.99, 0.999):
            assert one.percentile(q) == merged_ref.percentile(q)

    def test_merge_rejects_different_layouts(self):
        with pytest.raises(ValueError):
            StreamingHistogram().merge(StreamingHistogram(buckets_per_decade=8))

    def test_dict_round_trip(self):
        histogram = StreamingHistogram()
        for value in (0.0001, 0.004, 0.2, 3.0):
            histogram.record(value)
        rebuilt = StreamingHistogram.from_dict(histogram.to_dict())
        assert rebuilt.count == histogram.count
        assert rebuilt.mean == pytest.approx(histogram.mean)
        for q in (0.5, 0.99):
            assert rebuilt.percentile(q) == histogram.percentile(q)

    def test_summary_keys(self):
        histogram = StreamingHistogram()
        histogram.record(0.001)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p99", "p999"}

    def test_invalid_quantile_rejected(self):
        histogram = StreamingHistogram()
        histogram.record(0.001)
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                histogram.percentile(q)


class TestRunLoadgen:
    def test_in_process_loadgen_produces_valid_v2_payload(self):
        report, payload = run_loadgen(
            config=tiny_config(), policy="vcover", clients=3
        )
        validate_payload(payload)
        assert payload["schema"] == SCHEMA_ID
        assert report.events == 160
        assert report.histogram.count == 160
        latency = payload["cases"][0]["policies"][0]["latency"]
        assert latency["count"] == 160
        assert 0 < latency["p50"] <= latency["p99"] <= latency["p999"] <= latency["max"]
        assert payload["cases"][0]["policies"][0]["policy"] == "vcover"

    def test_event_log_deterministic_across_client_counts(self):
        # The lifecycle guarantee: same scenario seed => byte-identical event
        # logs no matter how many clients the load is fanned out over.
        logs = {}
        for clients in (1, 2, 4):
            report, _ = run_loadgen(
                config=tiny_config(), policy="vcover", clients=clients
            )
            logs[clients] = report.event_log
        assert logs[1] == logs[2] == logs[4]
        assert len(logs[1]) == 160
        assert [row[0] for row in logs[1]] == list(range(160))

    def test_latency_model_predictions_ride_along(self):
        report, payload = run_loadgen(
            config=tiny_config(),
            policy="nocache",
            clients=2,
            latency_model=LatencyModel(),
        )
        assert report.predicted is not None
        # Predictions cover queries only; measurements cover every event.
        assert report.predicted.count == 80
        latency = payload["cases"][0]["policies"][0]["latency"]
        assert latency["predicted_p50"] > 0
        assert latency["predicted_p99"] >= latency["predicted_p50"]
        rendered = format_load_report(report)
        assert "predicted" in rendered
        assert "p999" in rendered

    def test_unservable_policy_rejected(self):
        assert "soptimal" not in SERVABLE_POLICIES
        with pytest.raises(ValueError, match="cannot be served"):
            run_loadgen(config=tiny_config(), policy="soptimal")

    def test_payload_round_trips_through_loadgen_payload(self):
        report, payload = run_loadgen(config=tiny_config(), policy="replica", clients=2)
        again = loadgen_payload(report, suite="loadgen")
        assert again["cases"][0]["name"] == payload["cases"][0]["name"]
        assert (
            again["cases"][0]["policies"][0]["latency"]["count"]
            == payload["cases"][0]["policies"][0]["latency"]["count"]
        )


@pytest.fixture(scope="module")
def payload():
    """A real loadgen payload: one served vcover run."""
    _, payload = run_loadgen(config=tiny_config(), policy="vcover", clients=2)
    return payload


class TestPayloadSchema:
    def test_rejects_wrong_schema_id(self, payload):
        broken = copy.deepcopy(payload)
        broken["schema"] = "repro.lint/v1"  # another payload's id
        with pytest.raises(PayloadSchemaError, match="payload.schema"):
            validate_payload(broken)

    def test_rejects_missing_case_field(self, payload):
        broken = copy.deepcopy(payload)
        del broken["cases"][0]["wall_clock_s"]
        with pytest.raises(PayloadSchemaError, match="wall_clock_s"):
            validate_payload(broken)

    def test_rejects_wrong_type(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"][0]["policies"][0]["events"] = "many"
        with pytest.raises(PayloadSchemaError, match="events"):
            validate_payload(broken)
        # bool is an int subclass, but never a count.
        broken["cases"][0]["policies"][0]["events"] = True
        with pytest.raises(PayloadSchemaError, match="events"):
            validate_payload(broken)

    def test_rejects_duplicate_case_names(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"].append(copy.deepcopy(broken["cases"][0]))
        with pytest.raises(PayloadSchemaError, match="duplicate"):
            validate_payload(broken)

    def test_rejects_empty_cases(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"] = []
        with pytest.raises(PayloadSchemaError, match="must not be empty"):
            validate_payload(broken)

    def test_malformed_latency_block_rejected(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"][0]["policies"][0]["latency"] = {"p50": 0.001}
        with pytest.raises(PayloadSchemaError, match="latency"):
            validate_payload(broken)

    def test_latency_count_must_be_int(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"][0]["policies"][0]["latency"]["count"] = True
        with pytest.raises(PayloadSchemaError, match="count"):
            validate_payload(broken)
