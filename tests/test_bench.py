"""Tests for the repro.bench subsystem: runner, schema, comparison, CLI."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_ID,
    SCHEMA_V1,
    SUITES,
    BenchCase,
    BenchSchemaError,
    compare_payloads,
    get_suite,
    run_suite,
    validate_payload,
)
from repro.bench.runner import load_payload, write_payload
from repro.cli import main

#: A deliberately tiny case so the whole module stays fast.
TINY_CASES = (
    BenchCase(
        name="tiny",
        description="tiny scenario for tests",
        overrides=(("object_count", 12), ("query_count", 60), ("update_count", 60)),
        policies=("nocache", "vcover"),
    ),
    BenchCase(
        name="tiny-multisite",
        description="tiny two-site scenario for tests",
        overrides=(("object_count", 12), ("query_count", 40), ("update_count", 40)),
        policies=("vcover",),
        sites=2,
    ),
)


@pytest.fixture(scope="module")
def payload():
    return run_suite(TINY_CASES)


def downgraded_to_v1(payload):
    """A deep copy of ``payload`` re-declared as v1.

    Genuine v1 payloads predate the per-case ``phases`` block, so the
    downgrade strips it -- leaving it in place would (correctly) trip the
    v2-only check before whatever a test actually targets.
    """
    legacy = copy.deepcopy(payload)
    legacy["schema"] = SCHEMA_V1
    for case in legacy["cases"]:
        case.pop("phases", None)
    return legacy


class TestRunSuite:
    def test_payload_is_schema_valid(self, payload):
        validate_payload(payload)  # raises on failure

    def test_per_policy_breakdown(self, payload):
        by_name = {case["name"]: case for case in payload["cases"]}
        assert set(by_name) == {"tiny", "tiny-multisite"}
        tiny = by_name["tiny"]
        assert [row["policy"] for row in tiny["policies"]] == ["nocache", "vcover"]
        for row in tiny["policies"]:
            assert row["wall_clock_s"] > 0
            assert row["events"] == 120
            assert row["events_per_s"] > 0
            assert row["total_traffic_mb"] > 0

    def test_totals_aggregate_cases(self, payload):
        totals = payload["totals"]
        assert totals["policy_runs"] == 3
        assert totals["events"] == 120 * 2 + 80
        assert totals["wall_clock_s"] == pytest.approx(
            sum(case["wall_clock_s"] for case in payload["cases"])
        )

    def test_environment_stamp(self, payload):
        assert payload["schema"] == SCHEMA_ID
        assert payload["peak_rss_mb"] > 0
        assert payload["jobs"] == 1
        assert isinstance(payload["python"], str)

    def test_lint_clean_recorded(self, payload):
        # In this source checkout the linter runs for real, so the stamp
        # must be a definite verdict (and a clean tree at HEAD says True).
        assert payload["lint_clean"] is True

    def test_jobs_fan_out_produces_same_shape(self):
        parallel = run_suite(TINY_CASES, jobs=2)
        validate_payload(parallel)
        assert [case["name"] for case in parallel["cases"]] == [
            case.name for case in TINY_CASES
        ]

    def test_unknown_suite_name(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            run_suite("warp-speed")

    def test_named_suites_are_wellformed(self):
        for name in SUITES:
            cases = get_suite(name)
            assert cases, name
            assert len({case.name for case in cases}) == len(cases)

    def test_stress_suite_streams_scenario_models(self):
        cases = get_suite("stress")
        assert all(case.streaming for case in cases)
        models = [dict(case.overrides)["workload_model"] for case in cases]
        assert set(models) == {"flash_crowd", "cache_adversary"}
        # The RSS baseline case must run before the 5M-event case: per-case
        # peak RSS is a process-wide high-water mark.
        names = [case.name for case in cases]
        assert names.index("flash-crowd-500k") < names.index("flash-crowd-5m")

    def test_streaming_case_matches_materialised_results(self):
        shared = dict(
            description="streaming equivalence probe",
            overrides=(
                ("workload_model", "flash_crowd"),
                ("object_count", 12),
                ("query_count", 60),
                ("update_count", 60),
            ),
            policies=("nocache", "vcover"),
        )
        payload = run_suite(
            (
                BenchCase(name="probe-streamed", streaming=True, **shared),
                BenchCase(name="probe-materialised", **shared),
            )
        )
        validate_payload(payload)
        streamed, materialised = payload["cases"]
        assert streamed["streaming"] is True
        assert materialised["streaming"] is False
        for left, right in zip(streamed["policies"], materialised["policies"], strict=True):
            assert left["policy"] == right["policy"]
            assert left["total_traffic_mb"] == right["total_traffic_mb"]
            assert (
                left["queries_answered_at_cache"] == right["queries_answered_at_cache"]
            )


class TestPayloadRoundTrip:
    def test_write_then_load(self, payload, tmp_path):
        path = write_payload(payload, tmp_path / "bench.json")
        loaded = load_payload(path)
        assert loaded == json.loads(json.dumps(payload))

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema": SCHEMA_ID}), encoding="utf-8")
        with pytest.raises(BenchSchemaError):
            load_payload(path)


class TestSchemaValidation:
    def test_rejects_wrong_schema_id(self, payload):
        broken = copy.deepcopy(payload)
        broken["schema"] = "repro.bench/v0"
        with pytest.raises(BenchSchemaError, match="payload.schema"):
            validate_payload(broken)

    def test_rejects_missing_case_field(self, payload):
        broken = copy.deepcopy(payload)
        del broken["cases"][0]["wall_clock_s"]
        with pytest.raises(BenchSchemaError, match="wall_clock_s"):
            validate_payload(broken)

    def test_rejects_wrong_type(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"][0]["policies"][0]["events"] = "many"
        with pytest.raises(BenchSchemaError, match="events"):
            validate_payload(broken)

    def test_lint_clean_is_optional_but_typed(self, payload):
        # Payloads recorded before the linter existed have no lint_clean;
        # they must keep validating (the committed baseline is one).
        legacy = copy.deepcopy(payload)
        legacy.pop("lint_clean", None)
        validate_payload(legacy)
        broken = copy.deepcopy(payload)
        broken["lint_clean"] = "yes"
        with pytest.raises(BenchSchemaError, match="lint_clean"):
            validate_payload(broken)

    def test_rejects_duplicate_case_names(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"].append(copy.deepcopy(broken["cases"][0]))
        with pytest.raises(BenchSchemaError, match="duplicate"):
            validate_payload(broken)

    def test_rejects_empty_cases(self, payload):
        broken = copy.deepcopy(payload)
        broken["cases"] = []
        with pytest.raises(BenchSchemaError, match="must not be empty"):
            validate_payload(broken)


class TestSchemaVersions:
    """v2 is a strict superset of v1: old payloads must keep validating."""

    def test_v1_payload_still_validates(self, payload):
        legacy = downgraded_to_v1(payload)
        validate_payload(legacy)

    def test_committed_baseline_validates_as_current_schema(self):
        # The committed baseline carries v2-only blocks (per-policy regret
        # for the adaptive case), so it must declare the current schema.
        root = Path(__file__).parent.parent
        baseline = load_payload(
            root / "benchmarks" / "baselines" / "BENCH_baseline.json"
        )
        assert baseline["schema"] == SCHEMA_ID
        validate_payload(baseline)

    def test_v2_accepts_optional_latency_block(self, payload):
        current = copy.deepcopy(payload)
        current["cases"][0]["policies"][0]["latency"] = {
            "count": 100,
            "mean": 0.002,
            "p50": 0.001,
            "p99": 0.01,
            "p999": 0.02,
            "max": 0.05,
            "predicted_p50": 0.004,  # extra keys tolerated
        }
        validate_payload(current)

    def test_v1_payload_with_latency_rejected(self, payload):
        legacy = downgraded_to_v1(payload)
        legacy["cases"][0]["policies"][0]["latency"] = {
            "count": 1, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0,
        }
        with pytest.raises(BenchSchemaError, match="latency fields require"):
            validate_payload(legacy)

    def test_malformed_latency_block_rejected(self, payload):
        current = copy.deepcopy(payload)
        current["cases"][0]["policies"][0]["latency"] = {"p50": 0.001}
        with pytest.raises(BenchSchemaError, match="latency"):
            validate_payload(current)

    def test_latency_count_must_be_int(self, payload):
        current = copy.deepcopy(payload)
        current["cases"][0]["policies"][0]["latency"] = {
            "count": True, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0,
        }
        with pytest.raises(BenchSchemaError, match="count"):
            validate_payload(current)

    def test_phases_block_present_and_valid(self, payload):
        from repro.bench.schema import PHASE_NAMES

        for case in payload["cases"]:
            phases = case["phases"]
            assert set(phases) == set(PHASE_NAMES)
            assert all(value >= 0 for value in phases.values())
            # The breakdown partitions the case wall-clock (trace_compile is
            # extra, outside the timed replay).
            replay = sum(value for key, value in phases.items() if key != "trace_compile")
            assert replay == pytest.approx(case["wall_clock_s"], abs=1e-6)

    def test_v1_payload_with_phases_rejected(self, payload):
        legacy = copy.deepcopy(payload)
        legacy["schema"] = SCHEMA_V1
        with pytest.raises(BenchSchemaError, match="phase breakdowns require"):
            validate_payload(legacy)

    def test_unknown_phase_name_rejected(self, payload):
        current = copy.deepcopy(payload)
        current["cases"][0]["phases"]["gc_pause"] = 0.001
        with pytest.raises(BenchSchemaError, match="unknown phase"):
            validate_payload(current)

    def test_missing_phase_name_rejected(self, payload):
        current = copy.deepcopy(payload)
        del current["cases"][0]["phases"]["cover_solve"]
        with pytest.raises(BenchSchemaError, match="missing required phase"):
            validate_payload(current)

    def test_negative_phase_time_rejected(self, payload):
        current = copy.deepcopy(payload)
        current["cases"][0]["phases"]["metrics"] = -0.5
        with pytest.raises(BenchSchemaError, match="negative phase time"):
            validate_payload(current)

    def test_payload_without_phases_still_validates(self, payload):
        # The committed v2 baseline may predate the phase breakdown; the
        # block is optional in v2.
        current = copy.deepcopy(payload)
        for case in current["cases"]:
            case.pop("phases", None)
        validate_payload(current)

    def test_v2_payload_compares_against_v1_baseline(self, payload):
        # Old checkouts may still carry a v1 baseline; mixed schema
        # versions must compare cleanly.
        baseline = downgraded_to_v1(payload)
        report = compare_payloads(payload, baseline, tolerance=0.15)
        assert report.ok


def slowed(payload, factor):
    slower = copy.deepcopy(payload)
    for case in slower["cases"]:
        for row in case["policies"]:
            row["wall_clock_s"] = row["wall_clock_s"] * factor
    return slower


class TestCompare:
    def test_identical_payloads_pass(self, payload):
        report = compare_payloads(payload, payload, tolerance=0.15)
        assert report.ok
        assert all(row.ratio == pytest.approx(1.0) for row in report.rows)

    def test_slowdown_beyond_tolerance_regresses(self, payload):
        report = compare_payloads(slowed(payload, 2.0), payload, tolerance=0.15)
        assert not report.ok
        assert {(row.case, row.policy) for row in report.regressions} == {
            ("tiny", "nocache"),
            ("tiny", "vcover"),
            ("tiny-multisite", "vcover"),
        }

    def test_slowdown_within_tolerance_passes(self, payload):
        report = compare_payloads(slowed(payload, 1.1), payload, tolerance=0.15)
        assert report.ok

    def test_speedup_never_regresses(self, payload):
        report = compare_payloads(slowed(payload, 0.5), payload, tolerance=0.0)
        assert report.ok

    def test_new_coverage_is_reported_not_failed(self, payload):
        baseline = copy.deepcopy(payload)
        baseline["cases"] = baseline["cases"][:1]
        report = compare_payloads(payload, baseline, tolerance=0.15)
        assert report.ok
        assert report.only_in_current == [("tiny-multisite", "vcover")]

    def test_shrunk_coverage_fails_the_gate(self, payload):
        # A baseline row the current payload no longer measures means a case
        # or policy was renamed/dropped without refreshing the baseline; the
        # gate must fail rather than silently stop measuring it.
        current = copy.deepcopy(payload)
        current["cases"] = current["cases"][:1]
        report = compare_payloads(current, payload, tolerance=0.15)
        assert not report.ok
        assert report.only_in_baseline == [("tiny-multisite", "vcover")]
        assert "coverage shrank" in report.format()

    def test_negative_tolerance_rejected(self, payload):
        with pytest.raises(ValueError, match="tolerance"):
            compare_payloads(payload, payload, tolerance=-0.1)

    def test_zero_overlap_is_an_error_not_a_pass(self, payload):
        # A stale baseline whose case names no longer match the suite must
        # fail loudly (CLI exit 2), not compare zero rows and exit 0.
        renamed = copy.deepcopy(payload)
        for case in renamed["cases"]:
            case["name"] = case["name"] + "-v2"
        with pytest.raises(BenchSchemaError, match="no \\(case, policy\\) rows"):
            compare_payloads(renamed, payload, tolerance=0.15)

    def test_format_mentions_verdicts(self, payload):
        report = compare_payloads(slowed(payload, 2.0), payload, tolerance=0.15)
        text = report.format()
        assert "REGRESSED" in text
        assert "regression(s) beyond +15% tolerance" in text


class TestBenchCli:
    @pytest.fixture(scope="class")
    def payload_file(self, payload, tmp_path_factory):
        return str(write_payload(payload, tmp_path_factory.mktemp("bench") / "current.json"))

    def test_list_exits_zero(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "quick:" in out and "full:" in out

    def test_input_without_compare(self, payload_file, capsys):
        assert main(["bench", "--input", payload_file]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_compare_identical_exits_zero(self, payload_file):
        assert main(["bench", "--input", payload_file, "--compare", payload_file]) == 0

    def test_compare_regression_exits_three(self, payload, payload_file, tmp_path):
        fast = write_payload(slowed(payload, 0.25), tmp_path / "fast-baseline.json")
        assert (
            main(["bench", "--input", payload_file, "--compare", str(fast)]) == 3
        )

    def test_missing_input_exits_two(self, tmp_path):
        assert main(["bench", "--input", str(tmp_path / "absent.json")]) == 2

    def test_invalid_baseline_exits_two(self, payload_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["bench", "--input", payload_file, "--compare", str(bad)]) == 2

    def test_out_writes_payload(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        tiny = TINY_CASES[:1]
        # Drive run_suite through the API rather than the CLI (the CLI only
        # exposes the named suites); then confirm the CLI reads it back.
        write_payload(run_suite(tiny), target)
        assert main(["bench", "--input", str(target)]) == 0
        assert "tiny" in capsys.readouterr().out


def test_committed_ci_baseline_matches_quick_suite():
    # The CI bench gate compares (case, policy) rows by name; if the suite
    # and the committed baseline drift apart the comparison degrades, so the
    # full row set is pinned here and any suite change forces a baseline
    # refresh (see docs/benchmarks.md).
    root = Path(__file__).parent.parent
    baseline = load_payload(root / "benchmarks" / "baselines" / "BENCH_baseline.json")
    assert baseline["suite"] == "quick"
    expected_rows = {
        (case.name, policy) for case in get_suite("quick") for policy in case.policies
    }
    baseline_rows = {
        (case["name"], row["policy"])
        for case in baseline["cases"]
        for row in case["policies"]
    }
    assert baseline_rows == expected_rows
