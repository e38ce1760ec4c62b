"""Smoke test of the Delta benchmark at ``--tiny`` scale.

Runs the real command in child processes, the way the driver does: all four
workloads, one untraced and one traced pass each, a handful of events.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
DEFINITION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DEFINITION["workloads"]]
END_TO_END = {metric["name"]: metric for metric in DEFINITION["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in DEFINITION["per_layer"]}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def result_lines(completed: subprocess.CompletedProcess) -> List[Dict[str, Any]]:
    return [
        json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")
    ]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    """Every workload at tiny scale, untraced and traced, in one command."""
    out = tmp_path_factory.mktemp("bench") / "results.json"
    completed = run_bench("--tiny", "--traced", "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    return {
        "lines": result_lines(completed),
        "file": json.loads(out.read_text(encoding="utf-8")),
        "path": out,
    }


def test_every_declared_workload_and_metric_is_emitted_and_nothing_else(tiny_run):
    results = tiny_run["file"]["workloads"]
    assert list(results) == WORKLOADS
    declared = {**END_TO_END, **PER_LAYER}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, result["failures"])
        assert set(result["metrics"]) == set(declared), name
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"], (name, metric)
        for metric in END_TO_END:
            assert result["metrics"][metric]["value"] > 0, (name, metric)


def test_every_layer_metric_is_measured_on_some_workload(tiny_run):
    # A declared name no workload ever moves is a typo or a dead counter.
    # serve.errors is the exception: it is 0 whenever the run is correct.
    results = tiny_run["file"]["workloads"].values()
    dead = [
        metric
        for metric in PER_LAYER
        if metric != "serve.errors"
        and not any(result["metrics"][metric]["value"] for result in results)
    ]
    assert dead == []


def test_result_lines_follow_the_driver_contract(tiny_run):
    lines = tiny_run["lines"]
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == RESULT_KEYS
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert line["failed"] == 0
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_trace_flag_selects_the_metric_family():
    untraced = result_lines(run_bench("--tiny", "--workload", "dispatch-80k", "--trace", "0"))
    traced = result_lines(run_bench("--tiny", "--workload", "dispatch-80k", "--trace", "1"))
    assert set(untraced[-1]["metrics"]) == set(END_TO_END)
    assert set(traced[-1]["metrics"]) == set(PER_LAYER)


def test_traced_self_times_sum_to_the_pass_span(tiny_run):
    for name, result in tiny_run["file"]["workloads"].items():
        root_s = result["span_check"]["root_s"]
        assert root_s > 0, name
        assert result["span_check"]["self_sum_s"] == pytest.approx(root_s, rel=0.05), name
        # The same identity from the per-layer table the file carries.
        by_layer = sum(row["self_s"] for row in result["spans"].values())
        assert by_layer == pytest.approx(result["spans"]["pass"]["total_s"], rel=0.05), name


@pytest.mark.parametrize("workload", ["headline-12k", "served-flashcrowd-8k"])
def test_injected_invariant_violation_flips_the_exit_status(workload):
    completed = run_bench("--tiny", "--workload", workload, "--inject-fault")
    assert completed.returncode != 0
    assert "CHECK FAILED" in completed.stderr
    assert result_lines(completed)[-1]["correct"] is False


def test_compare_applies_each_metrics_bound(tiny_run, tmp_path):
    same = run_bench("--compare", str(tiny_run["path"]), str(tiny_run["path"]))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout

    slower = json.loads(tiny_run["path"].read_text(encoding="utf-8"))
    entry = slower["workloads"]["dispatch-80k"]["metrics"]["events_per_s"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 0.5
    changed = tmp_path / "slower.json"
    changed.write_text(json.dumps(slower), encoding="utf-8")
    worse = run_bench("--compare", str(tiny_run["path"]), str(changed))
    assert worse.returncode == 1
    regressed = [line for line in worse.stdout.splitlines() if "regressed" in line]
    assert len(regressed) == 1 and "dispatch-80k" in regressed[0] and "events_per_s" in regressed[0]


def test_refuses_to_run_where_the_program_is_missing(tmp_path):
    # The driver also runs the command in a directory holding only
    # BENCHMARK.json and the benchmark's own files.
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results")
    )
    completed = run_bench("--workload", "headline-12k", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert result_lines(completed) == []
