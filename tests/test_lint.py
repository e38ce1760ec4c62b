"""Tests of ``repro.lint``: rules, suppressions, report, CLI, self-hosting.

Each rule gets positive (flagged), negative (clean) and suppressed
fixtures, built as throwaway mini-projects under ``tmp_path`` so the
path-scoping logic is exercised exactly as in production.  The suite ends
by self-hosting: the real repository must lint clean at HEAD.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Finding,
    LintInputError,
    LintReport,
    all_rules,
    get_rule,
    run_lint,
)
from repro.lint.suppressions import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path: Path, files: dict) -> Path:
    """Materialise a throwaway project with a pyproject root marker."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    for rel, content in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return tmp_path


def lint_rules(project: Path, *paths: str, rule: str | None = None) -> list:
    """Lint ``paths`` inside ``project`` and return the findings."""
    report = run_lint([project / p for p in paths], rule=rule, root=project)
    return list(report.findings)


# ----------------------------------------------------------------------
# DET001: unseeded randomness
# ----------------------------------------------------------------------
class TestDet001:
    def test_module_level_random_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                import random

                def draw():
                    return random.random()
            """,
        })
        findings = lint_rules(project, "src", rule="DET001")
        assert len(findings) == 1
        assert findings[0].rule == "DET001"
        assert "module-level generator" in findings[0].message

    def test_unseeded_random_instance_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                import random

                RNG = random.Random()
            """,
        })
        findings = lint_rules(project, "src", rule="DET001")
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_seeded_random_instance_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                import random

                RNG = random.Random(7)
            """,
        })
        assert lint_rules(project, "src", rule="DET001") == []

    def test_unseeded_numpy_default_rng_flagged_via_alias(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                import numpy as np

                RNG = np.default_rng = None
                BAD = np.random.default_rng()
            """,
        })
        findings = lint_rules(project, "src", rule="DET001")
        assert len(findings) == 1
        assert "default_rng" in findings[0].message

    def test_seeded_numpy_default_rng_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                from numpy.random import default_rng

                RNG = default_rng(seed=3)
            """,
        })
        assert lint_rules(project, "src", rule="DET001") == []

    def test_out_of_scope_script_clean(self, tmp_path):
        # DET001 only applies under repro/ -- loose scripts are exempt.
        project = make_project(tmp_path, {
            "scripts/helper.py": """
                import random

                print(random.random())
            """,
        })
        assert lint_rules(project, "scripts", rule="DET001") == []

    def test_suppressed_with_directive(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/foo.py": """
                import random

                RNG = random.Random()  # repro-lint: disable=DET001
            """,
        })
        report = run_lint([tmp_path / "src"], rule="DET001", root=tmp_path)
        assert report.findings == ()
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# DET002: wall-clock reads
# ----------------------------------------------------------------------
class TestDet002:
    def test_time_time_in_sim_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/clocky.py": """
                import time

                def now():
                    return time.time()
            """,
        })
        findings = lint_rules(project, "src", rule="DET002")
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_uuid4_in_workload_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/workload/ids.py": """
                import uuid

                def fresh():
                    return uuid.uuid4()
            """,
        })
        findings = lint_rules(project, "src", rule="DET002")
        assert len(findings) == 1

    def test_bench_is_allowlisted(self, tmp_path):
        # The Delta benchmark harness times layers from outside the replay
        # code; measuring wall-clock is its entire point.
        project = make_project(tmp_path, {
            "bench/loadgen.py": """
                from time import perf_counter

                def stamp():
                    return perf_counter()
            """,
        })
        assert lint_rules(project, "bench", rule="DET002") == []

    def test_cli_out_of_scope(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/cli_extra.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "src/repro/serve/timer.py": """
                import time

                def stamp():
                    return time.perf_counter()
            """,
        })
        assert lint_rules(project, "src", rule="DET002") == []


# ----------------------------------------------------------------------
# DET003: unordered set iteration
# ----------------------------------------------------------------------
class TestDet003:
    def test_for_over_set_literal_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/workload/emit.py": """
                def emit(sink):
                    pending = {3, 1, 2}
                    for item in pending:
                        sink(item)
            """,
        })
        findings = lint_rules(project, "src", rule="DET003")
        assert len(findings) == 1
        assert "for-loop" in findings[0].message

    def test_sorted_iteration_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/workload/emit.py": """
                def emit(sink):
                    pending = {3, 1, 2}
                    for item in sorted(pending):
                        sink(item)
            """,
        })
        assert lint_rules(project, "src", rule="DET003") == []

    def test_self_attribute_set_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/state.py": """
                class Tracker:
                    def __init__(self):
                        self._live = set()

                    def drain(self):
                        return [x for x in self._live]
            """,
        })
        findings = lint_rules(project, "src", rule="DET003")
        assert len(findings) == 1
        assert "list comprehension" in findings[0].message

    def test_order_insensitive_consumers_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/folds.py": """
                import math

                def fold(values):
                    live = set(values)
                    count = len(live)
                    biggest = max(v for v in live)
                    total = math.fsum(w for w in live)
                    return count, biggest, total
            """,
        })
        assert lint_rules(project, "src", rule="DET003") == []

    def test_sum_over_set_flagged(self, tmp_path):
        # Plain sum is order-sensitive for floats, unlike math.fsum.
        project = make_project(tmp_path, {
            "src/repro/sim/folds.py": """
                def fold(values):
                    live = set(values)
                    return sum(w for w in live)
            """,
        })
        findings = lint_rules(project, "src", rule="DET003")
        assert len(findings) == 1

    def test_unknown_attribute_not_flagged(self, tmp_path):
        # Syntax-only analysis: attributes of unknown type are never sets.
        project = make_project(tmp_path, {
            "src/repro/sim/safe.py": """
                def read(query):
                    return [oid for oid in query.object_ids]
            """,
        })
        assert lint_rules(project, "src", rule="DET003") == []

    def test_out_of_scope_module_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/experiments/report.py": """
                def render():
                    rows = {1, 2}
                    return [r for r in rows]
            """,
        })
        assert lint_rules(project, "src", rule="DET003") == []

    def test_file_level_suppression(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/noisy.py": """
                # repro-lint: disable-file=DET003
                def emit(sink):
                    for item in {3, 1, 2}:
                        sink(item)
            """,
        })
        report = run_lint([tmp_path / "src"], rule="DET003", root=tmp_path)
        assert report.findings == ()
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# PICK001: picklability of submitted callables
# ----------------------------------------------------------------------
class TestPick001:
    def test_lambda_submit_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/tools.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run():
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(lambda: 1).result()
            """,
        })
        findings = lint_rules(project, "src", rule="PICK001")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_nested_function_submit_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/tools.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run():
                    def job():
                        return 1

                    with ProcessPoolExecutor() as pool:
                        return pool.submit(job).result()
            """,
        })
        findings = lint_rules(project, "src", rule="PICK001")
        assert len(findings) == 1
        assert "nested function" in findings[0].message

    def test_module_level_function_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/tools.py": """
                from concurrent.futures import ProcessPoolExecutor

                def job():
                    return 1

                def run():
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(job).result()
            """,
        })
        assert lint_rules(project, "src", rule="PICK001") == []

    def test_policy_spec_lambda_factory_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/specs.py": """
                from repro.sim.runner import PolicySpec

                SPECS = [PolicySpec("lru", factory=lambda link: None)]
            """,
        })
        findings = lint_rules(project, "src", rule="PICK001")
        assert len(findings) == 1
        assert "PolicySpec" in findings[0].message

    def test_applies_inside_tests_too(self, tmp_path):
        project = make_project(tmp_path, {
            "tests/test_tools.py": """
                from concurrent.futures import ProcessPoolExecutor

                def test_submit():
                    with ProcessPoolExecutor() as pool:
                        assert pool.submit(lambda: 1).result() == 1
            """,
        })
        findings = lint_rules(project, "tests", rule="PICK001")
        assert len(findings) == 1


# ----------------------------------------------------------------------
# SLOT001: hot-path __slots__
# ----------------------------------------------------------------------
class TestSlot001:
    def test_unslotted_hot_path_class_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/flow/thing.py": """
                class Arcish:
                    def __init__(self):
                        self.flow = 0.0
            """,
        })
        findings = lint_rules(project, "src", rule="SLOT001")
        assert len(findings) == 1
        assert "Arcish" in findings[0].message

    def test_slots_declaration_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/flow/thing.py": """
                class Arcish:
                    __slots__ = ("flow",)

                    def __init__(self):
                        self.flow = 0.0
            """,
        })
        assert lint_rules(project, "src", rule="SLOT001") == []

    def test_dataclass_slots_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/flow/thing.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True, slots=True)
                class Arcish:
                    flow: float
            """,
        })
        assert lint_rules(project, "src", rule="SLOT001") == []

    def test_exception_class_exempt(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/flow/thing.py": """
                class FlowError(RuntimeError):
                    pass
            """,
        })
        assert lint_rules(project, "src", rule="SLOT001") == []

    def test_cold_module_out_of_scope(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/workload/thing.py": """
                class Knobs:
                    def __init__(self):
                        self.alpha = 1.0
            """,
        })
        assert lint_rules(project, "src", rule="SLOT001") == []


# ----------------------------------------------------------------------
# ASYNC001: blocking calls inside async def in serve code
# ----------------------------------------------------------------------
class TestAsync001:
    def test_blocking_calls_in_coroutine_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/serve/handler.py": """
                import socket
                import time
                from time import sleep


                async def serve_one():
                    time.sleep(0.1)
                    sleep(0.1)
                    sock = socket.create_connection(("host", 80))
                    data = open("state.json").read()
                    return sock, data
            """,
        })
        findings = lint_rules(project, "src", rule="ASYNC001")
        assert len(findings) == 4
        messages = "\n".join(finding.message for finding in findings)
        assert "time.sleep" in messages
        assert "socket.create_connection" in messages
        assert "open" in messages
        assert all("serve_one" in finding.message for finding in findings)

    def test_requests_and_subprocess_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/serve/fetch.py": """
                import requests
                import subprocess


                async def fetch(url):
                    subprocess.run(["true"])
                    return requests.get(url)
            """,
        })
        findings = lint_rules(project, "src", rule="ASYNC001")
        assert len(findings) == 2
        assert any("asyncio.create_subprocess" in f.message for f in findings)

    def test_sync_function_not_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/serve/setup.py": """
                import time


                def warm_up():
                    time.sleep(0.1)
                    return open("config.json").read()
            """,
        })
        assert lint_rules(project, "src", rule="ASYNC001") == []

    def test_async_code_outside_serve_not_flagged(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/sim/background.py": """
                import time


                async def tick():
                    time.sleep(1)
            """,
        })
        assert lint_rules(project, "src", rule="ASYNC001") == []

    def test_nested_sync_def_inside_coroutine_not_flagged(self, tmp_path):
        # The nested def's body runs only when called -- typically handed to
        # asyncio.to_thread, which is exactly the recommended fix.
        project = make_project(tmp_path, {
            "src/repro/serve/offload.py": """
                import asyncio
                import time


                async def offload():
                    def blocking():
                        time.sleep(1)
                    await asyncio.to_thread(blocking)
            """,
        })
        assert lint_rules(project, "src", rule="ASYNC001") == []

    def test_nonblocking_async_code_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/serve/clean.py": """
                import asyncio


                async def pause():
                    await asyncio.sleep(0.1)
                    reader, writer = await asyncio.open_connection("host", 80)
                    return reader, writer
            """,
        })
        assert lint_rules(project, "src", rule="ASYNC001") == []

    def test_suppression_directives_respected(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/serve/suppressed.py": """
                import time


                async def pause():
                    time.sleep(0.1)  # repro-lint: disable=ASYNC001
            """,
            "src/repro/serve/filewide.py": """
                # repro-lint: disable-file=ASYNC001
                import time


                async def pause():
                    time.sleep(0.1)
            """,
        })
        assert lint_rules(project, "src", rule="ASYNC001") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_directive_multiple_rules(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=DET001,SLOT001\n")
        assert index.is_suppressed("DET001", 1)
        assert index.is_suppressed("SLOT001", 1)
        assert not index.is_suppressed("DET002", 1)
        assert not index.is_suppressed("DET001", 2)

    def test_file_directive(self):
        index = scan_suppressions("# repro-lint: disable-file=DET003\nx = 1\n")
        assert index.is_suppressed("DET003", 99)

    def test_all_wildcard(self):
        index = scan_suppressions("x = 1  # repro-lint: disable=all\n")
        assert index.is_suppressed("DET001", 1)
        assert index.is_suppressed("ASYNC001", 1)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def _report(self, tmp_path) -> LintReport:
        make_project(tmp_path, {
            "src/repro/foo.py": "import random\nX = random.random()\n",
        })
        return run_lint([tmp_path / "src"], root=tmp_path)

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        clone = LintReport.from_dict(json.loads(report.format_json()))
        assert clone == report

    def test_counts_by_rule(self, tmp_path):
        report = self._report(tmp_path)
        assert report.counts_by_rule() == {"DET001": 1}
        assert not report.ok

    def test_findings_are_sorted(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/b.py": "import random\nX = random.random()\n",
            "src/repro/a.py": "import random\nY = random.random()\n",
        })
        report = run_lint([tmp_path / "src"], root=tmp_path)
        assert [f.path for f in report.findings] == [
            "src/repro/a.py", "src/repro/b.py",
        ]

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        make_project(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        report = run_lint([tmp_path / "src"], root=tmp_path)
        assert [f.rule for f in report.findings] == ["PARSE001"]
        assert not report.ok

    def test_unknown_rule_raises_input_error(self, tmp_path):
        make_project(tmp_path, {"src/repro/foo.py": "X = 1\n"})
        with pytest.raises(LintInputError):
            run_lint([tmp_path / "src"], rule="NOPE999", root=tmp_path)

    def test_missing_path_raises_input_error(self, tmp_path):
        with pytest.raises(LintInputError):
            run_lint([tmp_path / "does-not-exist"], root=tmp_path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        make_project(tmp_path, {"src/repro/foo.py": "X = 1\n"})
        assert main(["lint", str(tmp_path / "src")]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        make_project(tmp_path, {
            "src/repro/foo.py": "import random\nX = random.random()\n",
        })
        assert main(["lint", str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        make_project(tmp_path, {"src/repro/foo.py": "X = 1\n"})
        assert main(["lint", str(tmp_path / "src"), "--rule", "NOPE999"]) == 2

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    def test_json_output_parses(self, tmp_path, capsys):
        make_project(tmp_path, {
            "src/repro/foo.py": "import random\nX = random.random()\n",
        })
        assert main(["lint", str(tmp_path / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/v1"
        assert payload["summary"]["by_rule"] == {"DET001": 1}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_expected_rules_registered(self):
        ids = {rule.id for rule in all_rules()}
        assert ids == {"DET001", "DET002", "DET003", "PICK001", "SLOT001", "ASYNC001"}

    def test_lookup_is_case_insensitive(self):
        assert get_rule("det001").id == "DET001"

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(LintInputError):
            get_rule("XYZ000")


# ----------------------------------------------------------------------
# Self-hosting: the repository must lint clean at HEAD
# ----------------------------------------------------------------------
class TestSelfHost:
    def test_repo_lints_clean(self):
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert report.ok, "\n" + report.format_text()

    def test_repo_lint_is_deterministic(self):
        first = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        second = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert first.to_dict() == second.to_dict()
