"""Execute benchmark suites and emit the machine-readable result payload.

Each case builds its scenario once (the build is timed separately -- trace
generation is part of the system but not of the replay hot path), then times
every policy run ``repeats`` times, recording the best wall-clock and the
derived events/sec.  Peak RSS is read from :func:`resource.getrusage` -- a
process-wide high-water mark, so a per-case value is really "the largest
footprint any case run in this process has reached so far": monotone across
cases in a serial run, and with ``jobs > 1`` spanning every case a pooled
worker has executed.  Use the payload's top-level ``peak_rss_mb`` (the max
across parent and workers) as the authoritative memory figure.

The payload layout is pinned by :mod:`repro.bench.schema`; CI uploads it as
an artifact and :mod:`repro.bench.compare` diffs it against a committed
baseline.
"""

from __future__ import annotations

import json
import platform
import resource
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import __version__
from repro.bench.schema import PHASE_NAMES, SCHEMA_ID, validate_payload
from repro.bench.suites import BenchCase, get_suite
from repro.experiments.config import build_scenario, build_scenario_stream
from repro.perf import (
    PHASE_COVER_SOLVE,
    PHASE_METRICS,
    reset_phase_times,
    snapshot_phase_times,
)
from repro.sim.multicache import run_topology
from repro.sim.runner import run_policy
from repro.topology.spec import TopologySpec

def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def current_git_sha() -> Optional[str]:
    """The checked-out commit, or None outside a git checkout.

    Honours ``GITHUB_SHA`` first so CI results are attributable even from a
    shallow or detached checkout.
    """
    import os

    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def lint_clean() -> Optional[bool]:
    """Whether the working tree passes ``repro lint src tests``, or None.

    Recorded into bench payloads so a perf number can never be mistaken
    for a number measured on a tree that violates the determinism or
    hot-path contracts (an unslotted record class, say, would directly
    skew memory and timing).  None outside a source checkout.
    """
    try:
        from repro.lint import find_project_root, run_lint

        root = find_project_root(Path(__file__).resolve())
        paths = [path for path in (root / "src", root / "tests") if path.is_dir()]
        if not paths:
            return None
        return run_lint(paths, root=root).ok
    except Exception:  # pragma: no cover - best-effort provenance only
        return None


def _run_case(case: BenchCase) -> Dict[str, Any]:
    """Time one case; runs inside a worker process when ``jobs > 1``."""
    config = case.config()
    build_start = time.perf_counter()
    if case.streaming:
        # Streaming cases never materialise the trace: the "build" is only
        # the (cheap) source construction; event generation happens inside
        # the timed replay, which is exactly what the streaming pipeline's
        # events/sec should measure.
        catalog, trace = build_scenario_stream(config)
    else:
        scenario = build_scenario(config)
        catalog, trace = scenario.catalog, scenario.trace
    build_seconds = time.perf_counter() - build_start
    compile_start = time.perf_counter()
    if not case.streaming:
        # The replay loop dispatches off the tagged view; build it outside
        # the timed region so every policy (and the baseline it is compared
        # to) measures the same thing.  The columnar compilation the batched
        # executors dispatch off is part of the same precompute.
        trace.tagged_events()
        from repro.workload.columns import COLUMNS_AVAILABLE

        if COLUMNS_AVAILABLE:
            trace.columns()
    compile_seconds = time.perf_counter() - compile_start

    engine = config.engine_config()
    fraction = (
        config.cache_fraction if case.cache_fraction is None else case.cache_fraction
    )
    capacity = catalog.total_size * fraction
    specs = config.policy_specs(include=case.policies)

    events = len(trace)
    policy_rows: List[Dict[str, Any]] = []
    # Replay phase totals across the case's policy rows (best repeat each),
    # read from the repro.perf accumulators bracketing every timed run.
    case_cover_solve = 0.0
    case_metrics = 0.0
    for spec in specs:
        best: Optional[float] = None
        best_phases: Dict[str, float] = {}
        run = None
        for _ in range(max(1, case.repeats)):
            reset_phase_times()
            start = time.perf_counter()
            if case.sites > 1:
                topology = TopologySpec.uniform(spec, case.sites, cache_fraction=fraction)
                run = run_topology(topology, catalog, trace, engine).aggregate
            else:
                run = run_policy(spec, catalog, trace, capacity, engine)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                best_phases = snapshot_phase_times()
        assert run is not None and best is not None
        case_cover_solve += best_phases.get(PHASE_COVER_SOLVE, 0.0)
        case_metrics += best_phases.get(PHASE_METRICS, 0.0)
        row: Dict[str, Any] = {
            "policy": spec.name,
            "wall_clock_s": best,
            "events": events,
            "events_per_s": events / best if best > 0 else 0.0,
            "total_traffic_mb": run.total_traffic,
            "queries_answered_at_cache": run.queries_answered_at_cache,
        }
        if run.regret is not None:
            # Policies that track online-vs-offline regret (the adaptive
            # meta-policy) surface the summary in their bench rows.
            row["regret"] = dict(run.regret)
        policy_rows.append(row)

    total_wall = sum(row["wall_clock_s"] for row in policy_rows)
    # The breakdown localises regressions: trace_compile is the one-time
    # build + precompute, cover_solve and metrics come from the perf
    # accumulators, and batch_dispatch is the rest of the replay wall-clock
    # (event dispatch itself, batched or scalar).
    phases = {
        "trace_compile": build_seconds + compile_seconds,
        "batch_dispatch": max(0.0, total_wall - case_cover_solve - case_metrics),
        "cover_solve": case_cover_solve,
        "metrics": case_metrics,
    }
    return {
        "name": case.name,
        "description": case.description,
        "events": events,
        "sites": case.sites,
        "repeats": max(1, case.repeats),
        "streaming": case.streaming,
        "build_wall_clock_s": build_seconds,
        "wall_clock_s": total_wall,
        "events_per_s": (events * len(policy_rows)) / total_wall if total_wall > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "phases": phases,
        "policies": policy_rows,
    }


def run_suite(
    suite: Union[str, Sequence[BenchCase]] = "quick",
    jobs: int = 1,
    progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run a suite and return the schema-valid result payload.

    Parameters
    ----------
    suite:
        A suite name (``quick``/``full``) or an explicit case sequence.
    jobs:
        Worker processes; each case runs whole in one worker.  ``jobs > 1``
        shortens the wall-clock of the *suite* but adds scheduler contention
        to individual timings -- CI baselines should use ``jobs=1``.
    progress:
        Optional callback ``(done, total, case_result)``.
    """
    cases = get_suite(suite) if isinstance(suite, str) else tuple(suite)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    case_results: List[Dict[str, Any]] = []
    if jobs == 1 or len(cases) <= 1:
        for done, case in enumerate(cases, start=1):
            result = _run_case(case)
            case_results.append(result)
            if progress is not None:
                progress(done, len(cases), result)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cases))) as pool:
            futures = [pool.submit(_run_case, case) for case in cases]
            for done, future in enumerate(futures, start=1):
                result = future.result()
                case_results.append(result)
                if progress is not None:
                    progress(done, len(cases), result)

    total_wall = sum(case["wall_clock_s"] for case in case_results)
    total_runs = sum(len(case["policies"]) for case in case_results)
    total_events = sum(
        case["events"] * len(case["policies"]) for case in case_results
    )
    payload: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "suite": suite if isinstance(suite, str) else "custom",
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "lint_clean": lint_clean(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": jobs,
        "peak_rss_mb": max(
            [peak_rss_mb()] + [case["peak_rss_mb"] for case in case_results]
        ),
        "totals": {
            "wall_clock_s": total_wall,
            "policy_runs": total_runs,
            "events": total_events,
            "events_per_s": total_events / total_wall if total_wall > 0 else 0.0,
        },
        "cases": case_results,
    }
    validate_payload(payload)
    return payload


def write_payload(payload: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a payload as pretty JSON (stable key order) and return the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_payload(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and schema-check a payload file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_payload(payload)
    return payload


def format_payload(payload: Dict[str, Any]) -> str:
    """Human-readable summary table of one payload."""
    lines = [
        f"suite {payload['suite']}  "
        f"(git {str(payload.get('git_sha'))[:12]}, python {payload['python']}, "
        f"jobs {payload['jobs']})",
        f"{'case':<20} {'policy':<10} {'wall s':>9} {'events/s':>12} {'traffic MB':>12}",
    ]
    has_phases = False
    for case in payload["cases"]:
        for row in case["policies"]:
            lines.append(
                f"{case['name']:<20} {row['policy']:<10} "
                f"{row['wall_clock_s']:>9.3f} {row['events_per_s']:>12.0f} "
                f"{row['total_traffic_mb']:>12.1f}"
            )
        if case.get("phases"):
            has_phases = True
    if has_phases:
        lines.append("")
        lines.append(
            f"{'case':<20} " + " ".join(f"{key:>14}" for key in PHASE_NAMES)
        )
        for case in payload["cases"]:
            phases = case.get("phases")
            if not phases:
                continue
            lines.append(
                f"{case['name']:<20} "
                + " ".join(f"{phases[key]:>13.3f}s" for key in PHASE_NAMES)
            )
    totals = payload["totals"]
    lines.append(
        f"{'TOTAL':<20} {'':<10} {totals['wall_clock_s']:>9.3f} "
        f"{totals['events_per_s']:>12.0f} {'':>12}"
    )
    lines.append(f"peak RSS: {payload['peak_rss_mb']:.1f} MB")
    lint = payload.get("lint_clean")
    if lint is not None:
        lines.append(f"lint clean: {'yes' if lint else 'NO'}")
    return "\n".join(lines)
