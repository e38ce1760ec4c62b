#!/usr/bin/env python3
"""The Delta benchmark: one command, every metric, checked outputs.

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace 0|1|both | --traced] [--out FILE] [--tiny]
    python bench/run.py --compare A.json B.json

Each workload runs in its own fresh child process, one after another.  With
``--trace 0`` (the default) a run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run, with ``--traced``
both.  Names, units, directions and regression bounds all come from
``BENCHMARK.json`` at the repository root -- the one source of truth.  The
last line of standard output is one JSON object per workload (``correct``,
``attempted``, ``failed``, ``metrics``); the exit status is non-zero when any
correctness check failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


def load_definition() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units, directions, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Worker: one workload in this process
# ----------------------------------------------------------------------
def worker_main(args: argparse.Namespace) -> int:
    """Run one workload here and print its result document as the last line."""
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from workloads import run_workload

    document = run_workload(
        args.worker,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.trace == "1",
        tiny=args.tiny,
        inject_fault=args.inject_fault,
    )
    print(json.dumps(document))
    return 0


def run_child(args: argparse.Namespace, workload: str, trace: str) -> Dict[str, Any]:
    """Run one workload in a fresh child process; returns its result document."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", trace,
    ]  # fmt: skip
    if args.tiny:
        command.append("--tiny")
    if args.inject_fault:
        command.append("--inject-fault")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} child exited with {completed.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Parent: run, report
# ----------------------------------------------------------------------
def environment(args: argparse.Namespace) -> Dict[str, Any]:
    """The machine and invocation a result file was recorded with."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def declared(document: Dict[str, Any], definition: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The declared metrics a child measured, each with its unit.

    A declared per-layer metric a workload does not exercise reads 0.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    if "metrics" in document:
        for spec in definition["end_to_end"]:
            metrics[spec["name"]] = {**document["metrics"][spec["name"]], "unit": spec["unit"]}
    if "layers" in document:
        for spec in definition["per_layer"]:
            metrics[spec["name"]] = {
                "value": document["layers"].get(spec["name"], 0.0),
                "unit": spec["unit"],
            }
    return metrics


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(
        f"\n{name}: {result['passes']} passes, {result['timed_s']:.1f} s timed, "
        f"{result['failed']} of {result['attempted']} operations failed"
    )
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<8}"
        if entry.get("n", 1) > 1:
            line += (
                f"  [median {entry['median']:.6g}, q1 {entry['q1']:.6g}, "
                f"q3 {entry['q3']:.6g}, n={entry['n']}]"
            )
        print(line)


def run_main(args: argparse.Namespace) -> int:
    definition = load_definition()
    known = [workload["name"] for workload in definition["workloads"]]
    names = args.workload or known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"error: unknown workload {unknown}; BENCHMARK.json names {known}", file=sys.stderr)
        return 2
    env = environment(args)
    nproc = env["nproc"] or 1
    if env["loadavg_1m_start"] > nproc / 2:
        print(
            f"warning: 1-min load average {env['loadavg_1m_start']:.2f} exceeds nproc/2 "
            f"({nproc / 2:.1f}); timings will be noisy",
            file=sys.stderr,
        )

    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        children = [
            run_child(args, name, trace) for trace in ("0", "1") if args.trace in (trace, "both")
        ]
        result: Dict[str, Any] = {
            "passes": sum(child["passes"] for child in children),
            "timed_s": sum(child["timed_s"] for child in children),
            "pass_wall_s": [wall for child in children for wall in child["pass_wall_s"]],
            "attempted": sum(child["attempted"] for child in children),
            "failed": sum(child["failed"] for child in children),
            "failures": [message for child in children for message in child["failures"]],
            "metrics": {},
        }
        for child in children:
            result["metrics"].update(declared(child, definition))
            for key in ("spans", "span_check"):
                if key in child:
                    result[key] = child[key]
        traffic = [child["traffic_mb"] for child in children]
        if not math.isclose(traffic[0], traffic[-1], rel_tol=1e-12):
            result["failures"].append("traced and untraced runs simulated different traffic")
        result["correct"] = not result["failures"] and result["failed"] == 0
        results[name] = result
        print_workload(name, result)

    if args.out is not None:
        args.out.write_text(
            json.dumps({"environment": env, "workloads": results}, indent=1) + "\n",
            encoding="utf-8",
        )
    print()
    for name in names:
        result = results[name]
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        metric: {"value": entry["value"], "unit": entry["unit"]}
                        for metric, entry in result["metrics"].items()
                    },
                }
            )
        )
    return 0 if all(result["correct"] for result in results.values()) else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare_main(base_path: Path, change_path: Path) -> int:
    """Apply each end-to-end metric's bound to two result files."""
    definition = load_definition()
    base = json.loads(base_path.read_text(encoding="utf-8"))["workloads"]
    change = json.loads(change_path.read_text(encoding="utf-8"))["workloads"]
    print(f"base {base_path}  change {change_path}")
    print(
        f"{'workload':<24} {'metric':<16} {'base':>12} {'change':>12} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    regressed = 0
    for name in base:
        if name not in change:
            continue
        for spec in definition["end_to_end"]:
            old = base[name]["metrics"].get(spec["name"])
            new = change[name]["metrics"].get(spec["name"])
            if old is None or new is None:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (new["value"] - old["value"]) / old["value"]
            widest = max((run["q3"] - run["q1"]) / run["value"] for run in (old, new))
            overlap = old["q1"] <= new["q3"] and new["q1"] <= old["q3"]
            if widest > spec["bound"] and overlap:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"{name:<24} {spec['name']:<16} {old['value']:>12.6g} {new['value']:>12.6g} "
                f"{worse:>+9.2%} {spec['bound']:>6.3g}  {verdict} "
                f"(of base {old['value']:.6g} {spec['unit']})"
            )
        old_ratio = base[name]["failed"] / base[name]["attempted"]
        new_ratio = change[name]["failed"] / change[name]["attempted"]
        verdict = "ok" if new_ratio <= old_ratio else "regressed"
        regressed += verdict == "regressed"
        print(
            f"{name:<24} {'failed/attempted':<16} {old_ratio:>12.6g} {new_ratio:>12.6g} "
            f"{'':>9} {0:>6}  {verdict}"
        )
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics; both: one run of each")
    parser.add_argument("--traced", dest="trace", action="store_const", const="both",
                        help="same as --trace both")
    parser.add_argument("--out", type=Path, help="write the full results (quartiles, spans) here")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: one pass of a handful of events, no warm-up")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="apply the bounds to two result files instead of running")
    parser.add_argument("--inject-fault", action="store_true",
                        help="test hook: corrupt one observed statistic so a check fails")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)  # fmt: skip
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: the program under test is not at {SRC_DIR}", file=sys.stderr)
        return 2
    if args.compare:
        return compare_main(*args.compare)
    if args.seconds is None:
        args.seconds = 0.0 if args.tiny else float(load_definition()["run_seconds"])
    if args.worker:
        return worker_main(args)
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
