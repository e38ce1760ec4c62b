#!/usr/bin/env python3
"""Compare every policy on the paper's default scenario (Figure 7b in small).

Runs the two algorithms (VCover, Benefit) and the three yardsticks (NoCache,
Replica, SOptimal) over the same SDSS-shaped trace, prints the cumulative
traffic table and the headline ratios, and writes the cumulative series of
each policy to a CSV file that can be plotted with any tool.

Run with::

    python examples/policy_comparison.py [--events 8000] [--cache 0.3] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from repro import api
from repro.sim.runner import DEFAULT_POLICIES


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=8000,
                        help="total number of trace events (queries + updates)")
    parser.add_argument("--cache", type=float, default=0.3,
                        help="cache size as a fraction of the server size")
    parser.add_argument("--objects", type=int, default=68,
                        help="number of spatial data objects")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--csv", type=Path, default=None,
                        help="optional path for the cumulative-traffic CSV")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the per-policy runs")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    return args


def main() -> None:
    args = parse_args()
    overrides = {
        "object_count": args.objects,
        "query_count": args.events // 2,
        "update_count": args.events // 2,
        "cache_fraction": args.cache,
        "seed": args.seed,
    }
    print(f"scenario: {2 * (args.events // 2)} events over {args.objects} objects, "
          f"cache {args.cache:.0%} of server")
    print("running all five policies (this takes a few seconds)...")
    result = api.run_experiment("fig7b", overrides=overrides, jobs=args.jobs)

    print()
    print(api.format_result("fig7b", result))

    if args.csv is not None:
        with args.csv.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["policy", "event_index", "cumulative_traffic_mb"])
            comparison = result.comparisons[0]
            for policy in DEFAULT_POLICIES:
                for event_index, traffic in comparison[policy].time_series.as_rows():
                    writer.writerow([policy, event_index, f"{traffic:.3f}"])
        print(f"\ncumulative series written to {args.csv}")


if __name__ == "__main__":
    main()
