#!/usr/bin/env python3
"""A Pan-STARRS-style nightly-operations scenario.

The paper motivates Delta with surveys such as Pan-STARRS and LSST, where the
telescope adds on the order of 100 GB of new observations every night while
astronomers keep querying the latest data (time-domain studies and light-curve
analysis need zero staleness).  This example simulates several observing
nights:

* each night the telescope sweeps a set of great-circle scans, producing a
  burst of updates clustered on the scanned sky region,
* during the day astronomers issue queries: most target the currently popular
  follow-up fields, a fraction chase last night's transients (zero tolerance
  for staleness), and the rest browse the archive with a relaxed currency
  requirement,
* Delta (with VCover) sits between the community and the repository; we track
  how much traffic it moves per night compared with re-shipping every query
  (NoCache) or mirroring every update (Replica).

Run with::

    python examples/panstarrs_nightly.py [--nights 5]
"""

from __future__ import annotations

import argparse

from repro import Delta, DeltaConfig
from repro.repository.catalog import sdss_catalog
from repro.workload import (
    SDSSQueryGenerator,
    SDSSWorkloadConfig,
    SurveyUpdateGenerator,
    UpdateWorkloadConfig,
    interleave,
)


def build_generators(catalog, events_per_night: int, seed: int):
    """Persistent query/update generators shared by every night.

    Using one generator pair for the whole campaign is what makes the scenario
    realistic: the survey's scan pattern progresses night over night, and the
    community's follow-up fields persist and drift slowly instead of being
    redrawn from scratch each morning.
    """
    update_config = UpdateWorkloadConfig(
        update_count=events_per_night // 2,
        # ~100 GB/night in paper units; scaled with the catalogue.
        target_total_cost=catalog.total_size * 0.125,
        scan_width=5,
        scan_length=120,
        region_fraction=0.3,
        seed=seed,
    )
    update_generator = SurveyUpdateGenerator(catalog, update_config)
    query_config = SDSSWorkloadConfig(
        query_count=events_per_night // 2,
        target_total_cost=catalog.total_size * 0.2,
        focus_size=6,
        phase_length=1500,
        drift=0.2,
        # Transient chasers: half the queries demand strictly current data.
        tolerant_fraction=0.5,
        tolerance_window=200.0,
        flare_probability=0.15,
        excluded_hotspots=tuple(update_generator.observed_region),
        seed=seed + 100,
    )
    query_generator = SDSSQueryGenerator(catalog, query_config)
    return query_generator, update_generator


def build_night_trace(query_generator, update_generator):
    """One night's interleaved update burst and daytime query load."""
    return interleave(query_generator.generate(), update_generator.generate())


def run_policy(policy_name: str, catalog, nights, cache_fraction: float):
    """Replay all nights against one policy; return per-night traffic."""
    delta = Delta(catalog, DeltaConfig(policy=policy_name, cache_fraction=cache_fraction))
    nightly_traffic = []
    for trace in nights:
        before = delta.traffic_report()["total"]
        for event in trace:
            if event.kind == "update":
                delta.ingest_update(event.update)
            else:
                delta.submit_query(event.query)
        nightly_traffic.append(delta.traffic_report()["total"] - before)
    return nightly_traffic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nights", type=int, default=5, help="number of observing nights")
    parser.add_argument("--events", type=int, default=2000, help="events per night")
    parser.add_argument("--cache", type=float, default=0.25,
                        help="cache size as a fraction of the server")
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    args = parser.parse_args()

    catalog = sdss_catalog(object_count=68)
    print(f"repository: {catalog.total_size:.0f} MB over {len(catalog)} sky partitions")
    print(f"simulating {args.nights} nights, {args.events} events each\n")

    query_generator, update_generator = build_generators(catalog, args.events, args.seed)
    nights = [
        build_night_trace(query_generator, update_generator) for _ in range(args.nights)
    ]

    results = {}
    for policy in ("nocache", "replica", "vcover"):
        results[policy] = run_policy(policy, catalog, nights, args.cache)

    header = f"{'night':>6}" + "".join(f"{policy:>12}" for policy in results)
    print(header)
    for night in range(args.nights):
        row = f"{night + 1:>6}" + "".join(
            f"{results[policy][night]:>12.1f}" for policy in results
        )
        print(row)
    totals = {policy: sum(values) for policy, values in results.items()}
    print(f"{'total':>6}" + "".join(f"{totals[policy]:>12.1f}" for policy in results))
    print()
    if totals["vcover"] < min(totals["nocache"], totals["replica"]):
        saving = 1.0 - totals["vcover"] / totals["nocache"]
        print(f"Delta/VCover moved {saving:.0%} less traffic than shipping every query, "
              "while always meeting each query's currency requirement.")
    else:
        print("On this short run VCover has not amortised its loads yet; "
              "try more nights (--nights 10).")


if __name__ == "__main__":
    main()
