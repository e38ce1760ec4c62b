#!/usr/bin/env python3
"""Quickstart: stand up a Delta middleware cache and run a small workload.

This example builds a scaled-down SDSS-shaped repository (68 spatial data
objects), deploys Delta in front of it with the VCover decision policy and a
cache 30 % of the server size, replays a short interleaved stream of updates
(from the telescope pipeline) and queries (from astronomers), and prints the
traffic ledger broken down by data-communication mechanism.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Delta, DeltaConfig
from repro.repository.catalog import sdss_catalog
from repro.workload import (
    SDSSQueryGenerator,
    SDSSWorkloadConfig,
    SurveyUpdateGenerator,
    UpdateWorkloadConfig,
    interleave,
)


def main() -> None:
    # 1. The server: an SDSS PhotoObj-shaped catalogue of 68 spatial objects,
    #    scaled down ~1000x so everything runs instantly on a laptop.
    catalog = sdss_catalog(object_count=68)
    print(f"server: {len(catalog)} data objects, {catalog.total_size:.0f} MB total")

    # 2. The middleware deployment: VCover decision policy, cache = 30 % of
    #    the server (the paper's default configuration).
    delta = Delta(catalog, DeltaConfig(policy="vcover", cache_fraction=0.3))
    print(f"cache : {delta.policy.store.capacity:.0f} MB "
          f"({delta.config.cache_fraction:.0%} of the server)")

    # 3. A workload: an update stream clustered along survey scans and a query
    #    stream with evolving hotspots, interleaved 1:1.
    updates = SurveyUpdateGenerator(
        catalog, UpdateWorkloadConfig(update_count=2000, target_total_cost=400.0)
    )
    queries = SDSSQueryGenerator(
        catalog,
        SDSSWorkloadConfig(
            query_count=2000,
            target_total_cost=400.0,
            excluded_hotspots=tuple(updates.observed_region),
        ),
    )
    trace = interleave(queries.generate(), updates.generate())
    print(f"trace : {len(trace)} events "
          f"({trace.query_count} queries, {trace.update_count} updates)")

    # 4. Replay the trace through the deployment.
    answered_at_cache = 0
    for event in trace:
        if event.kind == "update":
            delta.ingest_update(event.update)
        else:
            outcome = delta.submit_query(event.query)
            if outcome.answered_at_cache:
                answered_at_cache += 1

    # 5. Read the ledger.
    report = delta.traffic_report()
    print()
    print("traffic report (MB)")
    for key in ("query_shipping", "update_shipping", "object_loading", "total"):
        print(f"  {key:<16} {report[key]:>10.1f}")
    print()
    print(f"queries answered at the cache : {answered_at_cache}/{trace.query_count} "
          f"({answered_at_cache / trace.query_count:.0%})")
    print(f"no-cache baseline would have paid {trace.total_query_cost():.1f} MB "
          f"of query shipping")


if __name__ == "__main__":
    main()
