"""The closed-loop load harness for the served cache.

:func:`run_load` adapts any :class:`~repro.workload.trace.TraceStream` --
flash crowds, update storms, scenario compositions, ingested logs -- into N
concurrent closed-loop clients (one outstanding request each).  The clients
pull events from one shared iterator, each stamped with its position in the
trace, so the server applies them in exact trace order regardless of N;
per-request latency lands in a :class:`~repro.sim.metrics.StreamingHistogram`
(p50/p99/p999 in constant memory).

The recorded *event log* contains only deterministic fields (sequence number
plus the decision signature the server answered with), never timings, so it
is byte-identical across ``--clients N`` for a fixed scenario seed -- the
property the lifecycle tests pin.

:func:`run_loadgen` is the one-call form behind ``repro loadgen``: build the
scenario, boot an in-process server (or connect to an external one), drive
the load, and emit the :mod:`repro.serve.payload` record whose policy row
carries the measured latency percentiles -- side by side with the
:class:`~repro.core.latency.LatencyModel` predictions when a model is
given (the calibration sanity check).
"""

from __future__ import annotations

import asyncio
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.core.latency import LatencyModel
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.payload import SCHEMA_ID, current_git_sha, peak_rss_mb, validate_payload
from repro.serve.server import CacheServer
from repro.sim.metrics import StreamingHistogram
from repro.sim.runner import SERVABLE_POLICIES
from repro.workload.trace import TraceStream, event_to_dict

#: The ``stats`` frame's gauges (the rest are totals), as the report prints them.
SERVER_GAUGES = ("connections", "inflight", "parked", "parked_high_water", "waiting_for_seq")


@dataclass
class LoadReport:
    """Everything one load run produced."""

    policy: str
    clients: int
    events: int
    #: Wall-clock of the load phase (connect to last response), seconds.
    wall_clock_s: float
    #: Wall-clock of scenario/stream construction, seconds.
    build_wall_clock_s: float
    #: Measured per-request latency distribution.
    histogram: StreamingHistogram
    #: Deterministic per-event log: ``[seq, *decision_signature]`` rows,
    #: sorted by seq.  Identical across client counts for a fixed scenario.
    event_log: List[List[Any]] = field(default_factory=list)
    #: The server's final stats snapshot.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Model-predicted per-query response times (None without a model).
    predicted: Optional[StreamingHistogram] = None
    #: Workload model label (for payload case naming).
    workload_model: str = "evolving"


async def run_load(
    trace: TraceStream,
    host: str,
    port: int,
    clients: int = 4,
    latency_model: Optional[LatencyModel] = None,
) -> LoadReport:
    """Drive ``trace`` through a running server with N closed-loop clients.

    Raises :class:`~repro.serve.client.ServeError` if the server refuses an
    event (e.g. it started draining mid-load).
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    # One shared source: each worker pulls its next (seq, event) when its
    # previous request is answered, so nothing is held per unsent event.
    source = enumerate(trace.iter_events())
    histograms = [StreamingHistogram() for _ in range(clients)]
    predicted = [StreamingHistogram() for _ in range(clients)] if latency_model else None
    logs: List[List[List[Any]]] = [[] for _ in range(clients)]

    async def worker(index: int) -> None:
        client = await ServeClient.connect(host, port)
        try:
            for seq, event in source:
                payload = event_to_dict(event)
                kind = payload["kind"]
                started = time.perf_counter()
                if kind == "query":
                    result = await client.query(payload, seq=seq)
                else:
                    result = await client.update(payload, seq=seq)
                histograms[index].record(time.perf_counter() - started)
                logs[index].append([seq, *protocol.result_signature(result)])
                if latency_model is not None and kind == "query":
                    assert predicted is not None
                    predicted[index].record(
                        latency_model.response_time(protocol.outcome_from_dict(result))
                    )
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker(index) for index in range(clients)))
    wall = time.perf_counter() - started

    histogram = histograms[0]
    for other in histograms[1:]:
        histogram.merge(other)
    predicted_merged: Optional[StreamingHistogram] = None
    if predicted is not None:
        predicted_merged = predicted[0]
        for other in predicted[1:]:
            predicted_merged.merge(other)
    event_log = sorted((row for log in logs for row in log), key=lambda row: row[0])

    stats_client = await ServeClient.connect(host, port)
    try:
        stats = await stats_client.stats()
    finally:
        await stats_client.close()

    return LoadReport(
        policy=str(stats.get("policy", "")),
        clients=clients,
        events=len(event_log),
        wall_clock_s=wall,
        build_wall_clock_s=0.0,
        histogram=histogram,
        event_log=event_log,
        stats=stats,
        predicted=predicted_merged,
    )


def run_loadgen(
    config: Optional[ExperimentConfig] = None,
    policy: str = "vcover",
    clients: int = 4,
    connect: Optional[Tuple[str, int]] = None,
    latency_model: Optional[LatencyModel] = None,
) -> Tuple[LoadReport, Dict[str, Any]]:
    """Build a scenario, serve it, load it, and emit the loadgen payload.

    Without ``connect`` an in-process server is booted on an ephemeral port
    and gracefully stopped after the load; with ``connect=(host, port)`` the
    load is driven against an already-running ``repro serve`` process (whose
    catalogue must come from the same scenario config).

    Returns ``(report, payload)`` where ``payload`` validates against
    ``repro.bench/v2`` and carries the measured p50/p99/p999 (plus the
    model-predicted percentiles when ``latency_model`` is given).
    """
    if policy not in SERVABLE_POLICIES:
        raise ValueError(
            f"policy {policy!r} cannot be served; servable: {', '.join(SERVABLE_POLICIES)}"
        )
    config = config or ExperimentConfig()
    build_started = time.perf_counter()
    catalog, stream = build_scenario_stream(config)
    build_seconds = time.perf_counter() - build_started
    (spec,) = config.policy_specs(include=(policy,))

    async def _drive() -> LoadReport:
        if connect is not None:
            return await run_load(
                stream, connect[0], connect[1], clients, latency_model=latency_model
            )
        server = CacheServer(
            catalog, spec, catalog.total_size * config.cache_fraction
        )
        await server.start()
        try:
            return await run_load(
                stream, server.host, server.port, clients, latency_model=latency_model
            )
        finally:
            await server.stop()

    report = asyncio.run(_drive())
    report.build_wall_clock_s = build_seconds
    report.workload_model = config.workload_model
    payload = loadgen_payload(report)
    return report, payload


def loadgen_payload(report: LoadReport, suite: str = "loadgen") -> Dict[str, Any]:
    """One load run as a schema-valid ``repro.bench/v2`` payload."""
    wall = report.wall_clock_s
    events_per_s = report.events / wall if wall > 0 else 0.0
    latency: Dict[str, Any] = {
        "count": report.histogram.count,
        "mean": report.histogram.mean,
        "p50": report.histogram.percentile(0.50),
        "p99": report.histogram.percentile(0.99),
        "p999": report.histogram.percentile(0.999),
        "max": report.histogram.max,
    }
    if report.predicted is not None:
        latency["predicted_p50"] = report.predicted.percentile(0.50)
        latency["predicted_p99"] = report.predicted.percentile(0.99)
        latency["predicted_mean"] = report.predicted.mean
    case_name = f"loadgen-{report.workload_model}"
    payload: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "suite": suite,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": report.clients,
        "peak_rss_mb": peak_rss_mb(),
        "totals": {
            "wall_clock_s": wall,
            "policy_runs": 1,
            "events": report.events,
            "events_per_s": events_per_s,
        },
        "cases": [
            {
                "name": case_name,
                "description": (
                    f"closed-loop served load, {report.clients} clients, "
                    f"{report.workload_model} workload"
                ),
                "events": report.events,
                "sites": 1,
                "repeats": 1,
                "build_wall_clock_s": report.build_wall_clock_s,
                "wall_clock_s": wall,
                "events_per_s": events_per_s,
                "peak_rss_mb": peak_rss_mb(),
                "policies": [
                    {
                        "policy": report.policy,
                        "wall_clock_s": wall,
                        "events": report.events,
                        "events_per_s": events_per_s,
                        "total_traffic_mb": float(report.stats.get("total_traffic", 0.0)),
                        "queries_answered_at_cache": int(
                            report.stats.get("queries_answered_at_cache", 0)
                        ),
                        "latency": latency,
                    }
                ],
            }
        ],
    }
    validate_payload(payload)
    return payload


def format_load_report(report: LoadReport) -> str:
    """Human-readable summary: throughput, traffic, measured vs predicted."""
    rate = (
        f" ({report.events / report.wall_clock_s:.0f}/s)"
        if report.wall_clock_s > 0
        else ""
    )
    lines = [
        f"policy            : {report.policy}",
        f"clients           : {report.clients}",
        f"events served     : {report.events}{rate}",
        f"total traffic     : {float(report.stats.get('total_traffic', 0.0)):.1f} MB",
        f"cache answers     : {int(report.stats.get('queries_answered_at_cache', 0))}",
        f"queries shipped   : {int(report.stats.get('queries_shipped', 0))}",
        "server gauges     : " + ", ".join(
            f"{name}={report.stats.get(name)}" for name in SERVER_GAUGES
        ),
        "",
        f"{'latency':<12} {'measured':>12}" + (
            f" {'predicted':>12}" if report.predicted is not None else ""
        ),
    ]
    rows = [
        ("p50", report.histogram.percentile(0.50), 0.50),
        ("p99", report.histogram.percentile(0.99), 0.99),
        ("p999", report.histogram.percentile(0.999), 0.999),
        ("max", report.histogram.max, None),
    ]
    for label, measured, quantile in rows:
        line = f"{label:<12} {measured * 1e3:>10.3f}ms"
        if report.predicted is not None:
            value = (
                report.predicted.max
                if quantile is None
                else report.predicted.percentile(quantile)
            )
            line += f" {value * 1e3:>10.3f}ms"
        lines.append(line)
    return "\n".join(lines)
