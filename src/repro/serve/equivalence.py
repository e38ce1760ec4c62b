"""Sim-vs-served equivalence: one trace, one policy, two execution paths.

The server applies every frame with the *same*
:meth:`repro.sim.engine.ReplayKernel.step` a replay runs, behind a
single-writer loop that applies frames in trace order.  So for any online
policy, replaying a trace and serving it through
:class:`~repro.serve.server.CacheServer` must produce **byte-identical
decision logs** (every load, eviction and update shipment, in order) and
identical traffic counters.  This module provides the two paths, both
observed through the kernel's ``on_decision`` seam by one
:func:`decision_recorder`; ``tests/test_serve_equivalence.py`` pins the
guarantee over real TCP with concurrent clients.

Scope: online policies only (``nocache``, ``replica``, ``benefit`` and
``vcover``, whose decisions depend only on events already seen).
``soptimal`` prepares offline over the full future trace, which a server
that sees events one at a time cannot do by construction.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Tuple

from repro.repository.objects import ObjectCatalog
from repro.serve import protocol
from repro.serve.harness import run_load
from repro.serve.server import CacheServer
from repro.sim.engine import DecisionHook
from repro.sim.results import RunResult
from repro.sim.runner import PolicySpec, build_site
from repro.workload.trace import TraceStream


def decision_recorder(log: List[List[Any]]) -> DecisionHook:
    """An ``on_decision`` hook appending one signature row per event to ``log``.

    Rows are the :mod:`repro.serve.protocol` query/update signatures on
    either path, so the two logs compare directly.
    """

    def record(payload: Any, outcome: Any) -> None:
        if outcome is None:
            log.append(protocol.update_signature(payload))
        else:
            log.append(protocol.outcome_signature(outcome))

    return record


def replay_with_log(
    spec: PolicySpec,
    catalog: ObjectCatalog,
    trace: TraceStream,
    cache_capacity: float,
) -> Tuple[RunResult, List[List[Any]]]:
    """Run one policy through the replay kernel, recording its decisions."""
    log: List[List[Any]] = []
    kernel = build_site(catalog, spec, cache_capacity, on_decision=decision_recorder(log))
    site_runs, _ = kernel.run(trace)
    return site_runs[0], log


def serve_with_log(
    spec: PolicySpec,
    catalog: ObjectCatalog,
    trace: TraceStream,
    cache_capacity: float,
    clients: int = 2,
) -> Tuple[Dict[str, Any], List[List[Any]]]:
    """Serve the same trace through an in-process server, same instrumentation.

    Returns the server's final stats snapshot and its decision log.
    """

    async def _drive() -> Tuple[Dict[str, Any], List[List[Any]]]:
        log: List[List[Any]] = []
        server = CacheServer(catalog, spec, cache_capacity, on_decision=decision_recorder(log))
        await server.start()
        try:
            await run_load(trace, server.host, server.port, clients=clients)
        finally:
            await server.stop()
        return server.stats_snapshot(), log

    return asyncio.run(_drive())


def logs_identical(sim_log: List[List[Any]], served_log: List[List[Any]]) -> bool:
    """Byte-identity of two decision logs (JSON-encoded, as persisted)."""
    return json.dumps(sim_log) == json.dumps(served_log)
