"""Process-local phase timers for the benchmark harness.

The bench runner wants to localise a regression: did a slow case spend its
time compiling the trace, dispatching events, solving covers, or sampling
metrics?  The replay and flow layers record wall-clock into the accumulators
here; :mod:`repro.bench.runner` resets them around each policy run and folds
the deltas into the ``repro.bench/v2`` per-phase breakdown.

These timers are *observability only*.  They never feed back into simulation
state, ``RunResult`` payloads, or policy decisions -- wall-clock must stay out
of anything the determinism fixtures pin.  The accumulators are plain module
globals: each bench case runs start-to-finish inside one process (serial or
one ``ProcessPoolExecutor`` worker), so no locking is needed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

#: Time spent computing covers: the whole of
#: :meth:`repro.flow.incremental.IncrementalMaxFlow.compute_cover`
#: (augmentation, reachability and extraction) plus the static solves of
#: :func:`repro.flow.vertex_cover.min_weight_vertex_cover`.
PHASE_COVER_SOLVE = "cover_solve"

#: Time spent sampling the traffic/occupancy series in the engines.
PHASE_METRICS = "metrics"

_totals: Dict[str, float] = {}


def phase_clock() -> float:
    """Current wall-clock, for bracketing a phase measurement.

    This is the one sanctioned wall-clock read in replay-adjacent code: the
    value is only ever subtracted from a later read and fed to
    :func:`add_phase_time`, so it can never influence simulation results.
    """
    return perf_counter()  # repro-lint: disable=DET002


def add_phase_time(phase: str, seconds: float) -> None:
    """Accumulate ``seconds`` of wall-clock against ``phase``."""
    _totals[phase] = _totals.get(phase, 0.0) + seconds


def reset_phase_times() -> None:
    """Zero every accumulator (the bench runner calls this per policy run)."""
    _totals.clear()


def snapshot_phase_times() -> Dict[str, float]:
    """A copy of the accumulated per-phase seconds."""
    return dict(_totals)
