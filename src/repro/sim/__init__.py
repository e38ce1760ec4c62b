"""Simulation engine: drive policies over traces and collect metrics.

The evaluation in the paper replays a trace of ~500k interleaved query and
update events against each policy and reports cumulative network traffic.
This package provides the kernel that does the replay, for one cache or a
fleet (:mod:`repro.sim.engine`), the metric collectors that record cumulative and
per-mechanism traffic over the event sequence (:mod:`repro.sim.metrics`), a
results container with comparison helpers (:mod:`repro.sim.results`), a
multi-policy runner used by every experiment (:mod:`repro.sim.runner`), a
parallel sweep runner that fans experiment grids out over worker processes
(:mod:`repro.sim.sweep`), and the fleet entry point that replays one trace
against several sites sharing a repository (:mod:`repro.sim.multicache`,
specified via :mod:`repro.topology`).
"""

from repro.sim.engine import ReplayKernel
from repro.sim.metrics import CacheOccupancySeries, TrafficTimeSeries
from repro.sim.multicache import run_topology
from repro.sim.results import ComparisonResult, RunResult
from repro.sim.runner import (
    PolicySpec,
    benefit_spec,
    compare_policies,
    default_policy_specs,
    nocache_spec,
    replica_spec,
    run_policy,
    soptimal_spec,
    vcover_spec,
)
from repro.sim.sweep import (
    InlineScenario,
    PointResult,
    SweepPoint,
    SweepResult,
    SweepRunner,
    derive_seed,
    load_artifacts,
    write_artifacts,
)

__all__ = [
    "ReplayKernel",
    "run_topology",
    "CacheOccupancySeries",
    "TrafficTimeSeries",
    "ComparisonResult",
    "RunResult",
    "PolicySpec",
    "compare_policies",
    "default_policy_specs",
    "run_policy",
    "nocache_spec",
    "replica_spec",
    "benefit_spec",
    "vcover_spec",
    "soptimal_spec",
    "InlineScenario",
    "PointResult",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "derive_seed",
    "load_artifacts",
    "write_artifacts",
]
