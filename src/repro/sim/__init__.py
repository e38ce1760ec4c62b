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

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "ReplayKernel": "repro.sim.engine",
    "run_topology": "repro.sim.multicache",
    "CacheOccupancySeries": "repro.sim.metrics",
    "TrafficTimeSeries": "repro.sim.metrics",
    "ComparisonResult": "repro.sim.results",
    "RunResult": "repro.sim.results",
    "PolicySpec": "repro.sim.runner",
    "compare_policies": "repro.sim.runner",
    "default_policy_specs": "repro.sim.runner",
    "run_policy": "repro.sim.runner",
    "nocache_spec": "repro.sim.runner",
    "replica_spec": "repro.sim.runner",
    "benefit_spec": "repro.sim.runner",
    "vcover_spec": "repro.sim.runner",
    "soptimal_spec": "repro.sim.runner",
    "InlineScenario": "repro.sim.sweep",
    "PointResult": "repro.sim.sweep",
    "SweepPoint": "repro.sim.sweep",
    "SweepResult": "repro.sim.sweep",
    "SweepRunner": "repro.sim.sweep",
    "derive_seed": "repro.sim.sweep",
    "load_artifacts": "repro.sim.sweep",
    "write_artifacts": "repro.sim.sweep",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
