"""Workload substrate: traces, generators and hotspot models.

The paper drives its evaluation with ~250,000 real SDSS queries (Jan-Feb
2009) interleaved with ~250,000 simulated updates whose spatial pattern
mimics how survey telescopes scan the sky.  Neither trace is publicly
redistributable, so this package generates synthetic traces that reproduce
the documented statistical properties:

* queries access sets of spatial data objects with heavy-tailed result sizes
  and **evolving hotspots** (Figure 7a: query hotspots drift over time and are
  largely disjoint from update hotspots),
* a mix of query templates (range / spatial self-join / selection /
  aggregation) with no single dominating shape,
* early queries have small result costs, producing the long cache warm-up the
  paper describes,
* updates cluster along great-circle scans and have sizes proportional to the
  density of the object they hit, calibrated to ~100 GB/day of update traffic.

The trace model (:mod:`repro.workload.trace`) is policy-agnostic and supports
JSONL round-trips so generated traces can be saved, inspected and replayed.
Beyond the materialised :class:`Trace`, the :class:`TraceStream` contract
(with the lazily-generated sources in :mod:`repro.workload.stream` and the
scenario-diversity models in :mod:`repro.workload.scenarios`) lets the
engines replay traces far larger than memory; see ``docs/workloads.md``.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "HotspotModel": "repro.workload.hotspots",
    "HotspotPhase": "repro.workload.hotspots",
    "interleave": "repro.workload.mixer",
    "iter_interleaved": "repro.workload.mixer",
    "PARTITION_STRATEGIES": "repro.workload.partition",
    "TracePartitioner": "repro.workload.partition",
    "CacheAdversaryStream": "repro.workload.scenarios",
    "DiurnalStream": "repro.workload.scenarios",
    "EvolvingTraceStream": "repro.workload.stream",
    "FlashCrowdStream": "repro.workload.scenarios",
    "ScenarioModelStream": "repro.workload.scenarios",
    "UpdateStormStream": "repro.workload.scenarios",
    "SDSSQueryGenerator": "repro.workload.sdss",
    "SDSSWorkloadConfig": "repro.workload.sdss",
    "QueryEvent": "repro.workload.trace",
    "Trace": "repro.workload.trace",
    "TraceEvent": "repro.workload.trace",
    "TraceStream": "repro.workload.trace",
    "TraceView": "repro.workload.trace",
    "UpdateEvent": "repro.workload.trace",
    "SurveyUpdateGenerator": "repro.workload.updates",
    "UpdateWorkloadConfig": "repro.workload.updates",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
