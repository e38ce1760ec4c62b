"""Result container for multi-cache topology runs.

:class:`TopologyResult` collects what one routed
:meth:`repro.sim.engine.ReplayKernel.run` (see
:func:`repro.sim.multicache.run_topology`) produced: one
:class:`repro.sim.results.RunResult` per site (each backed by that site's own
link ledger, occupancy series included) plus an *aggregate* ``RunResult``
summing the fleet, which is what sweep artifacts and comparisons consume --
a topology point slots into a :class:`repro.sim.results.ComparisonResult`
exactly like a single-cache run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.results import RunResult


@dataclass
class TopologyResult:
    """Outcome of replaying one trace against a fleet of sites."""

    #: Topology label (the spec's ``name``).
    name: str
    #: Per-site results, in site order.
    site_runs: List[RunResult]
    #: Fleet-wide aggregate (traffic summed over sites; per-site stats folded
    #: into ``policy_stats`` so they survive into flat sweep artifacts).
    aggregate: RunResult
