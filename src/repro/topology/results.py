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

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.results import RunResult


@dataclass
class TopologyResult:
    """Outcome of replaying one trace against a fleet of sites."""

    #: Topology label (usually the spec's ``name``).
    name: str
    #: Per-site results, in site order.
    site_runs: List[RunResult]
    #: Fleet-wide aggregate (traffic summed over sites; per-site stats folded
    #: into ``policy_stats`` so they survive into flat sweep artifacts).
    aggregate: RunResult
    #: Partition strategy the query stream was split with.
    strategy: str = "region"
    #: Partitioner statistics (objects per site).
    partition: Dict[str, float] = field(default_factory=dict)

    @property
    def site_count(self) -> int:
        """Number of sites."""
        return len(self.site_runs)

    @property
    def total_traffic(self) -> float:
        """Fleet-wide total traffic in MB."""
        return self.aggregate.total_traffic

    @property
    def measured_traffic(self) -> float:
        """Fleet-wide traffic inside the measurement window."""
        return self.aggregate.measured_traffic

    def traffic_of_site(self, site: int, measured_only: bool = True) -> float:
        """Traffic of one site (measurement window by default)."""
        run = self.site_runs[site]
        return run.measured_traffic if measured_only else run.total_traffic

    def summary(self) -> Dict[str, float]:
        """Flat summary: aggregate figures plus per-site traffic."""
        data = {f"aggregate_{k}": v for k, v in self.aggregate.summary().items()}
        data["site_count"] = float(self.site_count)
        for site, run in enumerate(self.site_runs):
            data[f"site{site}_total_traffic"] = run.total_traffic
            data[f"site{site}_measured_traffic"] = run.measured_traffic
            data[f"site{site}_cache_answer_fraction"] = run.cache_answer_fraction
        return data

    def as_payload(self) -> Dict[str, object]:
        """JSON-serialisable representation (per-site plus aggregate)."""
        return {
            "name": self.name,
            "strategy": self.strategy,
            "site_count": self.site_count,
            "partition": dict(self.partition),
            "aggregate": self.aggregate.as_payload(),
            "sites": [run.as_payload() for run in self.site_runs],
        }

    def format_table(self, measured_only: bool = True) -> str:
        """Fixed-width per-site table with the aggregate row last."""
        lines = [
            f"topology {self.name}: {self.site_count} sites, strategy={self.strategy}",
            f"{'site':<12} {'traffic (MB)':>14} {'cache answers':>14} {'queries':>9}",
        ]
        for site, run in enumerate(self.site_runs):
            queries = run.queries_answered_at_cache + run.queries_shipped
            lines.append(
                f"site {site:<7} {self.traffic_of_site(site, measured_only):>14.1f} "
                f"{run.cache_answer_fraction:>14.2%} {queries:>9}"
            )
        aggregate = (
            self.aggregate.measured_traffic if measured_only else self.aggregate.total_traffic
        )
        total_queries = (
            self.aggregate.queries_answered_at_cache + self.aggregate.queries_shipped
        )
        lines.append(
            f"{'aggregate':<12} {aggregate:>14.1f} "
            f"{self.aggregate.cache_answer_fraction:>14.2%} {total_queries:>9}"
        )
        return "\n".join(lines)
