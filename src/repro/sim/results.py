"""Result containers for simulation runs and policy comparisons.

:class:`RunResult` captures everything a single policy run produced: final
traffic, per-mechanism breakdown, the cumulative time series, query outcome
counts, and policy statistics.  :class:`ComparisonResult` collects runs of
several policies over the same trace and offers the ratios the paper quotes
(VCover vs NoCache, VCover vs Benefit, distance from SOptimal) plus simple
text tables for reports and benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.metrics import CacheOccupancySeries, TrafficTimeSeries

#: The traffic ratios the paper quotes, as ``(numerator, denominator)``
#: policies in display order (``nocache_over_vcover`` is NoCache / VCover).
SUMMARY_RATIOS = (
    ("nocache", "vcover"),
    ("replica", "vcover"),
    ("benefit", "vcover"),
    ("vcover", "soptimal"),
)


@dataclass
class RunResult:
    """Outcome of replaying one trace against one policy."""

    policy_name: str
    total_traffic: float
    traffic_by_mechanism: Dict[str, float]
    time_series: TrafficTimeSeries
    queries_answered_at_cache: int
    queries_shipped: int
    events_processed: int
    policy_stats: Dict[str, float] = field(default_factory=dict)
    #: Traffic accumulated before the measurement window opened (warm-up).
    warmup_traffic: float = 0.0
    #: Cache occupancy samples over the run (None for store-less policies).
    occupancy: Optional[CacheOccupancySeries] = None

    @property
    def measured_traffic(self) -> float:
        """Traffic inside the measurement window (total minus warm-up)."""
        return self.total_traffic - self.warmup_traffic

    @property
    def cache_answer_fraction(self) -> float:
        """Fraction of queries answered at the cache."""
        total = self.queries_answered_at_cache + self.queries_shipped
        if total == 0:
            return 0.0
        return self.queries_answered_at_cache / total

    def summary(self) -> Dict[str, float]:
        """Flat summary used by reports and benchmark extra_info."""
        return {
            "total_traffic": self.total_traffic,
            "measured_traffic": self.measured_traffic,
            "cache_answer_fraction": self.cache_answer_fraction,
            **{f"traffic_{key}": value for key, value in self.traffic_by_mechanism.items()},
        }

    def as_payload(self) -> Dict[str, object]:
        """JSON-serialisable representation (used by sweep artifacts)."""
        payload: Dict[str, object] = {
            "policy_name": self.policy_name,
            "total_traffic": self.total_traffic,
            "warmup_traffic": self.warmup_traffic,
            "measured_traffic": self.measured_traffic,
            "traffic_by_mechanism": dict(self.traffic_by_mechanism),
            "queries_answered_at_cache": self.queries_answered_at_cache,
            "queries_shipped": self.queries_shipped,
            "cache_answer_fraction": self.cache_answer_fraction,
            "events_processed": self.events_processed,
            "time_series": [list(row) for row in self.time_series.as_rows()],
            "policy_stats": dict(self.policy_stats),
        }
        if self.occupancy is not None:
            payload["occupancy"] = [
                [index, fraction, resident]
                for index, fraction, resident in zip(
                    self.occupancy.event_indices,
                    self.occupancy.occupancy,
                    self.occupancy.resident_objects,
                    strict=True,
                )
            ]
        return payload


@dataclass
class ComparisonResult:
    """Runs of several policies over the same trace."""

    runs: Dict[str, RunResult]
    trace_description: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, policy_name: str) -> RunResult:
        return self.runs[policy_name]

    def __contains__(self, policy_name: str) -> bool:
        return policy_name in self.runs

    def policy_names(self) -> List[str]:
        """Policies included in the comparison."""
        return list(self.runs)

    def traffic_of(self, policy_name: str, measured_only: bool = True) -> float:
        """Traffic of one policy (measurement window by default)."""
        run = self.runs[policy_name]
        return run.measured_traffic if measured_only else run.total_traffic

    def ratio(self, numerator: str, denominator: str, measured_only: bool = True) -> float:
        """Traffic ratio between two policies (e.g. nocache / vcover)."""
        denom = self.traffic_of(denominator, measured_only)
        if denom == 0:
            return float("inf")
        return self.traffic_of(numerator, measured_only) / denom

    def ranking(self, measured_only: bool = True) -> List[Tuple[str, float]]:
        """Policies sorted by traffic, cheapest first."""
        return sorted(
            ((name, self.traffic_of(name, measured_only)) for name in self.runs),
            key=lambda item: item[1],
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_table(self, measured_only: bool = True) -> str:
        """A fixed-width text table of per-policy traffic (for bench output)."""
        lines = [f"{'policy':<12} {'traffic (MB)':>14} {'cache answers':>14}"]
        for name, traffic in self.ranking(measured_only):
            run = self.runs[name]
            lines.append(
                f"{name:<12} {traffic:>14.1f} {run.cache_answer_fraction:>14.2%}"
            )
        return "\n".join(lines)

    def headline_ratios(self, measured_only: bool = True) -> Dict[str, float]:
        """The :data:`SUMMARY_RATIOS` both of whose policies ran, in display order."""
        return {
            f"{numerator}_over_{denominator}": self.ratio(numerator, denominator, measured_only)
            for numerator, denominator in SUMMARY_RATIOS
            if numerator in self.runs and denominator in self.runs
        }

    def summary(self, measured_only: bool = True) -> Dict[str, float]:
        """Flat mapping of policy name to traffic (plus headline ratios)."""
        data = {
            f"traffic_{name}": self.traffic_of(name, measured_only) for name in self.runs
        }
        data.update(self.headline_ratios(measured_only))
        return data
