"""Declarative description of a multi-cache fleet.

A :class:`TopologySpec` describes a fleet of middleware caches in front of
one shared repository: one decision policy run at every site, each site's
cache size, and how the query stream is partitioned across the sites.  The
spec is a frozen, picklable value -- like :class:`repro.sim.runner.PolicySpec`,
it can cross a process boundary, so multi-site grids fan out over the sweep
runner's worker pool exactly like single-cache grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.runner import PolicySpec
from repro.workload.partition import PARTITION_STRATEGIES


@dataclass(frozen=True)
class TopologySpec:
    """One policy at ``site_count`` sites sharing one repository.

    Parameters
    ----------
    policy:
        The decision policy every site runs (picklable, see
        :class:`repro.sim.runner.PolicySpec`).
    site_count:
        Number of sites (>= 1); site ``i`` serves the partitioner's slice ``i``.
    cache_fraction:
        Each site's cache size as a fraction of the server.
    strategy:
        Object-to-site assignment strategy
        (see :data:`repro.workload.partition.PARTITION_STRATEGIES`).
    """

    policy: PolicySpec
    site_count: int
    cache_fraction: float
    strategy: str = "region"

    def __post_init__(self) -> None:
        if self.site_count < 1:
            raise ValueError("site_count must be at least 1")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; "
                f"known: {PARTITION_STRATEGIES}"
            )

    @classmethod
    def uniform(
        cls, spec: PolicySpec, site_count: int, cache_fraction: float, strategy: str = "region"
    ) -> "TopologySpec":
        """``spec`` at ``site_count`` sites, each ``cache_fraction`` of the server."""
        return cls(spec, site_count, cache_fraction, strategy)

    @property
    def name(self) -> str:
        """Label used in results and artifacts (e.g. ``"vcover-x4"``)."""
        return f"{self.policy.name}-x{self.site_count}"

    def metadata(self) -> Dict[str, object]:
        """Flat, JSON-serialisable description for artifacts and reports.

        The per-site lists keep the artifact layout of fleets whose sites
        could differ; every entry is the same here.
        """
        sites = self.site_count
        return {
            "name": self.name,
            "site_count": sites,
            "strategy": self.strategy,
            "policies": [self.policy.name] * sites,
            "cache_fractions": [self.cache_fraction] * sites,
            "cache_capacities": [None] * sites,
        }
