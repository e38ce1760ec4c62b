"""Fleet replays: one trace against several cache sites sharing a repository.

The paper evaluates one cache on one link, but its deployment setting
assumes *many* cooperating caches in front of a single rapidly-growing
repository.  A fleet is one policy run at N sites: :class:`TopologySpec`
describes it, :func:`run_topology` replays it and :class:`TopologyResult`
holds the per-site runs and the fleet aggregate.

A fleet is a :class:`repro.sim.engine.ReplayKernel` over more than one site
plus a router -- there is no second engine: updates are ingested once and
broadcast, each query is routed to one site by a
:class:`repro.workload.partition.TracePartitioner` (handed to the kernel as
its router, so a fleet of eager sites can replay batched), and per-site and
fleet-wide series share the single-cache sampling grid.  Each site has its
own policy and :class:`~repro.network.link.NetworkLink` over the one shared
:class:`~repro.repository.server.Repository`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.sim.results import RunResult
from repro.sim.runner import PolicySpec
from repro.workload.partition import PARTITION_STRATEGIES, TracePartitioner
from repro.workload.trace import TraceStream


@dataclass(frozen=True)
class TopologySpec:
    """One policy at ``site_count`` sites sharing one repository.

    Frozen and picklable like :class:`repro.sim.runner.PolicySpec`, so
    multi-site grids fan out over the sweep runner's worker pool exactly like
    single-cache grids.

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


@dataclass
class TopologyResult:
    """Outcome of replaying one trace against a fleet of sites.

    Each site's run is backed by that site's own link ledger, occupancy
    series included; the aggregate is what sweep artifacts and comparisons
    consume -- a topology point slots into a
    :class:`repro.sim.results.ComparisonResult` exactly like a single-cache
    run.
    """

    #: Topology label (the spec's ``name``).
    name: str
    #: Per-site results, in site order.
    site_runs: List[RunResult]
    #: Fleet-wide aggregate (traffic summed over sites; per-site stats folded
    #: into ``policy_stats`` so they survive into flat sweep artifacts).
    aggregate: RunResult


def run_topology(
    spec: TopologySpec,
    catalog: ObjectCatalog,
    trace: TraceStream,
    engine_config: Optional[EngineConfig] = None,
) -> TopologyResult:
    """Run one topology over one trace with a fresh shared repository.

    The multi-site analogue of :func:`repro.sim.runner.run_policy`: builds
    the repository, the trace partitioner (region slices or affinity counts
    derived from the trace itself), and one policy and link per site -- each
    cache sized against the catalogue's base size, as single-cache runs are
    -- then replays the trace.
    """
    repository = Repository(catalog)
    partitioner = TracePartitioner.for_trace(
        catalog.object_ids, spec.site_count, trace, strategy=spec.strategy
    )
    capacity = catalog.total_size * spec.cache_fraction
    links = [NetworkLink() for _ in range(spec.site_count)]
    policies = [spec.policy.factory(repository, capacity, link) for link in links]
    kernel = ReplayKernel(repository, policies, links, engine_config, route=partitioner)
    site_runs, aggregate = kernel.run(trace, name=spec.name)
    return TopologyResult(name=spec.name, site_runs=site_runs, aggregate=aggregate)
