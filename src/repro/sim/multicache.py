"""Fleet replays: one trace against several cache sites sharing a repository.

A fleet is a :class:`repro.sim.engine.ReplayKernel` over more than one
:class:`repro.topology.site.Site` plus a router -- there is no second engine:
updates are ingested once and broadcast, each query is routed to one site by
a :class:`repro.workload.partition.TracePartitioner`, and per-site and
fleet-wide series share the single-cache sampling grid.  This module binds
that kernel to the topology layer: :func:`fleet_kernel` checks the
partitioner against the sites and hands it to the kernel as the router (so a
fleet of eager sites can replay batched), and :func:`run_topology` wraps the
runs in a :class:`repro.topology.results.TopologyResult`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.topology.results import TopologyResult
from repro.topology.site import Site, build_sites
from repro.topology.spec import TopologySpec
from repro.workload.partition import TracePartitioner
from repro.workload.trace import TraceStream


def fleet_kernel(
    repository: Repository,
    sites: Sequence[Site],
    partitioner: TracePartitioner,
    config: Optional[EngineConfig] = None,
) -> ReplayKernel:
    """The replay kernel of a fleet whose queries ``partitioner`` routes."""
    if partitioner.site_count != len(sites):
        raise ValueError(
            f"partitioner splits {partitioner.site_count} ways "
            f"but the topology has {len(sites)} sites"
        )
    return ReplayKernel(
        repository,
        [site.policy for site in sites],
        [site.link for site in sites],
        config,
        route=partitioner,
    )


def run_topology(
    spec: TopologySpec,
    catalog: ObjectCatalog,
    trace: TraceStream,
    engine_config: Optional[EngineConfig] = None,
) -> TopologyResult:
    """Run one topology over one trace with a fresh shared repository.

    The multi-site analogue of :func:`repro.sim.runner.run_policy`: builds
    the repository, the trace partitioner (region slices or affinity counts
    derived from the trace itself), and every site, then replays the trace.
    The shared repository skips server-side update history (no policy reads
    it), so fleet replays of generated streams stay constant-memory.
    """
    repository = Repository(catalog, keep_update_log=False)
    partitioner = TracePartitioner.for_trace(
        catalog.object_ids, spec.site_count, trace, strategy=spec.strategy
    )
    kernel = fleet_kernel(repository, build_sites(spec, repository), partitioner, engine_config)
    site_runs, aggregate = kernel.run(trace, name=spec.name)
    return TopologyResult(
        name=spec.name,
        site_runs=site_runs,
        aggregate=aggregate,
        strategy=partitioner.strategy,
        partition=partitioner.describe(),
    )
