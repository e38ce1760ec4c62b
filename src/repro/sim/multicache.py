"""Fleet replays: one trace against several cache sites sharing a repository.

A fleet is a :class:`repro.sim.engine.ReplayKernel` over more than one site
plus a router -- there is no second engine: updates are ingested once and
broadcast, each query is routed to one site by a
:class:`repro.workload.partition.TracePartitioner` (handed to the kernel as
its router, so a fleet of eager sites can replay batched), and per-site and
fleet-wide series share the single-cache sampling grid.
"""

from __future__ import annotations

from typing import Optional

from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.topology.results import TopologyResult
from repro.topology.spec import TopologySpec
from repro.workload.partition import TracePartitioner
from repro.workload.trace import TraceStream


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
