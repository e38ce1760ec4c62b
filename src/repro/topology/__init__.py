"""Multi-cache topology: a fleet of middleware caches, one repository.

The paper evaluates one cache on one link, but its deployment setting --
and the middlebox platforms and context-aware middleware surveys in the
related work -- assume *many* cooperating caches in front of a single
rapidly-growing repository.  This package models that fleet:

* :class:`~repro.topology.spec.SiteSpec` / :class:`~repro.topology.spec.TopologySpec`
  -- picklable description of the fleet (per-site policy and cache size,
  partition strategy), sweep-ready like ``PolicySpec``;
* :class:`~repro.topology.site.Site` / :func:`~repro.topology.site.build_sites`
  -- runtime instantiation: each site gets its own policy and
  :class:`~repro.network.link.NetworkLink`, all sharing one
  :class:`~repro.repository.server.Repository`;
* :class:`~repro.topology.results.TopologyResult` -- per-site
  :class:`~repro.sim.results.RunResult`\\ s plus the fleet aggregate.

The query stream is split across sites by
:class:`repro.workload.partition.TracePartitioner` (sky region or hotspot
affinity); updates are broadcast to every site.  The replay itself is the
single-cache :class:`repro.sim.engine.ReplayKernel` given a router; the entry
point is :func:`repro.sim.multicache.run_topology`.
"""

from repro.topology.results import TopologyResult
from repro.topology.site import Site, build_sites
from repro.topology.spec import DEFAULT_SITE_CACHE_FRACTION, SiteSpec, TopologySpec

__all__ = [
    "DEFAULT_SITE_CACHE_FRACTION",
    "Site",
    "SiteSpec",
    "TopologyResult",
    "TopologySpec",
    "build_sites",
]
