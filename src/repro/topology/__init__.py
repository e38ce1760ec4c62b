"""Multi-cache topology: a fleet of middleware caches, one repository.

The paper evaluates one cache on one link, but its deployment setting --
and the middlebox platforms and context-aware middleware surveys in the
related work -- assume *many* cooperating caches in front of a single
rapidly-growing repository.  This package models that fleet as one policy
run at N sites:

* :class:`~repro.topology.spec.TopologySpec` -- picklable description of the
  fleet (policy, site count, per-site cache fraction, partition strategy),
  sweep-ready like ``PolicySpec``;
* :class:`~repro.topology.results.TopologyResult` -- per-site
  :class:`~repro.sim.results.RunResult`\\ s plus the fleet aggregate.

The query stream is split across sites by
:class:`repro.workload.partition.TracePartitioner` (sky region or hotspot
affinity); updates are broadcast to every site, each of which has its own
policy and :class:`~repro.network.link.NetworkLink` over the one shared
:class:`~repro.repository.server.Repository`.  The replay itself is the
single-cache :class:`repro.sim.engine.ReplayKernel` given the partitioner as
its router; the entry point is :func:`repro.sim.multicache.run_topology`.
"""

from repro.topology.results import TopologyResult
from repro.topology.spec import TopologySpec

__all__ = ["TopologyResult", "TopologySpec"]
