"""Partitioning one trace across a fleet of middleware caches.

A fleet replay (:mod:`repro.sim.multicache`) replays one interleaved
trace against N cooperating sites that share a single backend repository.
Queries are *split*: each query is routed to exactly one site, the one that
owns most of the objects it touches.  Updates are *broadcast*: every site's
policy observes every update, because any site may hold a resident copy of
the updated object (the repository itself ingests each update only once).

:class:`TracePartitioner` owns the object-to-site assignment and the query
routing.  Two assignment strategies are provided:

* ``"region"`` -- contiguous sky slices
  (:func:`repro.sky.partition.contiguous_sky_slices`): object ids are
  contiguous over the sky, so each site serves a spatially compact region,
  the deployment shape of per-continent mirror sites;
* ``"affinity"`` -- hotspot affinity: objects are ranked by how many queries
  touch them and greedily assigned to the least-loaded site, spreading the
  hot objects evenly, the shape of a load-balanced cache fleet.

Both strategies are deterministic functions of the trace and the site count,
so a partitioned replay is as reproducible as a single-cache one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.repository.queries import Query
from repro.workload.trace import TraceStream

if TYPE_CHECKING:
    import numpy

    from repro.repository.objects import ObjectCatalog
    from repro.workload.columns import TraceColumns

#: Known object-to-site assignment strategies.
PARTITION_STRATEGIES = ("region", "affinity")


class TracePartitioner:
    """Assigns objects to sites and routes queries to their site.

    Parameters
    ----------
    object_ids:
        Every object id the trace may touch (typically the catalogue's ids).
    site_count:
        Number of sites to split across: at least 1, at most one per object
        (a site with no objects would be routed no query).
    strategy:
        ``"region"`` or ``"affinity"`` (see module docstring).
    query_counts:
        Per-object query-touch counts, required by the ``"affinity"``
        strategy (use :meth:`for_trace` to compute them from a trace).
    """

    def __init__(
        self,
        object_ids: Sequence[int],
        site_count: int,
        strategy: str = "region",
        query_counts: Optional[Mapping[int, int]] = None,
    ) -> None:
        if site_count < 1:
            raise ValueError("site_count must be at least 1")
        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {strategy!r}; "
                f"known: {PARTITION_STRATEGIES}"
            )
        if site_count > len(object_ids):
            raise ValueError(
                f"cannot split {len(object_ids)} objects across {site_count} sites: "
                "every site needs at least one object"
            )
        self._site_count = site_count
        if strategy == "region":
            from repro.sky.partition import contiguous_sky_slices

            slices = contiguous_sky_slices(object_ids, site_count)
            self._assignment = {
                object_id: site
                for site, ids in enumerate(slices)
                for object_id in ids
            }
        else:
            if not query_counts:
                # Without counts every load stays 0 and the greedy assignment
                # degenerates to "everything on site 0" -- refuse loudly.
                raise ValueError(
                    "the affinity strategy needs per-object query counts; "
                    "use TracePartitioner.for_trace(...) or pass query_counts"
                )
            self._assignment = _affinity_assignment(
                object_ids, site_count, dict(query_counts)
            )

    @classmethod
    def for_trace(
        cls,
        object_ids: Sequence[int],
        site_count: int,
        trace: TraceStream,
        strategy: str = "region",
    ) -> "TracePartitioner":
        """Build a partitioner for a trace (computes affinity counts).

        ``trace`` may be any :class:`~repro.workload.trace.TraceStream`; the
        ``affinity`` strategy makes one streaming pass over its queries.  A
        trace without queries routes nothing, so it weighs every object
        once and the assignment spreads them evenly.
        """
        counts: Dict[int, int] = {}
        if strategy == "affinity":
            for query in trace.queries():
                for object_id in query.object_ids:
                    counts[object_id] = counts.get(object_id, 0) + 1
            counts = counts or dict.fromkeys(object_ids, 1)
        return cls(object_ids, site_count, strategy=strategy, query_counts=counts)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def site_of_query(self, query: Query) -> int:
        """The site a query is routed to.

        Majority vote over the objects the query touches (footprints are
        spatially coherent, so under the region strategy this is almost
        always unanimous); ties break to the lowest site index so routing is
        deterministic.
        """
        votes = [0] * self._site_count
        for object_id in query.object_ids:
            site = self._assignment.get(object_id)
            if site is not None:
                votes[site] += 1
        best = 0
        for site in range(1, self._site_count):
            if votes[site] > votes[best]:
                best = site
        return best

    #: A partitioner is a kernel router: calling it routes one query.
    __call__ = site_of_query

    def sites_of_queries(
        self, columns: "TraceColumns", catalog: "ObjectCatalog"
    ) -> "numpy.ndarray":
        """:meth:`site_of_query` of every query of ``columns``, as one int array.

        The same integer majority vote, counted per site over the touches'
        ``catalog`` positions (:meth:`TraceColumns.positions`): ids that no
        site owns or that ``catalog`` lacks cast no vote, and ties (no votes
        at all included) go to the lowest site.
        """
        import numpy

        owners = [self._assignment.get(oid, -1) for oid in catalog.object_ids] + [-1]
        owner = numpy.array(owners, numpy.int32).take(columns.positions(catalog)[1])
        offsets, tally = columns.query_object_offsets, numpy.zeros(len(owner) + 1, numpy.int32)
        best = top = numpy.zeros(len(offsets) - 1, numpy.int32)
        for site in range(self._site_count):
            numpy.cumsum(owner == site, dtype=numpy.int32, out=tally[1:])
            votes = tally[offsets[1:]] - tally[offsets[:-1]]
            best, top = numpy.where(votes > top, site, best), numpy.maximum(top, votes)
        return best


def _affinity_assignment(
    object_ids: Sequence[int], site_count: int, query_counts: Mapping[int, int]
) -> Dict[int, int]:
    """Greedy load-balanced assignment: hottest objects first, least-loaded site.

    Objects are ranked by query-touch count (ties by id, so the result is
    deterministic); each is assigned to the site with the smallest
    accumulated count (ties to the lowest site index).
    """
    ranked = sorted(object_ids, key=lambda oid: (-query_counts.get(oid, 0), oid))
    load = [0] * site_count
    assignment: Dict[int, int] = {}
    for object_id in ranked:
        site = min(range(site_count), key=lambda s: (load[s], s))
        assignment[object_id] = site
        load[site] += query_counts.get(object_id, 0)
    return assignment
