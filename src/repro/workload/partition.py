"""Partitioning one trace across a fleet of middleware caches.

The multi-cache topology (:mod:`repro.topology`) replays one interleaved
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

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.repository.queries import Query
from repro.workload.trace import QueryEvent, Trace, TraceStream, UpdateEvent

if TYPE_CHECKING:
    import numpy

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
        Number of sites to split across (>= 1).
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
        self._site_count = site_count
        self._strategy = strategy
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
        ``affinity`` strategy makes one streaming pass over its queries.
        """
        counts: Dict[int, int] = {}
        if strategy == "affinity":
            for query in trace.queries():
                for object_id in query.object_ids:
                    counts[object_id] = counts.get(object_id, 0) + 1
        return cls(object_ids, site_count, strategy=strategy, query_counts=counts)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def site_count(self) -> int:
        """Number of sites."""
        return self._site_count

    @property
    def strategy(self) -> str:
        """The assignment strategy."""
        return self._strategy

    @property
    def assignment(self) -> Dict[int, int]:
        """Object id to site index mapping (a copy)."""
        return dict(self._assignment)

    def objects_of_site(self, site: int) -> List[int]:
        """Sorted object ids owned by one site."""
        return sorted(
            object_id for object_id, owner in self._assignment.items() if owner == site
        )

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

    def sites_of_queries(self, columns: "TraceColumns") -> "numpy.ndarray":
        """:meth:`site_of_query` of every query of ``columns``, as one int array.

        The same integer majority vote: unowned ids cast no vote and ties
        (no votes at all included) go to the lowest site.
        """
        import numpy

        keys = numpy.array(sorted(self._assignment), dtype=numpy.int64)
        owners = numpy.array([self._assignment[oid] for oid in keys.tolist()], dtype=numpy.int64)
        ids, sites, queries = columns.query_object_ids, self._site_count, columns.query_count
        slot = numpy.minimum(numpy.searchsorted(keys, ids), len(keys) - 1)
        voting = keys[slot] == ids
        voter = numpy.repeat(numpy.arange(queries), numpy.diff(columns.query_object_offsets))
        ballot = voter[voting] * sites + owners[slot[voting]]
        return numpy.bincount(ballot, minlength=queries * sites).reshape(-1, sites).argmax(axis=1)

    def split(self, trace: Trace) -> List[Trace]:
        """Per-site traces: every update, plus the site's own queries.

        A convenience view for replaying one site in isolation as a
        single-cache run; a fleet replay (:func:`repro.sim.multicache.run_topology`)
        routes over the shared stream instead, with the partitioner itself as
        the kernel's router (one repository ingest per update).
        """
        per_site: List[List] = [[] for _ in range(self._site_count)]
        for event in trace:
            if isinstance(event, UpdateEvent):
                for events in per_site:
                    events.append(event)
            elif isinstance(event, QueryEvent):
                per_site[self.site_of_query(event.query)].append(event)
        return [Trace(events) for events in per_site]

    def describe(self) -> Dict[str, float]:
        """Summary statistics (objects per site) for reports."""
        data: Dict[str, float] = {
            "site_count": float(self._site_count),
            "objects": float(len(self._assignment)),
        }
        for site in range(self._site_count):
            data[f"site{site}_objects"] = float(len(self.objects_of_site(site)))
        return data


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
