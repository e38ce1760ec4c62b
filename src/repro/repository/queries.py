"""Query specifications.

Each user query ``q`` in Delta is a read-only, SQL-like query that accesses a
set of data objects ``B(q)``, has a network shipping cost ``nu(q)``
(proportional to the size of its result set) and an optional tolerance for
staleness ``t(q)``: the answer must reflect every update on the accessed
objects except those that arrived within the last ``t(q)`` time units.

The decision framework never inspects query text; the semantic mapping from a
SQL string to ``B(q)`` is performed up front by the workload substrate (for
astronomy workloads, by intersecting the query's sky region with the object
partitioning -- see :mod:`repro.sky`).  The optional :attr:`Query.sql` and
:attr:`Query.template` fields carry provenance for inspection and examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional

from repro._compat import SlottedFrozenPickle


class QueryTemplate:
    """Names of the query shapes observed in the SDSS trace (Section 6.1)."""

    __slots__ = ()

    RANGE = "range"
    SPATIAL_JOIN = "spatial_join"
    SELECTION = "selection"
    AGGREGATION = "aggregation"
    FULL_SCAN = "full_scan"

    ALL = (RANGE, SPATIAL_JOIN, SELECTION, AGGREGATION, FULL_SCAN)


@dataclass(frozen=True, slots=True, init=False)
class Query(SlottedFrozenPickle):
    """A single read-only query event.

    Attributes
    ----------
    query_id:
        Monotonically increasing identifier, unique within a trace.
    object_ids:
        The set ``B(q)`` of data objects the query accesses.
    cost:
        Network traffic cost (MB) of shipping the query to the server --
        the size of its result set.
    timestamp:
        Event-sequence time at which the query arrives at the cache.
    tolerance:
        Tolerance for staleness ``t(q)`` in time units.  ``0`` means the
        answer must include every update that has arrived; ``float('inf')``
        means any cached copy is acceptable.
    template:
        The query shape (range / join / selection / aggregation), provenance
        only.
    sql:
        Optional illustrative SQL text, provenance only.
    """

    query_id: int
    object_ids: FrozenSet[int]
    cost: float
    timestamp: float
    tolerance: float = 0.0
    template: str = QueryTemplate.SELECTION
    sql: Optional[str] = None

    def __init__(
        self,
        query_id: int,
        object_ids: Iterable[int],
        cost: float,
        timestamp: float,
        tolerance: float = 0.0,
        template: str = QueryTemplate.SELECTION,
        sql: Optional[str] = None,
    ) -> None:
        # Hand-written: the checks, then each field stored through its slot.
        if not isinstance(object_ids, frozenset):
            object_ids = frozenset(object_ids)
        if not object_ids:
            raise ValueError(f"query {query_id} accesses no objects")
        if cost < 0:
            raise ValueError(f"query {query_id} has negative cost {cost!r}")
        if tolerance < 0:
            raise ValueError(f"query {query_id} has negative tolerance {tolerance!r}")
        if template not in QueryTemplate.ALL:
            raise ValueError(f"query {query_id} has unknown template {template!r}")
        _set_id(self, query_id)
        _set_object_ids(self, object_ids)
        _set_cost(self, cost)
        _set_timestamp(self, timestamp)
        _set_tolerance(self, tolerance)
        _set_template(self, template)
        _set_sql(self, sql)

    @property
    def shipping_cost(self) -> float:
        """Alias for :attr:`cost` matching the paper's ``nu(q)`` notation."""
        return self.cost

    @property
    def accessed_objects(self) -> FrozenSet[int]:
        """Alias for :attr:`object_ids` matching the paper's ``B(q)`` notation."""
        return self.object_ids

    @property
    def staleness_threshold(self) -> float:
        """Newest update timestamp the answer must still reflect.

        The single definition of the currency rule: an update interacts with
        this query iff ``update.timestamp <= staleness_threshold``.  Both
        :meth:`requires_update` and the policy-layer fast paths derive from
        it so the inequality can never diverge.
        """
        return self.timestamp - self.tolerance

    def requires_update(self, update_timestamp: float) -> bool:
        """Whether an update at ``update_timestamp`` must be reflected in the answer.

        Given the query's tolerance ``t(q)``, updates that arrived within the
        last ``t(q)`` time units (relative to the query's own timestamp) may be
        omitted; everything older must be incorporated.
        """
        return update_timestamp <= self.staleness_threshold

    def touches(self, object_id: int) -> bool:
        """Whether the query accesses ``object_id``."""
        return object_id in self.object_ids


_set_id, _set_object_ids, _set_cost, _set_timestamp, _set_tolerance, _set_template, _set_sql = (
    Query.__dict__[name].__set__ for name in Query.__dataclass_fields__
)


class QueryIdAllocator:
    """Hands out unique query identifiers for trace generators."""

    __slots__ = ("_counter",)

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def next_id(self) -> int:
        """Return the next unused query id."""
        return next(self._counter)

    def __iter__(self) -> Iterator[int]:  # pragma: no cover - convenience
        return self._counter


def total_query_cost(queries: Iterable[Query]) -> float:
    """Sum of shipping costs over an iterable of queries.

    This is exactly the traffic the ``NoCache`` yardstick pays, so it doubles
    as a quick upper-bound sanity check in tests and reports.
    """
    return sum(query.cost for query in queries)
