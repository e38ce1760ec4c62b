"""The data decoupling problem: shared decision and outcome types.

The decoupling problem (Section 3) asks, for an online sequence of queries
and updates: which objects to load, which to evict, which queries to ship,
and which updates to ship -- so that the cache never exceeds its capacity,
every query is answered within its tolerance for staleness, and total network
traffic is minimised.

Every algorithm in :mod:`repro.core` answers a query with a
:class:`QueryOutcome` that records *how* it was satisfied and what traffic it
caused, so the simulator and the tests can audit both cost accounting and
currency guarantees uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro._compat import SlottedFrozenPickle


class QueryAction:
    """How a query was ultimately answered (:attr:`QueryOutcome.action`)."""

    __slots__ = ()

    #: Answered entirely from the cache (possibly after shipping updates).
    ANSWERED_AT_CACHE = "answered_at_cache"
    #: Shipped to the repository and answered there.
    SHIPPED_TO_SERVER = "shipped_to_server"

    ALL = (ANSWERED_AT_CACHE, SHIPPED_TO_SERVER)


@dataclass(slots=True)
class QueryOutcome:
    """The audited result of processing one query, built once after the decision.

    Attributes
    ----------
    query_id:
        The query processed.
    answered_at_cache:
        Answered from the cache (possibly after shipping updates), else shipped.
    query_shipping_cost:
        Traffic charged for shipping the query (0 when answered at cache).
    update_shipping_cost:
        Traffic charged for updates shipped in order to answer this query.
    load_cost:
        Traffic charged for objects loaded as a consequence of this query
        (VCover's LoadManager works in the background of a shipped query, so
        the cost is attributed to the triggering query for accounting).
    loaded_objects / evicted_objects:
        Objects loaded into / evicted from the cache while handling the query.
    shipped_updates:
        Ids of updates shipped while handling the query.
    """

    query_id: int
    answered_at_cache: bool
    query_shipping_cost: float = 0.0
    update_shipping_cost: float = 0.0
    load_cost: float = 0.0
    loaded_objects: Tuple[int, ...] = ()
    evicted_objects: Tuple[int, ...] = ()
    shipped_updates: Tuple[int, ...] = ()

    @property
    def action(self) -> str:
        """How the query was answered, one of :class:`QueryAction`."""
        if self.answered_at_cache:
            return QueryAction.ANSWERED_AT_CACHE
        return QueryAction.SHIPPED_TO_SERVER

    @property
    def total_cost(self) -> float:
        """Total traffic attributed to this query."""
        return self.query_shipping_cost + self.update_shipping_cost + self.load_cost


@dataclass(frozen=True, slots=True)
class DecouplingDecision(SlottedFrozenPickle):
    """A static decoupling: which objects live at the cache.

    Produced by the offline analyses (:mod:`repro.core.offline`) and by
    SOptimal; online algorithms produce a decision implicitly through their
    load/evict behaviour.
    """

    cached_objects: FrozenSet[int]
    #: Estimated total traffic of the decision over the analysed sequence.
    estimated_cost: float

    def caches(self, object_id: int) -> bool:
        """Whether the decision keeps ``object_id`` at the cache."""
        return object_id in self.cached_objects
