"""Cache-policy interface and shared bookkeeping.

A *policy* is the decision-making brain of the middleware cache: it reacts to
the interleaved stream of updates (arriving at the repository) and queries
(arriving at the cache), decides which data-communication mechanism to use,
and charges all resulting traffic to its :class:`repro.network.link.NetworkLink`.

:class:`BaseCachePolicy` implements the bookkeeping every concrete policy
needs -- a capacity-constrained :class:`repro.cache.store.CacheStore`,
helpers for loading/evicting objects and shipping queries with correct cost
accounting, and the size-proportional *share rule* Benefit and SOptimal
credit query traffic by -- so the concrete policies (VCover, Benefit, the
yardsticks) contain only their decision logic (the rule over trace columns
is :func:`fold_credit`).  Its freshness is *eager*:
an update to a resident copy ships on arrival, so resident copies are always
current.  Only VCover decouples an object from its updates, and only
:class:`repro.core.vcover.VCoverPolicy` keeps outstanding updates.

The base class follows an explicit *observe/decide* contract: everything a
policy learns about the workload flows through its
:class:`repro.cache.observer.PolicyObserver` (see :meth:`BaseCachePolicy.note_query`
and the notifications wired into :meth:`BaseCachePolicy.ship_query`,
:meth:`BaseCachePolicy.record_cache_answer` and :meth:`BaseCachePolicy.on_update`),
while the mechanism helpers below carry only decisions; see
``docs/policies.md`` for the full contract.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Container, Dict, FrozenSet, List

from repro.cache.observer import PolicyObserver
from repro.cache.store import CacheStore
from repro.core.decoupling import QueryOutcome
from repro.network.link import NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update
from repro.workload.trace import Trace

if TYPE_CHECKING:
    import numpy as np


class BaseCachePolicy(abc.ABC):
    """The policy interface plus the residency / eager-freshness bookkeeping.

    A concrete policy supplies :meth:`on_query` (and overrides the eager
    :meth:`on_update` if it decouples objects from their updates).

    Parameters
    ----------
    repository:
        The server the cache talks to.
    capacity:
        Cache capacity in MB (``float('inf')`` for unbounded yardsticks).
    link:
        Traffic ledger all costs are charged to.
    """

    #: Human-readable policy name used in reports and experiment tables.
    name: str = "abstract"

    def __init__(self, repository: Repository, capacity: float, link: NetworkLink) -> None:
        self._repository = repository
        self._link = link
        self._store = CacheStore(capacity)
        #: Catalogue sizes clamped away from zero, the weights of
        #: :meth:`credit_query_shares` (the catalogue never changes, so once).
        self._share_sizes: Dict[int, float] = {
            object_id: max(size, 1e-9) for object_id, size in repository.catalog.sizes().items()
        }
        #: The observation half of the observe/decide contract: every
        #: workload fact the policy learns (queries, updates, answers,
        #: shipped queries) is recorded here and nowhere else.
        self._observer = PolicyObserver()

    # ------------------------------------------------------------------
    # Replay hooks (the replay kernel is their only caller)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_query(self, query: Query) -> QueryOutcome:
        """Answer a query, charging all traffic to the policy's link."""

    def prepare(self, trace: Trace) -> None:
        """Optional offline preparation before a run (used by SOptimal).

        Online policies must not inspect the future; the default
        implementation does nothing.
        """

    def finalize(self) -> None:
        """Optional hook called after the last event of a run."""

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def repository(self) -> Repository:
        """The server repository."""
        return self._repository

    @property
    def link(self) -> NetworkLink:
        """The policy's traffic ledger."""
        return self._link

    @property
    def store(self) -> CacheStore:
        """The policy's cache store."""
        return self._store

    @property
    def observer(self) -> PolicyObserver:
        """The policy's workload observer (the observation half)."""
        return self._observer

    @property
    def total_traffic(self) -> float:
        """Total traffic the policy has charged so far."""
        return self._link.total_cost

    def is_resident(self, object_id: int) -> bool:
        """Whether an object is currently cached."""
        return object_id in self._store

    def resident_objects(self) -> List[int]:
        """Ids of all currently cached objects."""
        return sorted(self._store.resident_ids())

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def note_query(self, query: Query) -> None:
        """Report a query arrival to the observer.

        Concrete policies call this once at the top of :meth:`on_query`;
        the answer itself is reported by the mechanism helpers
        (:meth:`ship_query` / :meth:`record_cache_answer`).
        """
        self._observer.note_query(query)

    # ------------------------------------------------------------------
    # Eager freshness
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Observe the update; ship it on arrival if its object is resident.

        The repository has already ingested the update (the replay kernel
        guarantees the ordering).  The shipped update leaves the resident copy
        at the server's version, so an eager policy's resident copies are
        always current.
        """
        self._observer.note_update(update)
        object_id = update.object_id
        if object_id in self._store:
            self._link.ship_update(update.cost)
            self._store.mark_fresh(object_id, self._repository.object_version(object_id))

    def interacting_updates(self, query: Query, object_id: int) -> List[Update]:
        """Updates on ``object_id`` the query must see and the copy lacks: none."""
        return []

    def cache_satisfies(self, query: Query) -> bool:
        """Whether the cached copies alone satisfy the query (all resident)."""
        return self._store.contains_all(query.object_ids)

    def resident_mask(self) -> np.ndarray:
        """Residency by catalogue position, plus the never-resident unknown-id slot."""
        import numpy as np

        catalog, store = self._repository.catalog, self._store
        resident = np.zeros(len(catalog) + 1, dtype=bool)
        resident[catalog.positions(np.fromiter(store, dtype=np.int64, count=len(store)))] = True
        return resident

    def share_weights(self) -> np.ndarray:
        """The share rule's weights by catalogue position (1.0 in the unknown-id slot)."""
        import numpy as np

        sizes = self._share_sizes
        return np.array([sizes[oid] for oid in self._repository.catalog.object_ids] + [1.0])

    def share_total(self, footprint: FrozenSet[int]) -> float:
        """The share rule's denominator: weights summed in the iteration order
        of a query's ``object_ids`` (CPython >= 3.12 compensates a float
        ``sum``, so this expression -- not a vectorised fold -- is the rule).
        """
        return sum(map(self._share_sizes.__getitem__, footprint))

    def credit_query_shares(
        self, query: Query, credit: Dict[int, float], skip: Container[int] = ()
    ) -> None:
        """The share rule: add each object's share of ``query.cost`` to ``credit``.

        A share is ``cost * size / total``, with catalogue sizes clamped at
        1e-9 and ``total`` from :meth:`share_total`; objects are credited in
        ``query.object_ids`` order, except those in ``skip``.
        """
        sizes = self._share_sizes
        total = self.share_total(query.object_ids)
        cost = query.cost
        for object_id in query.object_ids:
            if object_id not in skip:
                credit[object_id] = credit.get(object_id, 0.0) + cost * sizes[object_id] / total

    # ------------------------------------------------------------------
    # Mechanism helpers (all charge the link)
    # ------------------------------------------------------------------
    def ship_query(self, query: Query) -> float:
        """Ship a query to the server and charge its cost."""
        cost = self._repository.answer_query(query)
        self._link.ship_query(cost)
        self._observer.note_shipped_query(query)
        return cost

    def load_object(self, object_id: int, timestamp: float, charge: bool = True) -> float:
        """Load a full snapshot of an object into the cache.

        The snapshot reflects every update the server has applied, so the
        object arrives fresh.  Returns the load cost (charged unless
        ``charge`` is False, which the Replica yardstick uses because the
        paper ignores its load costs).
        """
        snapshot, size = self._repository.load_object(object_id, timestamp)
        self._store.insert(
            object_id, size=size, version=snapshot.version, timestamp=timestamp
        )
        if charge:
            self._link.load_object(size)
            return size
        return 0.0

    def evict_object(self, object_id: int) -> float:
        """Evict an object from the cache; returns the freed capacity."""
        return self._store.evict(object_id).size

    def record_cache_answer(self, query: Query) -> None:
        """Record a cache hit on every object the query touches."""
        self._store.record_hits(query.object_ids, query.timestamp)
        self._observer.note_cache_answer(query)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Summary counters for reports."""
        return {
            "queries_seen": float(self._observer.queries_seen),
            "updates_seen": float(self._observer.updates_seen),
            "total_traffic": self.total_traffic,
            **{f"store_{key}": value for key, value in self._store.stats().items()},
        }


# ----------------------------------------------------------------------
# The share rule over columns (batched Benefit windows, SOptimal's prepare)
# ----------------------------------------------------------------------
def share_terms(
    weights: np.ndarray, positions: np.ndarray, costs: np.ndarray, totals: np.ndarray,
    footprint: np.ndarray,
) -> np.ndarray:  # fmt: skip
    """:meth:`BaseCachePolicy.credit_query_shares` per touch, vectorised: each
    query's ``footprint`` touches (at ``positions``) get ``cost * weight / total``."""
    import numpy as np

    return np.repeat(costs, footprint) * weights[positions] / np.repeat(totals, footprint)


def fold_credit(
    sums: np.ndarray, weights: np.ndarray, update_positions: np.ndarray, update_costs: np.ndarray,
    positions: np.ndarray, costs: np.ndarray, totals: np.ndarray, footprint: np.ndarray,
) -> None:  # fmt: skip
    """Add a batch of events to per-position ``sums`` (query share, update cost).

    Unbuffered ``np.add.at`` adds each position's :func:`share_terms` and
    update costs in event order, as the per-event hooks do: same bits.
    """
    import numpy as np

    query_share, update_cost = sums
    np.add.at(update_cost, update_positions, update_costs)
    np.add.at(query_share, positions, share_terms(weights, positions, costs, totals, footprint))
