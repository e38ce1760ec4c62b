"""VCover: the online data-decoupling algorithm of Delta (Section 4).

VCover reacts to each arriving query as follows (Figure 3):

* if every object the query accesses is resident, the **UpdateManager**
  chooses -- via an incremental minimum-weight vertex cover of the internal
  interaction graph -- between shipping the query and shipping its outstanding
  interacting updates;
* otherwise the query is shipped to the server, and the **LoadManager**
  decides in the background whether any of the missing objects have become
  worth loading (randomized cost attribution, then admission through the
  configured eviction policy, Greedy-Dual-Size by default).

VCover alone *decouples* a cached object from its updates, so it alone keeps
*outstanding* updates (applied at the server, not yet at the cached copy),
indexed by id and bounded by their newest timestamp, and drops them when a
copy is evicted or reloaded; the other policies ship on arrival.

All traffic (query shipping, update shipping, object loading) is charged to
the policy's :class:`repro.network.link.NetworkLink`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.base import EvictionPolicy
from repro.core.decoupling import QueryOutcome
from repro.core.load_manager import LoadManager
from repro.core.policy import BaseCachePolicy
from repro.core.update_manager import UpdateManager
from repro.network.link import NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update


@dataclass
class VCoverConfig:
    """Configuration of the VCover policy."""

    #: Use the randomized loading mechanism (False = deterministic counters).
    randomized_loading: bool = True
    #: Seed for the LoadManager's randomness.
    seed: int = 17
    #: Eviction policy name for the LoadManager ("gds", "lru", "lfu", "landlord").
    eviction_policy: str = "gds"
    #: Preshipping (paper Section 4, discussion): proactively ship updates for
    #: resident objects that have recently answered queries, so future queries
    #: on them do not have to wait for update shipping.  Improves response
    #: time at the cost of potentially shipping updates that a cover would
    #: never have justified; network traffic can only go up.
    preship: bool = False
    #: An object qualifies for preshipping once it has served this many cache
    #: answers since being loaded.
    preship_min_hits: int = 1


def _make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by name (small local factory)."""
    from repro.cache.base import registry

    return registry.create(name)


class VCoverPolicy(BaseCachePolicy):
    """The VCover online decision policy."""

    name = "vcover"

    def __init__(
        self,
        repository: Repository,
        capacity: float,
        link: NetworkLink,
        config: Optional[VCoverConfig] = None,
    ) -> None:
        super().__init__(repository, capacity, link)
        #: Updates applied at the server but not yet at the cached copy,
        #: tracked only for resident objects, oldest first.
        self._outstanding: Dict[int, List[Update]] = {}
        #: The same updates indexed by update id, so a decision naming an
        #: update (e.g. a vertex-cover pick) resolves in O(1) instead of a
        #: scan over every resident object's outstanding list.
        self._outstanding_by_id: Dict[int, Update] = {}
        #: Upper bound on the newest outstanding timestamp per object,
        #: maintained on registration and dropped with the object.  Lets
        #: :meth:`interacting_updates` answer the common "query tolerates
        #: nothing, every outstanding update interacts" case without touching
        #: the per-update timestamps at all (removals may leave the bound
        #: stale-high, which only skips the shortcut, never falsifies it).
        self._outstanding_max_ts: Dict[int, float] = {}
        self._config = config or VCoverConfig()
        self._update_manager = UpdateManager()
        eviction = _make_eviction_policy(self._config.eviction_policy)
        self._load_manager = LoadManager(
            store=self.store,
            policy=eviction,
            # The load cost is the object's size at the server right now.
            load_cost_of=repository.object_size,
            rng=random.Random(self._config.seed),
            randomized=self._config.randomized_loading,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def update_manager(self) -> UpdateManager:
        """The UpdateManager (exposed for tests and diagnostics)."""
        return self._update_manager

    @property
    def load_manager(self) -> LoadManager:
        """The LoadManager (exposed for tests and diagnostics)."""
        return self._load_manager

    def outstanding_updates(self, object_id: int) -> List[Update]:
        """Outstanding (unshipped) updates for a resident object."""
        return list(self._outstanding.get(object_id, ()))

    def outstanding_update(self, update_id: int) -> Optional[Update]:
        """Look up one outstanding update by id (None if not outstanding)."""
        return self._outstanding_by_id.get(update_id)

    # ------------------------------------------------------------------
    # Lazy freshness: outstanding updates
    # ------------------------------------------------------------------
    def interacting_updates(self, query: Query, object_id: int) -> List[Update]:
        """Outstanding updates on ``object_id`` that ``query`` must see.

        These are the updates older than the query's tolerance window
        (``u.timestamp <= q.timestamp - t(q)``); newer outstanding updates may
        be ignored without violating the query's currency requirement.

        The common case -- an intolerant query replayed from a time-ordered
        trace, where every outstanding update is older than the query -- is
        answered from the per-object timestamp bound: the outstanding list
        itself, which the caller only reads.
        """
        pending = self._outstanding.get(object_id)
        if not pending:
            return []
        threshold = query.staleness_threshold
        newest = self._outstanding_max_ts.get(object_id)
        if newest is not None and newest <= threshold:
            return pending
        return [update for update in pending if update.timestamp <= threshold]

    def cache_satisfies(self, query: Query) -> bool:
        """Whether the cached copies alone satisfy the query's currency."""
        return super().cache_satisfies(query) and all(
            not self.interacting_updates(query, object_id) for object_id in query.object_ids
        )

    def ship_update(self, update: Update) -> float:
        """Ship one outstanding update to the cache and charge its cost.

        It leaves the outstanding list (the copy is fresh at the server version
        once none remain) and the interaction graph: a preshipped update would
        otherwise inflate later cover weights (a cover-picked one is already
        retired there, so that drop is a no-op).
        """
        object_id = update.object_id
        pending = self._outstanding.get(object_id)
        if not pending or update not in pending:
            raise ValueError(
                f"update {update.update_id} is not outstanding for object {object_id}"
            )
        pending.remove(update)
        self._outstanding_by_id.pop(update.update_id, None)
        self._link.ship_update(update.cost)
        if not pending:
            self._outstanding.pop(object_id, None)
            self._outstanding_max_ts.pop(object_id, None)
            if object_id in self._store:
                self._store.mark_fresh(object_id, self._repository.object_version(object_id))
        self._update_manager.forget_updates((update.update_id,))
        return update.cost

    def load_object(self, object_id: int, timestamp: float, charge: bool = True) -> float:
        """Load a fresh snapshot; it supersedes the object's outstanding updates."""
        cost = super().load_object(object_id, timestamp, charge)
        self._drop_outstanding(object_id)
        return cost

    def evict_object(self, object_id: int) -> float:
        """Evict an object and forget its outstanding updates."""
        freed = super().evict_object(object_id)
        self._drop_outstanding(object_id)
        return freed

    def _drop_outstanding(self, object_id: int) -> None:
        """Forget all outstanding updates of one object (evicted/reloaded)."""
        for update in self._outstanding.pop(object_id, ()):
            self._outstanding_by_id.pop(update.update_id, None)
        self._outstanding_max_ts.pop(object_id, None)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Record an update; it is outstanding against a resident (now stale) copy.

        With preshipping enabled, updates for recently used resident objects
        are pushed to the cache immediately instead of waiting for a query to
        justify them through the cover.
        """
        self._observer.note_update(update)
        object_id = update.object_id
        if self._store.mark_stale(object_id):
            self._outstanding.setdefault(object_id, []).append(update)
            self._outstanding_by_id[update.update_id] = update
            known = self._outstanding_max_ts.get(object_id)
            if known is None or update.timestamp > known:
                self._outstanding_max_ts[object_id] = update.timestamp
        if not self._config.preship:
            return
        record = self.store.get(update.object_id)
        if record is None or record.hits < self._config.preship_min_hits:
            return
        for outstanding in self.outstanding_updates(update.object_id):
            self.ship_update(outstanding)

    def on_query(self, query: Query) -> QueryOutcome:
        """Process one query per Figure 3; the in-cache path (UpdateManager) is inline."""
        self.note_query(query)
        if not self._store.contains_all(query.object_ids):
            return self._handle_missing(query)

        # Most in-cache queries touch no outstanding update: they decide on nothing.
        interacting: Dict[int, List[Update]] = {}
        outstanding = self._outstanding
        if not outstanding.keys().isdisjoint(query.object_ids):
            for object_id in query.object_ids:
                if object_id in outstanding and (
                    updates := self.interacting_updates(query, object_id)
                ):
                    interacting[object_id] = updates
        decision = self._update_manager.decide(query, interacting)

        # Ship every update the cover picked (they are now cost-justified).
        # The cover may pick updates beyond this query's own objects (vertices
        # that interact with earlier, still-active queries), so picks are
        # resolved through the policy's O(1) outstanding-update index rather
        # than by rebuilding a map over every resident object's updates.
        update_cost, shipped = 0.0, []
        for update_id in decision.ship_update_ids:
            update = self._outstanding_by_id.get(update_id)
            if update is not None:
                update_cost += self.ship_update(update)
                shipped.append(update_id)

        if decision.ship_query:
            query_cost = self.ship_query(query)
        else:
            query_cost = 0.0
            self.record_cache_answer(query)
            self._load_manager.note_hit(query)
        # Positional (field order), as below: a keyword call to a class packs a dict.
        return QueryOutcome(
            query.query_id, not decision.ship_query, query_cost, update_cost, 0.0, (), (),
            tuple(shipped),
        )  # fmt: skip

    # ------------------------------------------------------------------
    # Missing-object path: ship query, LoadManager in background
    # ------------------------------------------------------------------
    def _handle_missing(self, query: Query) -> QueryOutcome:
        cost = self.ship_query(query)
        decision = self._load_manager.consider(query)
        for object_id in decision.evict_object_ids:
            dropped = self._outstanding.get(object_id)
            self.evict_object(object_id)
            self._load_manager.note_evict(object_id)
            if dropped:
                self._update_manager.forget_updates(u.update_id for u in dropped)

        # Load ids were missing when the decision was taken, and an object
        # leaves no outstanding updates behind when it is evicted.
        load_cost = 0.0
        for object_id in decision.load_object_ids:
            size = self.load_object(object_id, query.timestamp)
            self._load_manager.note_load(object_id, size=size, timestamp=query.timestamp)
            load_cost += size
        return QueryOutcome(
            query.query_id, False, cost, 0.0, load_cost, decision.load_object_ids,
            decision.evict_object_ids,
        )  # fmt: skip

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Aggregated counters from the policy and both managers."""
        data = super().stats()
        data.update({f"update_manager_{k}": v for k, v in self._update_manager.stats().items()})
        data.update({f"load_manager_{k}": v for k, v in self._load_manager.stats().items()})
        return data
