"""The LoadManager module of VCover.

Invoked (conceptually "in the background") for queries that access at least
one object not resident in the cache.  Such queries have already been shipped
to the server; the LoadManager's job is to decide whether any of the missing
objects have become worth loading.

Following Figure 6 of the paper, the manager walks the missing objects of the
query in random order, attributing the query's shipping cost ``c = nu(q)`` to
them: an object whose load cost is fully covered by the remaining attribution
becomes a load candidate outright; the last, partially covered object becomes
a candidate with probability ``c / l(o)`` (randomized loading -- in
expectation an object is loaded only after shipping costs equal to its load
cost have been paid for it, without keeping a per-object counter).  Candidates
go through the *lazy* admission wrapper so that objects that would be loaded
only to be immediately evicted are skipped.

A deterministic, counter-based variant is provided for the ablation study
(E8 in ``docs/experiments.md``): it maintains an explicit accumulated-cost
counter per object and promotes the object once the counter exceeds its load
cost -- the behaviour the randomized mechanism simulates in expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.base import EvictionPolicy
from repro.cache.gds import GreedyDualSize
from repro.cache.lazy import LazyAdmission
from repro.cache.store import CacheStore
from repro.repository.queries import Query


@dataclass
class LoadDecision:
    """Outcome of one LoadManager invocation."""

    #: Objects to load (in order), with the size each will occupy.
    load_object_ids: List[int] = field(default_factory=list)
    #: Objects to evict first (in order).
    evict_object_ids: List[int] = field(default_factory=list)
    #: Load candidates that were considered but not admitted.
    skipped_object_ids: List[int] = field(default_factory=list)


class LoadManager:
    """Randomized, lazily admitted object loading (Figure 6).

    Parameters
    ----------
    store:
        The policy's cache store (read for capacity/residency; never mutated
        here -- the policy applies the returned decision).
    policy:
        The object caching algorithm ``A_obj`` (Greedy-Dual-Size by default).
    load_cost_of:
        Callback returning the *current* load cost of an object (its size at
        the server, including growth).
    rng:
        Source of randomness for the randomized loading; injected so runs are
        reproducible.
    randomized:
        When ``False`` the deterministic counter-based variant is used
        (ablation E8).
    """

    def __init__(
        self,
        store: CacheStore,
        policy: Optional[EvictionPolicy] = None,
        load_cost_of=None,
        rng: Optional[random.Random] = None,
        randomized: bool = True,
    ) -> None:
        if load_cost_of is None:
            raise ValueError("load_cost_of callback is required")
        self._store = store
        self._policy = policy or GreedyDualSize()
        self._lazy = LazyAdmission(self._policy, store)
        self._load_cost_of = load_cost_of
        self._rng = rng or random.Random(0)
        self._randomized = randomized
        #: Accumulated attributed cost per object (deterministic variant only).
        self._accumulated: Dict[int, float] = {}
        self._invocations = 0
        self._candidates_emitted = 0

    @property
    def eviction_policy(self) -> EvictionPolicy:
        """The underlying object caching algorithm."""
        return self._policy

    # ------------------------------------------------------------------
    # Decision making
    # ------------------------------------------------------------------
    def consider(self, query: Query, timestamp: float) -> LoadDecision:
        """Process one shipped query and decide which objects to load.

        Returns a :class:`LoadDecision`; the caller applies it (charging load
        costs, updating the store, notifying the eviction policy).
        """
        self._invocations += 1
        missing = sorted(self._store.missing(query.object_ids))
        if not missing:
            return LoadDecision()

        remaining = query.cost
        order = list(missing)
        self._rng.shuffle(order)
        for object_id in order:
            if remaining <= 0:
                break
            load_cost = self._load_cost_of(object_id)
            if load_cost <= 0:
                continue
            if not self._store.can_ever_fit(load_cost):
                # The object cannot fit even in an empty cache; never a candidate.
                continue
            if self._randomized:
                remaining = self._consider_randomized(object_id, load_cost, remaining, timestamp)
            else:
                remaining = self._consider_counted(object_id, load_cost, remaining, timestamp)

        plan = self._lazy.flush()
        return LoadDecision(
            load_object_ids=[intent.object_id for intent in plan.loads],
            evict_object_ids=list(plan.evictions),
            skipped_object_ids=[intent.object_id for intent in plan.skipped],
        )

    def _consider_randomized(
        self, object_id: int, load_cost: float, remaining: float, timestamp: float
    ) -> float:
        """Randomized loading (Lines 27-35 of Figure 6)."""
        if remaining >= load_cost:
            self._emit_candidate(object_id, load_cost, timestamp)
            return remaining - load_cost
        if self._rng.random() < remaining / load_cost:
            self._emit_candidate(object_id, load_cost, timestamp)
        return 0.0

    def _consider_counted(
        self, object_id: int, load_cost: float, remaining: float, timestamp: float
    ) -> float:
        """Deterministic counter-based variant (ablation)."""
        attributed = min(remaining, load_cost)
        self._accumulated[object_id] = self._accumulated.get(object_id, 0.0) + attributed
        if self._accumulated[object_id] >= load_cost:
            self._emit_candidate(object_id, load_cost, timestamp)
            self._accumulated[object_id] = 0.0
        return remaining - attributed

    def _emit_candidate(self, object_id: int, load_cost: float, timestamp: float) -> None:
        self._candidates_emitted += 1
        self._lazy.request(object_id, size=load_cost, cost=load_cost, timestamp=timestamp)

    # ------------------------------------------------------------------
    # Notifications from the policy
    # ------------------------------------------------------------------
    def note_load(self, object_id: int, size: float, timestamp: float) -> None:
        """Tell the eviction policy an object was actually loaded."""
        self._policy.on_load(object_id, size=size, cost=size, timestamp=timestamp)
        self._accumulated.pop(object_id, None)

    def note_evict(self, object_id: int) -> None:
        """Tell the eviction policy an object was evicted."""
        self._policy.on_evict(object_id)

    def note_hit(self, query: Query) -> None:
        """Refresh the eviction policy for every object a cache answer touched."""
        for object_id in query.object_ids:
            if object_id in self._store:
                self._policy.on_hit(object_id, query.timestamp)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for reports and tests."""
        return {
            "invocations": float(self._invocations),
            "candidates_emitted": float(self._candidates_emitted),
        }
