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
cost have been paid for it, without keeping a per-object counter).  The
candidates are then admitted together, in the order they were emitted (the
*lazy* ``A_obj`` of Section 4): each asks the eviction policy for victims, and
the policy ranks loaded objects only, so candidates of one query never evict
each other and a candidate the policy cannot make room for is not loaded.

A deterministic, counter-based variant is provided for the ablation study
(E8 in ``docs/experiments.md``): it maintains an explicit accumulated-cost
counter per object and promotes the object once the counter exceeds its load
cost -- the behaviour the randomized mechanism simulates in expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.base import EvictionPolicy
from repro.cache.gds import GreedyDualSize
from repro.cache.store import CacheStore
from repro.repository.queries import Query


@dataclass(frozen=True, slots=True)
class LoadDecision:
    """Outcome of one LoadManager invocation."""

    #: Objects to load (in order).
    load_object_ids: Tuple[int, ...] = ()
    #: Objects to evict first (in order).
    evict_object_ids: Tuple[int, ...] = ()


#: The decision of every invocation that loads nothing (shared: immutable).
_LOAD_NOTHING = LoadDecision()


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

    __slots__ = (
        "_store",
        "_policy",
        "_load_cost_of",
        "_rng",
        "_randomized",
        "_accumulated",
        "_invocations",
        "_candidates_emitted",
    )

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
    def consider(self, query: Query) -> LoadDecision:
        """Process one shipped query and decide which objects to load.

        Returns a :class:`LoadDecision`; the caller applies it (charging load
        costs, updating the store, notifying the eviction policy).
        """
        self._invocations += 1
        missing = sorted(self._store.missing(query.object_ids))
        if not missing:
            return _LOAD_NOTHING

        remaining = query.cost
        if len(missing) > 1:  # shuffling one object would draw nothing
            self._rng.shuffle(missing)
        candidates: List[Tuple[int, float]] = []
        for object_id in missing:
            if remaining <= 0:
                break
            load_cost = self._load_cost_of(object_id)
            if load_cost <= 0:
                continue
            if not self._store.can_ever_fit(load_cost):
                # The object cannot fit even in an empty cache; never a candidate.
                continue
            # The query's cost is attributed to the object up to its load cost.
            attributed = min(remaining, load_cost)
            remaining -= attributed
            if self._randomized:
                # Lines 27-35 of Figure 6: a partially covered object is a
                # candidate with probability attributed / load cost.
                emit = attributed >= load_cost or self._rng.random() < attributed / load_cost
            else:
                credit = self._accumulated.get(object_id, 0.0) + attributed
                emit = credit >= load_cost
                self._accumulated[object_id] = 0.0 if emit else credit
            if emit:
                self._candidates_emitted += 1
                candidates.append((object_id, load_cost))
        return self._admit(candidates) if candidates else _LOAD_NOTHING

    def _admit(self, candidates: List[Tuple[int, float]]) -> LoadDecision:
        """Make room for each ``(object_id, size)`` candidate in emit order.

        Victims come from ``policy.victim`` over the residents not yet chosen
        plus the candidates admitted so far; the policy's call sequence is part
        of the decision (GDS pops its heap as it looks), so it is asked exactly
        this way.  A candidate the policy cannot make room for is not loaded.
        """
        loads: List[int] = []
        evictions: List[int] = []
        free = self._store.free
        resident = self._store.resident_ids()
        sizes = {record.object_id: record.size for record in self._store.records()}
        for object_id, size in candidates:
            survivors = set(resident)
            victims: List[int] = []
            freed = 0.0
            while size > free + freed + 1e-9:
                victim = self._policy.victim(survivors)
                if victim is None:
                    break
                survivors.discard(victim)
                victims.append(victim)
                freed += sizes[victim]
            if size > free + freed + 1e-9:
                continue
            for victim in victims:
                resident.discard(victim)
                free += sizes.pop(victim)
            free -= size
            resident.add(object_id)
            sizes[object_id] = size
            loads.append(object_id)
            evictions.extend(victims)
        return LoadDecision(load_object_ids=tuple(loads), evict_object_ids=tuple(evictions))

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
        """Refresh the eviction policy for every resident object a cache answer touched."""
        object_ids, store = query.object_ids, self._store
        if store.contains_all(object_ids):
            self._policy.on_hits(object_ids, query.timestamp)
        else:
            self._policy.on_hits([oid for oid in object_ids if oid in store], query.timestamp)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for reports and tests."""
        return {
            "invocations": float(self._invocations),
            "candidates_emitted": float(self._candidates_emitted),
        }
