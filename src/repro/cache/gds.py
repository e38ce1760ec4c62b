"""Greedy-Dual-Size (GDS) eviction.

GDS (Cao & Irani, USENIX 1997) is the object-caching algorithm the paper's
LoadManager builds on.  Each resident object ``o`` carries a credit

    H(o) = L + cost(o) / size(o)

where ``L`` is a global inflation value equal to the credit of the most
recently evicted object.  On a hit the credit is refreshed to the current
``L + cost/size``; the eviction victim is always the object with the smallest
credit.  The inflation term is what gives GDS its recency behaviour without
explicit timestamps, while the ``cost/size`` term prefers keeping objects that
are expensive to re-fetch per byte of cache they occupy.

For Delta the retrieval cost of an object equals its size (loading transfers
the whole object), and :meth:`repro.core.load_manager.LoadManager.note_load`
passes ``cost=size``: every credit is ``L + 1``, so GDS evicts in recency
order.  A cache answer refreshes every object it read in one
:meth:`GreedyDualSize.on_hits` walk.  :meth:`GreedyDualSize.boost_cost` is
the hook that would feed attributed query shipping cost into the cost term;
nothing calls it yet.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.base import EvictionPolicy, PolicyIntrospectionError, registry


class GreedyDualSize(EvictionPolicy):
    """Greedy-Dual-Size eviction policy.

    Implementation notes: credits are kept in a dict and a lazily filtered
    heap (entries are invalidated rather than removed, the standard idiom for
    priority queues with updatable keys).
    """

    def __init__(self) -> None:
        self._inflation = 0.0
        self._credits: Dict[int, float] = {}
        self._costs: Dict[int, float] = {}
        self._sizes: Dict[int, float] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    def on_load(self, object_id: int, size: float, cost: float, timestamp: float) -> None:
        if size <= 0:
            raise ValueError(f"object {object_id} has non-positive size {size!r}")
        self._sizes[object_id] = size
        self._costs[object_id] = cost
        # A loaded object starts at the credit a hit would give it.
        self.on_hits((object_id,), timestamp)

    def on_hit(self, object_id: int, timestamp: float) -> None:
        self.on_hits((object_id,), timestamp)

    def on_hits(self, object_ids: Iterable[int], timestamp: float) -> None:
        """Reset each object's credit to ``L + cost/size``, in iteration order."""
        inflation, costs, sizes, credits = self._inflation, self._costs, self._sizes, self._credits
        heap, counter = self._heap, self._counter
        for object_id in object_ids:
            size = sizes.get(object_id)
            if size is None:
                raise KeyError(f"object {object_id} is not tracked by GDS")
            credit = inflation + costs[object_id] / size
            credits[object_id] = credit
            heapq.heappush(heap, (credit, next(counter), object_id))

    def on_evict(self, object_id: int) -> None:
        credit = self._credits.pop(object_id, None)
        self._sizes.pop(object_id, None)
        self._costs.pop(object_id, None)
        if credit is not None:
            # Inflate L to the evicted object's credit (never decrease).
            self._inflation = max(self._inflation, credit)

    def victim(self, resident: Iterable[int]) -> Optional[int]:
        resident_set = set(resident)
        if not resident_set:
            return None
        # Pop stale heap entries until a currently valid, resident one is found.
        while self._heap:
            credit, _, object_id = self._heap[0]
            current = self._credits.get(object_id)
            if current is None or abs(current - credit) > 1e-12 or object_id not in resident_set:
                heapq.heappop(self._heap)
                continue
            return object_id
        # Heap exhausted (all entries stale); fall back to a linear scan.
        # Sorted so equal-credit ties break on object id, not set order.
        candidates = [oid for oid in sorted(resident_set) if oid in self._credits]
        if not candidates:
            return None
        return min(candidates, key=lambda oid: self._credits[oid])

    def priority(self, object_id: int) -> float:
        try:
            return self._credits[object_id]
        except KeyError:
            raise PolicyIntrospectionError(
                f"GDS does not track object {object_id}"
            ) from None

    def reset(self) -> None:
        self._inflation = 0.0
        self._credits.clear()
        self._costs.clear()
        self._sizes.clear()
        self._heap.clear()

    # ------------------------------------------------------------------
    # Extra hooks used by the LoadManager
    # ------------------------------------------------------------------
    def boost_cost(self, object_id: int, extra_cost: float) -> None:
        """Increase the cost term of a tracked object and refresh its credit.

        The LoadManager uses this to credit an object with the shipping cost
        of queries that had to go to the server because the object was
        missing or newly loaded.
        """
        if object_id not in self._costs:
            raise KeyError(f"object {object_id} is not tracked by GDS")
        self._costs[object_id] += extra_cost
        self.on_hits((object_id,), 0.0)

    @property
    def inflation(self) -> float:
        """Current value of the global inflation term ``L``."""
        return self._inflation


registry.register("gds", GreedyDualSize)
