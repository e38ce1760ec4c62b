"""Benefit: the exponential-smoothing greedy baseline (Section 5).

Benefit divides the event sequence into windows of ``delta`` events.  During
a window it behaves like a conventional dynamic-data cache: updates for
resident objects are shipped eagerly as they arrive (the base class's
ship-on-arrival :meth:`~repro.core.policy.BaseCachePolicy.on_update`), so
queries fully covered by resident objects are answered at the cache,
everything else is shipped.

At each window boundary it computes, for every object, the *benefit* the
object accrued (or would have accrued) during the closing window:

* resident objects: query traffic saved (each cache-answered query's cost is
  split among the objects it accesses in proportion to their sizes -- the
  share rule :meth:`~repro.core.policy.BaseCachePolicy.credit_query_shares`,
  which SOptimal applies to the whole trace) minus the update traffic shipped
  for the object;
* non-resident objects: the query traffic they *would* have saved minus the
  update traffic they *would* have caused, minus their load cost.

The forecast ``mu_i = (1 - alpha) * mu_{i-1} + alpha * b_{i-1}`` is smoothed
exponentially; objects with positive forecasts are ranked in decreasing order
and greedily loaded until the cache is full (already-resident objects keep
their slot for free; resident objects that fall off the list are evicted to
make room).

The paper uses Benefit as the stand-in for heuristics common in commercial
dynamic-data caches and online view materialisation, and shows it scales
poorly on evolving scientific workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.decoupling import QueryOutcome
from repro.core.policy import BaseCachePolicy
from repro.network.link import NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update

if TYPE_CHECKING:
    import numpy as np


@dataclass
class BenefitConfig:
    """Configuration of the Benefit policy."""

    #: Window size delta, in events (the paper's default is 1000).
    window_size: int = 1000
    #: Exponential smoothing parameter alpha in [0, 1].
    alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


class BenefitPolicy(BaseCachePolicy):
    """The window-based, exponentially smoothed greedy heuristic."""

    name = "benefit"

    def __init__(
        self,
        repository: Repository,
        capacity: float,
        link: NetworkLink,
        config: Optional[BenefitConfig] = None,
    ) -> None:
        import numpy as np

        super().__init__(repository, capacity, link)
        self._config = config or BenefitConfig()
        self._window_events = 0
        self._window_index = 0
        #: Per-object window accounting: query cost shares attributable to
        #: the object (saved if resident), update traffic addressed to it.
        self._query_share: Dict[int, float] = {}
        self._update_cost: Dict[int, float] = {}
        #: The catalogue's ids, and each one's exponentially smoothed benefit
        #: forecast at its catalogue position.
        self._ids = repository.catalog.object_ids
        self._forecast = np.zeros(len(self._ids))
        self._current_time = 0.0

    @property
    def config(self) -> BenefitConfig:
        """The policy's configuration."""
        return self._config

    @property
    def window_index(self) -> int:
        """Number of completed windows."""
        return self._window_index

    def forecast_of(self, object_id: int) -> float:
        """Current smoothed benefit forecast of an object (0 if unseen)."""
        known = object_id in self._repository.catalog
        return float(self._forecast[self._ids.index(object_id)]) if known else 0.0

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Eagerly ship updates for resident objects; account the traffic."""
        self._current_time = update.timestamp
        super().on_update(update)
        object_id = update.object_id
        self._update_cost[object_id] = self._update_cost.get(object_id, 0.0) + update.cost
        self._tick_window()

    def on_query(self, query: Query) -> QueryOutcome:
        """Answer from cache when possible, otherwise ship the query."""
        self.note_query(query)
        self._current_time = query.timestamp
        answered = self.cache_satisfies(query)
        if answered:
            self.record_cache_answer(query)
            outcome = QueryOutcome(query.query_id, True)
        else:
            cost = self.ship_query(query)
            outcome = QueryOutcome(query.query_id, False, cost)
        # Resident objects are only credited for queries the cache *actually*
        # answered (that is the traffic they demonstrably saved).  Non-resident
        # objects are credited hypothetically for every query touching them --
        # the heuristic cannot know whether the query would have been a cache
        # answer had the object been resident, so it assumes the best.  This
        # optimistic-load / realistic-credit asymmetry is exactly what makes
        # Benefit-style heuristics chase evolving hotspots (Section 5).
        self.credit_query_shares(query, self._query_share, () if answered else self._store)
        self._tick_window()
        return outcome

    # ------------------------------------------------------------------
    # Window accounting
    # ------------------------------------------------------------------
    def _tick_window(self) -> None:
        self._window_events += 1
        if self._window_events >= self._config.window_size:
            sums = (
                [window.get(oid, 0.0) for oid in self._ids]
                for window in (self._query_share, self._update_cost)
            )
            self.close_window(*sums, self._current_time)
            self._query_share.clear()
            self._update_cost.clear()

    def close_window(
        self, query_share: Sequence[float], update_cost: Sequence[float], now: float
    ) -> "np.ndarray":
        """Close the window: compute benefits, update forecasts, re-plan the cache.

        Takes the window's per-object sums in catalogue-position order and
        the time of its last event, at which objects load: the per-event
        hooks' own sums, or those a batched replay (:mod:`repro.sim.batched`)
        folded.  Every forecast moves at once, elementwise.  Returns the
        resident set it leaves, laid out as :meth:`resident_mask`.
        """
        import numpy as np

        alpha = self._config.alpha
        sizes = self._repository.object_sizes()
        resident = self.resident_mask()
        benefit = np.subtract(query_share, update_cost)
        benefit = np.where(resident[:-1], benefit, benefit - sizes)
        self._forecast = (1.0 - alpha) * self._forecast + alpha * benefit
        self._window_events = 0
        self._window_index += 1
        self._current_time = now
        return self._replan_cache(sizes, resident)

    def _replan_cache(self, sizes: Sequence[float], resident: "np.ndarray") -> "np.ndarray":
        """Greedily (re)build the cached set from positive forecasts; returns its mask."""
        forecast = self._forecast.tolist()
        positive = (self._forecast > 0).nonzero()[0].tolist()
        ranked = sorted(positive, key=forecast.__getitem__, reverse=True)
        store, ids = self.store, self._ids
        target, used, room = [], 0.0, store.capacity + 1e-9
        for position in ranked:
            size = sizes[position]
            if used + size <= room:
                target.append(position)
                used += size

        # Evict residents that fell out of the target set.
        kept = {ids[position] for position in target}
        for object_id in list(store.resident_ids()):
            if object_id not in kept:
                self.evict_object(object_id)

        # Load target objects that are not resident yet (paying load costs).
        resident[:] = False
        for position in target:
            object_id = ids[position]
            if object_id not in store and store.fits(sizes[position]):
                self.load_object(object_id, self._current_time)
            resident[position] = object_id in store
        return resident

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters including window progress."""
        data = super().stats()
        data["windows_completed"] = float(self._window_index)
        data["positive_forecasts"] = float((self._forecast > 0).sum())
        return data
