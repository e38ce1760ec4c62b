"""Online regret against the offline-optimal decoupling, per epoch.

:class:`RegretTracker` measures how far a policy's *realised* traffic sits
above the hindsight optimum.  Epoch by epoch it builds the same weighted
bipartite interaction instance that :class:`repro.core.offline.OfflineDecoupler`
solves (Theorem 1: the optimal ship-query vs ship-update choice is a
minimum-weight vertex cover), but from *observed* interactions only:

* a query whose objects are all resident contributes a left vertex weighted
  by its shipping cost, and one edge per outstanding update the policy would
  have to resolve (the updates interacting with the query at its arrival,
  given the policy's resident set),
* a query over non-resident objects is *forced*: no decoupling schedule over
  the current cache contents can answer it locally, so its shipping cost is
  charged to both sides of the comparison (exactly as Theorem 1 scopes the
  subproblem to cached objects),
* the traffic the policy actually booked in the epoch is the "online" side
  of the comparison,
* at an epoch boundary the instance is solved exactly and

  ``regret = max(observed_traffic - (forced_cost + offline_cover_weight), 0.0)``.

The cover weight plus the forced cost is a *feasible-decoupling* lower bound
for the observed instance, so per-epoch regret is non-negative by
construction: any schedule that answers an in-instance query at the cache
must have shipped all of its interacting updates (that is exactly a vertex
cover of the instance), any schedule that ships it pays its left-vertex
weight, and forced queries cost the same on both sides.  The
``max(..., 0)`` clamp only absorbs floating-point noise from the max-flow
certificate.

Two honest caveats:

* the instance is built at query-*arrival* time from the policy's cache
  contents, so policies that ship updates eagerly (Replica, Benefit) or load
  objects are charged for traffic outside the instance -- regret
  deliberately penalises eagerness and loading, not just bad covers;
* each epoch is solved in isolation (cross-epoch interactions attach to the
  epoch in which the query arrives), so an update live across an epoch edge
  can be counted in two instances.

No run feeds the tracker today; ``tests/test_regret.py`` pins it on its own.
Its next user is ROADMAP item 17, which subscribes it to the replay kernel's
decision hook to split VCover's traffic into loads, forced queries and
observed-vs-offline decoupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.flow.vertex_cover import BipartiteCoverInstance, min_weight_vertex_cover

__all__ = ["EpochRegret", "RegretTracker"]


@dataclass(frozen=True)
class EpochRegret:
    """Observed vs offline-optimal traffic for one epoch."""

    #: Zero-based epoch index.
    index: int
    #: Traffic the policy actually booked during the epoch (MB).
    observed_cost: float
    #: Offline lower bound: forced shipping plus the minimum-weight vertex
    #: cover of the epoch's observed instance (MB).
    offline_cost: float

    @property
    def regret(self) -> float:
        """Non-negative excess of observed over offline-optimal traffic."""
        return max(self.observed_cost - self.offline_cost, 0.0)


class RegretTracker:
    """Accumulate per-epoch observed interaction instances and solve them."""

    __slots__ = (
        "_left_weights",
        "_right_weights",
        "_edges",
        "_observed",
        "_forced",
        "_epochs",
        "_total_regret",
        "_total_observed",
        "_total_offline",
    )

    def __init__(self) -> None:
        self._left_weights: Dict[int, float] = {}
        self._right_weights: Dict[int, float] = {}
        self._edges: List[Tuple[int, int]] = []
        self._observed = 0.0
        self._forced = 0.0
        self._epochs: List[EpochRegret] = []
        self._total_regret = 0.0
        self._total_observed = 0.0
        self._total_offline = 0.0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_query(
        self,
        query_id: int,
        cost: float,
        interacting: Mapping[int, float],
        shipped: bool,
    ) -> None:
        """Record one query of the current epoch.

        Parameters
        ----------
        query_id / cost:
            The query's id and shipping cost (its left-vertex weight).
        interacting:
            ``update_id -> shipping cost`` of every outstanding update the
            query interacts with at arrival (the edge set / right-vertex
            weights it contributes).
        shipped:
            Whether the policy actually shipped the query this event;
            its cost is then part of the epoch's observed traffic.
        """
        self._left_weights[query_id] = cost
        for update_id, update_cost in interacting.items():
            self._right_weights.setdefault(update_id, update_cost)
            self._edges.append((query_id, update_id))
        if shipped:
            self._observed += cost

    def observe_forced_query(self, cost: float) -> None:
        """Record a query over non-resident objects (forced to ship).

        Its cost is charged to both sides of the comparison: the offline
        decoupling subproblem only optimises over cached objects, so no
        schedule could have answered this query locally either.
        """
        self._observed += cost
        self._forced += cost

    def observe_update_traffic(self, cost: float) -> None:
        """Record update-shipping (or loading) traffic booked this epoch."""
        self._observed += cost

    # ------------------------------------------------------------------
    # Epoch boundaries
    # ------------------------------------------------------------------
    def close_epoch(self) -> EpochRegret:
        """Solve the epoch's observed instance and reset for the next one."""
        instance = BipartiteCoverInstance.from_iterables(
            self._left_weights, self._right_weights, self._edges
        )
        cover = min_weight_vertex_cover(instance)
        epoch = EpochRegret(
            index=len(self._epochs),
            observed_cost=self._observed,
            offline_cost=self._forced + cover.weight,
        )
        self._epochs.append(epoch)
        self._total_regret += epoch.regret
        self._total_observed += epoch.observed_cost
        self._total_offline += epoch.offline_cost
        self._left_weights = {}
        self._right_weights = {}
        self._edges = []
        self._observed = 0.0
        self._forced = 0.0
        return epoch

    # ------------------------------------------------------------------
    # Reading the totals
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> List[EpochRegret]:
        """Every closed epoch, in order."""
        return list(self._epochs)

    @property
    def pending_observed(self) -> float:
        """Observed traffic of the still-open epoch."""
        return self._observed

    def summary(self) -> Dict[str, float]:
        """Aggregate regret numbers over all closed epochs.

        Keys: ``epochs``, ``observed_traffic``, ``offline_traffic``,
        ``total`` (summed per-epoch regret) and ``mean_per_epoch``.
        """
        count = len(self._epochs)
        return {
            "epochs": float(count),
            "observed_traffic": self._total_observed,
            "offline_traffic": self._total_offline,
            "total": self._total_regret,
            "mean_per_epoch": self._total_regret / count if count else 0.0,
        }
