"""Adaptive meta-policy: follow the leader among shadowed online policies.

The middleware the paper models is configured with *one* policy per run, yet
its workloads drift: a flash crowd looks nothing like an update storm, and
the best static policy differs between them.  :class:`AdaptivePolicy` closes
that gap without any new decision theory of its own.  It runs every candidate
policy as a *shadow*: all of them observe the full event stream against
private traffic ledgers, the meta-policy's real traffic mirrors whichever
candidate is currently *live*, and at fixed epoch boundaries the discounted
per-epoch traffic scores (read through the candidates'
:class:`~repro.cache.observer.PolicyObserver` seam -- this is the
observe/decide contract doing real work) pick a new leader:

* ``score[arm] = discount * score[arm] + epoch_traffic[arm]`` (lower wins),
* the live arm is replaced only when the leader undercuts it by more than
  ``switch_margin`` (hysteresis against flapping),
* a switch is *paid for*: objects resident in the new arm's cache but not in
  the old one's are loaded over the real link at the boundary timestamp.

Because the serve stack owns the policy behind a single writer, epoch
switches serialise naturally and the same object is servable online.

Shadowing is safe on a shared repository: candidates never ingest updates
(the engine does, once) and repository reads only bump server-side counters.
The cost of shadowing is linear in the number of candidates -- this is the
classic "expert advice" setup where every expert's loss is observable each
round, so follow-the-leader needs no explore/exploit randomisation.

When ``track_regret`` is on, a :class:`~repro.core.regret.RegretTracker`
compares the meta-policy's realised traffic per epoch against the exact
offline decoupling optimum (:mod:`repro.core.offline`'s Theorem 1 instance)
built from observed interactions; the summary lands in
:class:`~repro.sim.results.RunResult` and the bench payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.benefit import BenefitConfig
from repro.core.decoupling import QueryOutcome
from repro.core.policy import BaseCachePolicy, CachePolicy
from repro.core.regret import RegretTracker
from repro.core.roster import POLICY_CLASSES, build_policy, is_online
from repro.core.vcover import VCoverConfig
from repro.network.link import NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update

__all__ = ["ADAPTIVE_CANDIDATES", "AdaptiveConfig", "AdaptivePolicy"]

#: Candidate arms the meta-policy can shadow: every online policy of the
#: roster (an offline one cannot be shadowed because it reads the future).
ADAPTIVE_CANDIDATES = tuple(
    name for name, policy_class in POLICY_CLASSES.items() if is_online(policy_class)
)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive meta-policy.

    Attributes
    ----------
    epoch_length:
        Events (queries plus updates) per scoring epoch.
    candidates:
        Arms to shadow, in priority order (ties break towards the front).
    initial:
        The arm that is live before the first epoch closes.
    discount:
        Exponential discount on past epoch scores (0 = only the last epoch
        counts, values near 1 = long memory).
    switch_margin:
        Relative undercut the leader needs before a switch happens:
        the live arm is replaced only when
        ``score[leader] < (1 - switch_margin) * score[live]``.
    switch_horizon:
        Epochs over which a switch must amortise: the leader's estimated
        per-epoch saving, ``(score[live] - score[leader]) * (1 - discount)``,
        times this horizon must exceed the one-off cost of loading the
        leader's extra resident objects.
    benefit_window:
        Window size handed to the shadowed Benefit arm.
    vcover:
        Configuration handed to the shadowed VCover arm.
    track_regret:
        Whether to build and solve the per-epoch regret instances (exact
        solves; turn off for pure speed runs).
    """

    epoch_length: int = 250
    candidates: Tuple[str, ...] = ADAPTIVE_CANDIDATES
    initial: str = "nocache"
    discount: float = 0.5
    switch_margin: float = 0.1
    switch_horizon: float = 10.0
    benefit_window: int = 1000
    vcover: Optional[VCoverConfig] = None
    track_regret: bool = True

    def __post_init__(self) -> None:
        if self.epoch_length < 1:
            raise ValueError(f"epoch_length must be >= 1, got {self.epoch_length!r}")
        if not self.candidates:
            raise ValueError("candidates must not be empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"duplicate candidate names in {self.candidates!r}")
        unknown = [name for name in self.candidates if name not in ADAPTIVE_CANDIDATES]
        if unknown:
            raise ValueError(
                f"unknown candidates {unknown}; shadowable: {list(ADAPTIVE_CANDIDATES)}"
            )
        if self.initial not in self.candidates:
            raise ValueError(
                f"initial arm {self.initial!r} is not among candidates {self.candidates!r}"
            )
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount!r}")
        if not 0.0 <= self.switch_margin < 1.0:
            raise ValueError(
                f"switch_margin must be in [0, 1), got {self.switch_margin!r}"
            )
        if self.switch_horizon <= 0.0:
            raise ValueError(
                f"switch_horizon must be positive, got {self.switch_horizon!r}"
            )


class AdaptivePolicy(CachePolicy):
    """Follow-the-leader over shadowed candidate policies (see module docs).

    Parameters
    ----------
    repository:
        The server the cache talks to (shared read-only by all shadows).
    capacity:
        Cache capacity in MB, applied to every capacity-bound candidate.
    link:
        The real traffic ledger; mirrors the live arm's charges.
    config:
        Meta-policy knobs (:class:`AdaptiveConfig`).
    """

    name = "adaptive"

    def __init__(
        self,
        repository: Repository,
        capacity: float,
        link: NetworkLink,
        config: Optional[AdaptiveConfig] = None,
    ) -> None:
        self._repository = repository
        self._link = link
        self._config = config or AdaptiveConfig()
        arm_configs = {
            "benefit": BenefitConfig(window_size=self._config.benefit_window),
            "vcover": self._config.vcover,
        }
        #: One shadow arm per candidate, each with a private traffic ledger.
        self._candidates: Dict[str, BaseCachePolicy] = {
            name: build_policy(name, repository, capacity, NetworkLink(), arm_configs)
            for name in self._config.candidates
        }
        self._live_name = self._config.initial
        self._live_marks = self._live.link.total_by_mechanism()
        self._scores: Dict[str, float] = {name: 0.0 for name in self._config.candidates}
        self._arm_epochs: Dict[str, int] = {name: 0 for name in self._config.candidates}
        self._events_in_epoch = 0
        self._queries_seen = 0
        self._updates_seen = 0
        self._epochs = 0
        self._switches = 0
        self._switch_traffic = 0.0
        self._regret = RegretTracker() if self._config.track_regret else None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def _live(self) -> BaseCachePolicy:
        return self._candidates[self._live_name]

    @property
    def live_arm(self) -> str:
        """Name of the currently live candidate."""
        return self._live_name

    @property
    def link(self) -> NetworkLink:
        """The real (mirrored) traffic ledger."""
        return self._link

    @property
    def total_traffic(self) -> float:
        """Total traffic booked on the real link so far."""
        return self._link.total_cost

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Feed the update to every shadow; mirror the live arm's traffic."""
        self._updates_seen += 1
        for name in self._config.candidates:
            self._candidates[name].on_update(update)
        moved = self._mirror_live(update.timestamp, event_id=update.update_id)
        if self._regret is not None and moved:
            self._regret.observe_update_traffic(sum(moved.values()))
        self._after_event(update.timestamp)

    def on_query(self, query: Query) -> QueryOutcome:
        """Feed the query to every shadow; answer with the live arm's outcome."""
        self._queries_seen += 1
        interacting: Dict[int, float] = {}
        in_instance = False
        if self._regret is not None:
            live = self._live
            # Theorem 1 scopes the decoupling subproblem to cached objects:
            # only fully-resident queries join the instance; the rest are
            # forced ships on both sides of the comparison.
            in_instance = live.store.contains_all(query.object_ids)
            if in_instance:
                for object_id in query.object_ids:
                    for update in live.interacting_updates(query, object_id):
                        interacting[update.update_id] = update.cost
        outcome: Optional[QueryOutcome] = None
        for name in self._config.candidates:
            candidate_outcome = self._candidates[name].on_query(query)
            if name == self._live_name:
                outcome = candidate_outcome
        assert outcome is not None  # the live arm is always a candidate
        moved = self._mirror_live(query.timestamp, event_id=query.query_id)
        if self._regret is not None:
            shipped = not outcome.answered_at_cache
            if in_instance:
                self._regret.observe_query(
                    query.query_id, query.cost, interacting, shipped
                )
            else:
                self._regret.observe_forced_query(query.cost)
            side_traffic = sum(moved.values())
            if shipped:
                # The query-shipping part is booked by observe_query /
                # observe_forced_query at the instance's (raw) price; only
                # the rest goes in separately.
                side_traffic -= moved.get("query_shipping", 0.0)
            self._regret.observe_update_traffic(side_traffic)
        self._after_event(query.timestamp)
        return outcome

    def _mirror_live(self, timestamp: float, event_id: Optional[int]) -> Dict[str, float]:
        """Book the live arm's new shadow charges onto the real link."""
        totals = self._live.link.total_by_mechanism()
        moved: Dict[str, float] = {}
        for mechanism, total in totals.items():
            delta = total - self._live_marks.get(mechanism, 0.0)
            if delta > 0.0:
                self._link.absorb(mechanism, delta, timestamp, event_id=event_id)
                moved[mechanism] = delta
        self._live_marks = totals
        return moved

    def _after_event(self, timestamp: float) -> None:
        """Count the event towards the epoch; close it at the boundary."""
        self._events_in_epoch += 1
        if self._events_in_epoch >= self._config.epoch_length:
            self._close_epoch(timestamp, allow_switch=True)

    # ------------------------------------------------------------------
    # Epoch boundaries
    # ------------------------------------------------------------------
    def _close_epoch(self, timestamp: float, allow_switch: bool) -> None:
        """Score the closing epoch, update regret, maybe switch arms."""
        config = self._config
        for name in config.candidates:
            snapshot = self._candidates[name].close_epoch()
            self._scores[name] = config.discount * self._scores[name] + snapshot.traffic
        self._arm_epochs[self._live_name] += 1
        self._epochs += 1
        self._events_in_epoch = 0
        if self._regret is not None:
            self._regret.close_epoch()
        if not allow_switch:
            return
        leader = min(
            config.candidates,
            key=lambda name: (self._scores[name], config.candidates.index(name)),
        )
        if leader == self._live_name:
            return
        leader_score = self._scores[leader]
        live_score = self._scores[self._live_name]
        if leader_score >= (1.0 - config.switch_margin) * live_score:
            return
        # Adopting the leader means loading every object it caches that the
        # live arm does not -- a real, paid cost.  Only switch when the
        # estimated per-epoch saving, amortised over the configured horizon,
        # exceeds that one-off cost.
        to_load = sorted(
            self._candidates[leader].store.resident_ids()
            - self._live.store.resident_ids()
        )
        switch_cost = 0.0
        for object_id in to_load:
            record = self._candidates[leader].store.get(object_id)
            assert record is not None  # resident ids come from the same store
            switch_cost += record.size
        saving_per_epoch = (live_score - leader_score) * (1.0 - config.discount)
        if saving_per_epoch * config.switch_horizon <= switch_cost:
            return
        self._switch_to(leader, to_load, timestamp)

    def _switch_to(self, leader: str, to_load: List[int], timestamp: float) -> None:
        """Make ``leader`` live, paying for the cache-content difference."""
        incoming = self._candidates[leader]
        for object_id in to_load:
            record = incoming.store.get(object_id)
            assert record is not None  # resident ids come from the same store
            cost = self._link.load_object(record.size, timestamp, object_id=object_id)
            self._switch_traffic += cost
            if self._regret is not None:
                self._regret.observe_update_traffic(cost)
        self._live_name = leader
        self._live_marks = self._live.link.total_by_mechanism()
        self._switches += 1

    def finalize(self) -> None:
        """Close the trailing partial epoch (scores and regret, no switch)."""
        if self._events_in_epoch > 0:
            self._close_epoch(timestamp=0.0, allow_switch=False)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Summary counters for reports (meta-level, not per-shadow)."""
        stats: Dict[str, float] = {
            "queries_seen": float(self._queries_seen),
            "updates_seen": float(self._updates_seen),
            "total_traffic": self.total_traffic,
            "epochs": float(self._epochs),
            "switches": float(self._switches),
            "switch_traffic": self._switch_traffic,
        }
        for name in self._config.candidates:
            stats[f"arm_{name}_epochs"] = float(self._arm_epochs[name])
            stats[f"arm_{name}_score"] = self._scores[name]
        summary = self.regret_summary()
        if summary is not None:
            for key, value in summary.items():
                stats[f"regret_{key}"] = value
        return stats

    def regret_summary(self) -> Optional[Dict[str, float]]:
        """Aggregate per-epoch regret vs the offline optimum (None if off).

        The simulation engine duck-types on this method to surface the
        summary in :class:`~repro.sim.results.RunResult`.
        """
        if self._regret is None:
            return None
        return self._regret.summary()
