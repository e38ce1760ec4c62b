"""Per-epoch regret against the offline-optimal decoupling.

Pins :class:`repro.core.regret.RegretTracker` on its own: the
non-negativity argument (the cover-plus-forced lower bound really is a lower
bound for any *consistent* online schedule), exactness (replaying the
offline-optimal cover yields zero regret), forced-only and empty epochs, and
the summary's aggregation across epochs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regret import RegretTracker
from repro.flow.vertex_cover import BipartiteCoverInstance, min_weight_vertex_cover


# Costs on a 0.25 quantum (same rationale as tests/strategies.py): optimal
# covers are separated by at least 0.25, never decided by float noise.
_cost = st.integers(min_value=1, max_value=32).map(lambda n: n / 4.0)


@st.composite
def observed_epochs(draw):
    """One epoch of observations from a *consistent* online schedule.

    Consistency is the premise of the lower-bound argument: a query answered
    at the cache (not shipped) is only legal once every update it interacts
    with has been shipped, and a shipped update is paid for exactly once.
    """
    update_costs = {
        update_id: draw(_cost)
        for update_id in range(draw(st.integers(min_value=0, max_value=5)))
    }
    queries = []
    for query_id in range(draw(st.integers(min_value=1, max_value=6))):
        interacting = draw(
            st.sets(st.sampled_from(sorted(update_costs)), max_size=len(update_costs))
            if update_costs
            else st.just(set())
        )
        queries.append(
            (
                query_id,
                draw(_cost),
                {update_id: update_costs[update_id] for update_id in interacting},
                draw(st.booleans()),  # shipped?
            )
        )
    forced_costs = draw(st.lists(_cost, max_size=3))
    return queries, forced_costs


class TestRegretTracker:
    def test_empty_epoch_has_zero_regret(self):
        tracker = RegretTracker()
        epoch = tracker.close_epoch()
        assert epoch.observed_cost == 0.0
        assert epoch.offline_cost == 0.0
        assert epoch.regret == 0.0

    @settings(max_examples=60, deadline=None)
    @given(observed_epochs())
    def test_regret_non_negative_for_consistent_schedules(self, epoch_draw):
        """observed >= forced + min-cover for any consistent online schedule.

        The clamp in ``EpochRegret.regret`` must only ever absorb float
        noise, so the un-clamped difference is asserted directly.
        """
        queries, forced_costs = epoch_draw
        tracker = RegretTracker()
        shipped_updates = {}
        for query_id, cost, interacting, shipped in queries:
            tracker.observe_query(query_id, cost, interacting, shipped)
            if not shipped:
                # Consistency: answering at the cache requires every
                # interacting update to have been shipped (once).
                for update_id, update_cost in interacting.items():
                    shipped_updates.setdefault(update_id, update_cost)
        for cost in forced_costs:
            tracker.observe_forced_query(cost)
        tracker.observe_update_traffic(sum(shipped_updates.values()))
        epoch = tracker.close_epoch()
        assert epoch.observed_cost >= epoch.offline_cost - 1e-9
        assert epoch.regret == pytest.approx(
            epoch.observed_cost - epoch.offline_cost, abs=1e-9
        )

    def test_zero_regret_when_replaying_the_offline_optimum(self):
        """An online schedule that ships exactly the min cover has regret 0."""
        left = {1: 4.0, 2: 1.0, 3: 2.5}
        right = {10: 0.5, 11: 3.0, 12: 1.0}
        edges = [(1, 10), (1, 11), (2, 11), (3, 12), (3, 10)]
        cover = min_weight_vertex_cover(
            BipartiteCoverInstance.from_iterables(left, right, edges)
        )
        tracker = RegretTracker()
        for query_id, cost in left.items():
            interacting = {u: right[u] for q, u in edges if q == query_id}
            tracker.observe_query(
                query_id, cost, interacting, shipped=query_id in cover.left_in_cover
            )
        tracker.observe_update_traffic(
            sum(right[update_id] for update_id in cover.right_in_cover)
        )
        tracker.observe_forced_query(7.5)  # charged to both sides
        epoch = tracker.close_epoch()
        assert epoch.offline_cost == pytest.approx(cover.weight + 7.5)
        assert epoch.regret == pytest.approx(0.0, abs=1e-9)

    def test_forced_only_epoch_has_zero_regret(self):
        tracker = RegretTracker()
        for cost in (1.0, 2.5, 4.0):
            tracker.observe_forced_query(cost)
        epoch = tracker.close_epoch()
        assert epoch.observed_cost == pytest.approx(7.5)
        assert epoch.regret == 0.0

    def test_summary_aggregates_across_epochs(self):
        tracker = RegretTracker()
        tracker.observe_forced_query(3.0)
        tracker.observe_update_traffic(2.0)  # pure slack: 2.0 regret
        tracker.close_epoch()
        tracker.observe_forced_query(1.0)
        tracker.close_epoch()
        summary = tracker.summary()
        assert summary["epochs"] == 2.0
        assert summary["observed_traffic"] == pytest.approx(6.0)
        assert summary["offline_traffic"] == pytest.approx(4.0)
        assert summary["total"] == pytest.approx(2.0)
        assert summary["mean_per_epoch"] == pytest.approx(1.0)
