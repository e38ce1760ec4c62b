"""Tests for the evolving hotspot model."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.workload.hotspots import HotspotModel, HotspotPhase


def advance(model: HotspotModel, accesses: int) -> None:
    for _ in range(accesses):
        model.next_object()


def make_model(rng, **overrides):
    defaults = dict(
        object_ids=list(range(1, 41)),
        phase_length=100,
        focus_size=5,
        focus_probability=0.9,
        drift=0.4,
        zipf_exponent=1.2,
        rng=rng,
    )
    defaults.update(overrides)
    return HotspotModel(**defaults)


class TestValidation:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            HotspotPhase(start_index=0, focus=(1, 1), focus_probability=0.5)
        with pytest.raises(ValueError):
            HotspotPhase(start_index=0, focus=(1, 2), focus_probability=1.5)

    def test_model_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            make_model(rng, phase_length=0)
        with pytest.raises(ValueError):
            make_model(rng, focus_size=0)
        with pytest.raises(ValueError):
            make_model(rng, drift=1.5)
        with pytest.raises(ValueError):
            make_model(rng, focus_probability=2.0)
        with pytest.raises(ValueError):
            make_model(rng, object_ids=[])

    def test_cannot_exclude_everything(self, rng):
        with pytest.raises(ValueError):
            make_model(rng, excluded=list(range(1, 41)))


class TestFocusBehaviour:
    def test_focus_objects_dominate_accesses(self, rng):
        model = make_model(rng, focus_probability=0.95)
        focus = set(model.current_focus)
        hits = sum(1 for _ in range(200) if model.next_object() in focus)
        # Phases change during the 200 draws, so compare loosely.
        assert hits > 100

    def test_excluded_objects_never_in_focus(self, rng):
        excluded = list(range(1, 21))
        model = make_model(rng, excluded=excluded)
        for _ in range(5):
            assert not (set(model.current_focus) & set(excluded))
            advance(model, 100)  # advance phases

    def test_contiguous_focus_blocks(self, rng):
        model = make_model(rng, contiguous=True, focus_size=6)
        focus = sorted(model.current_focus)
        spans = max(focus) - min(focus)
        # A contiguous block over 40 ids spans at most focus_size - 1 unless
        # it wraps around the end of the id range.
        assert spans <= 5 or spans >= 34

    def test_scattered_mode_supported(self, rng):
        model = make_model(rng, contiguous=False)
        assert len(model.current_focus) == 5

    def test_phases_advance_every_phase_length(self, rng):
        model = make_model(rng, phase_length=50)
        advance(model, 175)
        assert len(model.phases) == 4  # initial phase + 3 transitions

    def test_drift_zero_keeps_focus(self, rng):
        model = make_model(rng, drift=0.0, contiguous=True)
        first = list(model.current_focus)
        advance(model, 250)
        assert list(model.current_focus) == first

    def test_full_drift_changes_focus(self, rng):
        model = make_model(rng, drift=1.0, phase_length=50)
        advance(model, 60)
        # With drift 1.0 the new block is redrawn; it may coincidentally
        # overlap but must not be forced to equal the old one.
        assert isinstance(model.current_focus, list)
        assert len(model.phases) == 2

    def test_access_histogram_totals(self, rng):
        model = make_model(rng)
        histogram = Counter(model.next_object() for _ in range(300))
        assert sum(histogram.values()) == 300
        assert all(1 <= oid <= 40 for oid in histogram)

    def test_focus_size_capped_by_eligible_objects(self, rng):
        model = make_model(rng, object_ids=[1, 2, 3], focus_size=10)
        assert len(model.current_focus) == 3
