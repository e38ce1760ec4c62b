"""Evolving hotspot model.

The paper stresses (design choice B, Figure 7a) that scientific query
workloads *evolve*: the set of heavily queried objects drifts over the trace,
entirely different object sets can dominate within a short period, and query
hotspots are largely disjoint from update hotspots.  Algorithms that assume a
stable workload (Benefit-style smoothing) are hurt by exactly this property,
which is what the evaluation demonstrates.

:class:`HotspotModel` produces that behaviour: the trace is divided into
*phases*; within each phase a small set of focus objects receives most of the
accesses (Zipf-weighted), the rest of the probability mass is spread
uniformly, and consecutive phases change part of the focus set.  The model is
shared by the query generator and (with a different focus set) the update
generator so the two streams have distinct hotspots by construction.

An access costs its draws: one ``random()`` for focus-vs-background, then one
``random()`` searched in the phase's Zipf cdf or one ``integers()`` into the
object ids, each through a :class:`~repro.workload.draws.Draws` (per-phase
draws stay on the ``Generator``).  The cdf and the focus membership set are
rebuilt once per phase, never per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.workload.draws import Draws, uniform_pick, weighted_index, zipf_cdf

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class HotspotPhase:
    """One phase of the workload: a focus set and its access weights."""

    #: Index of the first event (within the generator's own stream) of this phase.
    start_index: int
    #: Object ids in the focus set, most popular first.
    focus: Sequence[int]
    #: Probability that an access goes to the focus set (vs. uniform background).
    focus_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.focus_probability <= 1.0:
            raise ValueError("focus_probability must lie in [0, 1]")
        if len(set(self.focus)) != len(self.focus):
            raise ValueError("focus set contains duplicate object ids")


class HotspotModel:
    """Drifting Zipf-over-focus-set access model.

    Parameters
    ----------
    object_ids:
        The universe of object ids accesses are drawn from.
    phase_length:
        Number of accesses per phase.
    focus_size:
        Number of objects in each phase's focus set.
    focus_probability:
        Probability that an access targets the focus set.
    drift:
        Fraction of the focus set replaced when moving to the next phase
        (``1.0`` = completely new hotspots every phase).
    zipf_exponent:
        Skew of accesses within the focus set.
    rng:
        NumPy random generator (injected for reproducibility).
    excluded:
        Optional object ids never chosen for focus sets (used to keep query
        and update hotspots disjoint, as in Figure 7a).
    contiguous:
        When ``True`` (the default) each focus set is a *contiguous block* of
        object ids.  Object ids are assigned contiguously over the sky, so a
        contiguous block models a sky-region hotspot: queries anchored inside
        it spill over to neighbouring objects that are also hot, which is what
        makes whole query footprints cacheable.  When ``False`` focus objects
        are sampled independently (scattered hotspots).
    """

    def __init__(
        self,
        object_ids: Sequence[int],
        phase_length: int,
        focus_size: int,
        focus_probability: float,
        drift: float,
        zipf_exponent: float,
        rng: np.random.Generator,
        excluded: Optional[Sequence[int]] = None,
        contiguous: bool = True,
    ) -> None:
        if phase_length <= 0:
            raise ValueError("phase_length must be positive")
        if focus_size <= 0:
            raise ValueError("focus_size must be positive")
        if not 0.0 <= drift <= 1.0:
            raise ValueError("drift must lie in [0, 1]")
        if not 0.0 <= focus_probability <= 1.0:
            raise ValueError("focus_probability must lie in [0, 1]")
        self._object_ids = [int(oid) for oid in object_ids]
        if not self._object_ids:
            raise ValueError("object_ids must be non-empty")
        excluded_set = set(excluded or ())
        self._eligible = [oid for oid in self._object_ids if oid not in excluded_set]
        if not self._eligible:
            raise ValueError("every object is excluded from focus sets")
        self._phase_length = phase_length
        self._focus_size = min(focus_size, len(self._eligible))
        self._focus_probability = focus_probability
        self._drift = drift
        self._zipf_exponent = zipf_exponent
        self._rng = rng
        self._draws = Draws(rng)
        self._contiguous = contiguous
        self._phases: List[HotspotPhase] = []
        self._access_index = 0
        self._current_focus: List[int] = []
        #: Start index (into the eligible list) of the current contiguous block.
        self._block_start = int(self._rng.integers(0, len(self._eligible)))
        self._start_new_phase()

    # ------------------------------------------------------------------
    # Phase management
    # ------------------------------------------------------------------
    def _contiguous_block(self, start: int) -> List[int]:
        """A focus-sized contiguous run of eligible ids starting at ``start``."""
        count = len(self._eligible)
        return [self._eligible[(start + offset) % count] for offset in range(self._focus_size)]

    def _start_new_phase(self) -> None:
        if self._contiguous:
            if self._current_focus:
                # Shift the block proportionally to the drift: a drift of 0.5
                # replaces half the block, a drift of 1.0 jumps to a fresh one.
                if self._drift >= 1.0:
                    self._block_start = int(self._rng.integers(0, len(self._eligible)))
                else:
                    shift = max(0, int(round(self._focus_size * self._drift)))
                    self._block_start = (self._block_start + shift) % len(self._eligible)
            focus = self._contiguous_block(self._block_start)
        elif not self._current_focus:
            focus = list(
                self._rng.choice(self._eligible, size=self._focus_size, replace=False)
            )
        else:
            keep_count = int(round(self._focus_size * (1.0 - self._drift)))
            kept = self._current_focus[:keep_count]
            pool = [oid for oid in self._eligible if oid not in kept]
            new_count = self._focus_size - len(kept)
            newcomers = (
                list(self._rng.choice(pool, size=new_count, replace=False))
                if new_count > 0 and pool
                else []
            )
            focus = kept + newcomers
            self._rng.shuffle(focus)
        self._current_focus = [int(oid) for oid in focus]
        self._focus_members = frozenset(self._current_focus)
        self._focus_cdf = zipf_cdf(len(self._current_focus), self._zipf_exponent)
        self._phases.append(
            HotspotPhase(
                start_index=self._access_index,
                focus=tuple(self._current_focus),
                focus_probability=self._focus_probability,
            )
        )

    @property
    def phases(self) -> List[HotspotPhase]:
        """All phases started so far."""
        return list(self._phases)

    @property
    def current_focus(self) -> List[int]:
        """The focus set of the current phase."""
        return list(self._current_focus)

    def in_current_focus(self, object_id: int) -> bool:
        """Whether ``object_id`` belongs to the current phase's focus set."""
        return object_id in self._focus_members

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def next_object(self) -> int:
        """Draw the object id targeted by the next access."""
        if self._access_index > 0 and self._access_index % self._phase_length == 0:
            self._start_new_phase()
        self._access_index += 1
        draws = self._draws
        if draws.random() < self._focus_probability:
            return self._current_focus[weighted_index(self._focus_cdf, draws)]
        return uniform_pick(self._object_ids, draws)
