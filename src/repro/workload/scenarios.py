"""Scenario-diversity workload models: adversarial traffic shapes.

The evolving-hotspot workload (:mod:`repro.workload.sdss`) reproduces the
paper's default trace, but middleware evaluation lives or dies on workload
*diversity*: throughput and traffic claims need traffic shapes an adversary
would pick, not only stationary Zipf mixes.  This module adds three such
shapes, each a lazily-generated, single-pass, constant-memory
:class:`repro.workload.trace.TraceStream`:

* :class:`FlashCrowdStream` -- **sudden hotspot migration**: a stationary
  Zipf workload whose focus region *jumps* to a fresh part of the sky at
  each flash-crowd arrival, with the focus probability spiking while the
  crowd lasts.  Caches tuned to the old hotspot pay full price for the
  migration; smoothing policies (Benefit) are hurt exactly here.
* :class:`DiurnalStream` -- **diurnal load cycles**: query result traffic
  swells and fades sinusoidally over configurable day cycles while update
  traffic runs anti-phase (surveys observe at night), so the query:update
  byte ratio sweeps through its whole range every cycle.
* :class:`UpdateStormStream` -- **correlated update storms**: a stationary
  query workload punctured by bursts of updates that hammer one contiguous
  sky block -- half the time the block the queries are focused on, which
  invalidates exactly the objects worth caching.
* :class:`CacheAdversaryStream` -- **eviction-busting cyclic scans**: the
  query stream cycles round-robin over a working set sized just past the
  cache capacity, the classic LRU-killer, with occasional sequential scans
  marching across the whole catalogue to flush whatever did stick.

Unlike the evolving model, the per-event costs here are computed *directly*
(a mean-normalised log-normal wobble around an analytic mean), so no
whole-trace calibration pass exists: generation is one pass, O(1) state, and
a 5M-event replay runs in the same RSS as a 500k-event one.  All draws come
from per-stream seeded NumPy generators, so every pass over a stream yields
the byte-identical event sequence (the restartability the
:class:`~repro.workload.trace.TraceStream` contract requires).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query
from repro.repository.updates import Update, UpdateKind
from repro.workload.draws import uniform_pick, weighted_index, zipf_cdf
from repro.workload.mixer import iter_interleaved
from repro.workload.sdss import contiguous_footprint
from repro.workload.trace import TraceEvent, TraceStream

if TYPE_CHECKING:
    import numpy as np

#: Default size of the cache adversary's working set, as a multiple of the
#: cache capacity: just past it, the LRU/GDS worst case.
ADVERSARY_WORKING_SET_FACTOR = 1.25


@dataclass(frozen=True)
class Bounds:
    """A numeric interval; each end is open or closed."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value: float) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


POSITIVE = Bounds(0, math.inf, lo_open=True)
NON_NEGATIVE = Bounds(0, math.inf)
UNIT = Bounds(0, 1)


@dataclass(frozen=True)
class Knob:
    """One row of a model's knob table.

    A row is declared on the stream field itself (:func:`knob`), so it cannot
    name a field that does not exist; ``name`` and ``is_int`` are read off
    the field by :func:`model_knobs`.
    """

    name: str = ""
    is_int: bool = False
    #: The ``ExperimentConfig`` field that feeds the knob (None: stream-only).
    config_field: Optional[str] = None
    #: Values the model accepts, checked wherever a value enters: in
    #: ``ExperimentConfig`` (against ``config_field``) and in the stream's own
    #: constructor (which is what a composition segment builds).
    valid: Optional[Bounds] = None
    #: Inclusive range the scenario fuzzer and the hypothesis strategies draw
    #: from (None: never drawn).  Must lie inside ``valid``.
    fuzz: Optional[Tuple[float, float]] = None
    #: Set on a knob that is sized against the cache: builders hand it the
    #: cache capacity (MB) times ``config_field``, or times this multiple.
    cache_multiple: Optional[float] = None


def knob(default: Any, **row: Any) -> Any:
    """A stream field with default ``default`` carrying its :class:`Knob` row."""
    return field(default=default, metadata={"knob": Knob(**row)})


#: Stream fields supplied by whoever builds the stream (an experiment config
#: or a composition), never by a knob override.
PLUMBING_FIELDS = frozenset(
    {"catalog", "query_count", "update_count", "mean_query_cost", "mean_update_cost", "seed"}
)


@lru_cache(maxsize=None)
def model_knobs(stream_class: type) -> Tuple[Knob, ...]:
    """The knob table of a stream class: one row per overridable field, in field order.

    A field declared without :func:`knob` gets a blank row (overridable,
    unchecked, never drawn).  Int vs float is the dataclass field's type.
    """
    return tuple(
        replace(f.metadata.get("knob", Knob()), name=f.name, is_int=f.type == "int")
        for f in fields(stream_class)
        if f.name not in PLUMBING_FIELDS
    )


def _wobble(rng: np.random.Generator, sigma: float) -> float:
    """A mean-1 log-normal factor (so per-event costs keep analytic means)."""
    return float(rng.lognormal(0.0, sigma)) * math.exp(-0.5 * sigma * sigma)


def _block(object_ids: Sequence[int], start: int, size: int) -> List[int]:
    """A contiguous (wrapping) block of ``size`` object ids from ``start``."""
    count = len(object_ids)
    size = min(size, count)
    return [object_ids[(start + offset) % count] for offset in range(size)]


@dataclass(frozen=True)
class ScenarioModelStream(TraceStream):
    """Shared scale knobs and plumbing of the scenario models.

    Sub-classes implement ``_iter_queries`` / ``_iter_updates``; interleaving,
    id allocation and the stream contract live here.  Instances are frozen
    and picklable, so a model can be a sweep scenario source directly.

    Every field except the plumbing (:data:`PLUMBING_FIELDS`) is a *knob*: a
    composition segment may override it, and whatever :func:`knob` declares
    next to it -- config feed, valid range, fuzz range -- is the only place
    that is stated (see :func:`model_knobs`).
    """

    catalog: ObjectCatalog
    query_count: int
    update_count: int
    #: Analytic mean result cost per query (MB); per-event costs wobble
    #: log-normally around it.
    mean_query_cost: float
    #: Analytic mean shipping cost per update (MB).
    mean_update_cost: float
    tolerant_fraction: float = knob(0.2, config_field="tolerant_fraction")
    tolerance_window: float = knob(50.0, config_field="tolerance_window")
    #: Log-normal sigma of the per-event cost wobble.
    cost_sigma: float = 0.5
    #: Largest query footprint (objects per query).
    footprint_span: int = knob(4, valid=POSITIVE)
    #: Zipf skew inside focus blocks.
    zipf_exponent: float = knob(1.2, config_field="zipf_exponent", valid=POSITIVE)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.query_count < 0 or self.update_count < 0:
            raise ValueError("event counts must be non-negative")
        for row in model_knobs(type(self)):
            if row.valid is not None and getattr(self, row.name) not in row.valid:
                raise ValueError(
                    f"{row.name} must lie in {row.valid}, got {getattr(self, row.name)!r}"
                )

    # ------------------------------------------------------------------
    # TraceStream contract
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.query_count + self.update_count

    def iter_events(self) -> Iterator[TraceEvent]:
        return iter_interleaved(
            self._iter_queries(),
            self._iter_updates(),
            self.query_count,
            self.update_count,
            mode="uniform",
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # Shared draw helpers
    # ------------------------------------------------------------------
    def _query_rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(self.seed + 1)

    def _update_rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(self.seed + 2)

    def _draw_query(
        self,
        rng: np.random.Generator,
        query_id: int,
        index: int,
        anchor: int,
        cost_factor: float,
    ) -> Query:
        """One query around ``anchor`` at the model's mean cost x factor."""
        object_ids = self.catalog.object_ids
        span = int(rng.integers(1, self.footprint_span + 1))
        footprint = contiguous_footprint(object_ids, anchor, span)
        cost = max(self.mean_query_cost * cost_factor * _wobble(rng, self.cost_sigma), 1e-9)
        tolerance = (
            self.tolerance_window if rng.random() < self.tolerant_fraction else 0.0
        )
        return Query(
            query_id=query_id,
            object_ids=frozenset(footprint),
            cost=cost,
            timestamp=float(index + 1),
            tolerance=tolerance,
        )

    def _draw_update(
        self,
        rng: np.random.Generator,
        update_id: int,
        index: int,
        object_id: int,
        cost_factor: float,
    ) -> Update:
        """One update of ``object_id`` at the model's mean cost x factor."""
        cost = max(self.mean_update_cost * cost_factor * _wobble(rng, self.cost_sigma), 1e-9)
        return Update(
            update_id=update_id,
            object_id=object_id,
            cost=cost,
            timestamp=float(index + 1),
            kind=UpdateKind.INSERT,
            rows=1,
        )

    def _anchor_from_focus(
        self,
        rng: np.random.Generator,
        focus: Sequence[int],
        focus_cdf: Sequence[float],
        focus_probability: float,
    ) -> Tuple[int, bool]:
        """Zipf-weighted anchor from ``focus``, or a uniform background one."""
        if rng.random() < focus_probability:
            return focus[weighted_index(focus_cdf, rng)], True
        return uniform_pick(self.catalog.object_ids, rng), False

    # Sub-class hooks ---------------------------------------------------
    def _iter_queries(self) -> Iterator[Query]:
        raise NotImplementedError

    def _iter_updates(self) -> Iterator[Update]:
        raise NotImplementedError

    def update_region(self) -> List[int]:
        """Object ids the model's updates favour (may be empty)."""
        return []


@dataclass(frozen=True)
class FlashCrowdStream(ScenarioModelStream):
    """Sudden hotspot migration: flash crowds relocate the query focus.

    The query stream starts as a stationary Zipf workload over one
    contiguous focus block.  At each of ``crowd_count`` arrival points the
    focus *jumps* to a freshly drawn block (the migration), the focus
    probability spikes to ``crowd_intensity`` for ``crowd_duration`` of the
    query stream, and crowd queries are ``crowd_cost_factor`` heavier (the
    crowd converges on data-rich objects).  When a crowd disperses the
    migrated block stays the new baseline hotspot.  Updates stay clustered
    in a fixed survey region, disjoint dynamics from the crowds.
    """

    crowd_count: int = knob(
        3, config_field="flash_crowd_count", valid=NON_NEGATIVE, fuzz=(0, 4)
    )
    #: Fraction of the query stream before the first crowd arrives.
    crowd_arrival: float = knob(
        0.3,
        config_field="flash_crowd_arrival",
        valid=Bounds(0, 1, hi_open=True),
        fuzz=(0.0, 0.8),
    )
    #: Fraction of the query stream each crowd lasts.
    crowd_duration: float = knob(
        0.12,
        config_field="flash_crowd_duration",
        valid=Bounds(0, 1, lo_open=True),
        fuzz=(0.05, 0.5),
    )
    #: Focus probability while a crowd is active (baseline in between).
    crowd_intensity: float = knob(
        0.95, config_field="flash_crowd_intensity", valid=UNIT, fuzz=(0.5, 0.99)
    )
    base_intensity: float = 0.7
    crowd_cost_factor: float = 1.5
    background_cost_factor: float = 0.4
    focus_size: int = 6
    #: Fraction of the sky (contiguous) receiving the update stream.
    update_region_fraction: float = knob(0.35, config_field="update_region_fraction")

    def _crowd_windows(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` query indices of each crowd, non-overlapping."""
        if self.crowd_count == 0 or self.query_count == 0:
            return []
        first = int(self.query_count * self.crowd_arrival)
        spacing = max(1, (self.query_count - first) // self.crowd_count)
        length = max(1, min(int(self.query_count * self.crowd_duration), spacing))
        windows = []
        for crowd in range(self.crowd_count):
            start = first + crowd * spacing
            if start >= self.query_count:
                break
            windows.append((start, min(start + length, self.query_count)))
        return windows

    def _iter_queries(self) -> Iterator[Query]:
        rng = self._query_rng()
        object_ids = self.catalog.object_ids
        focus_size = min(self.focus_size, len(object_ids))
        focus_cdf = zipf_cdf(focus_size, self.zipf_exponent)
        focus = _block(object_ids, int(rng.integers(0, len(object_ids))), focus_size)
        windows = self._crowd_windows()
        window_index = 0
        in_crowd = False
        for index in range(self.query_count):
            # Leave any window that ended at or before this index first, so a
            # window starting exactly where the previous one stopped
            # (back-to-back windows) still gets its arrival transition.
            while window_index < len(windows) and index >= windows[window_index][1]:
                in_crowd = False
                window_index += 1
            if window_index < len(windows) and index == windows[window_index][0]:
                # The crowd arrives: the hotspot migrates to a fresh block.
                focus = _block(
                    object_ids, int(rng.integers(0, len(object_ids))), focus_size
                )
                in_crowd = True
            intensity = self.crowd_intensity if in_crowd else self.base_intensity
            anchor, is_hot = self._anchor_from_focus(rng, focus, focus_cdf, intensity)
            if is_hot:
                factor = self.crowd_cost_factor if in_crowd else 1.0
            else:
                factor = self.background_cost_factor
            yield self._draw_query(rng, index + 1, index, anchor, factor)

    def update_region(self) -> List[int]:
        """The fixed survey block the update stream favours."""
        object_ids = self.catalog.object_ids
        size = max(1, int(round(len(object_ids) * self.update_region_fraction)))
        start = int(self._update_rng().integers(0, len(object_ids)))
        return _block(object_ids, start, size)

    def _iter_updates(self) -> Iterator[Update]:
        rng = self._update_rng()
        object_ids = self.catalog.object_ids
        # First draw must match update_region(): the region anchor.
        size = max(1, int(round(len(object_ids) * self.update_region_fraction)))
        region = _block(object_ids, int(rng.integers(0, len(object_ids))), size)
        for index in range(self.update_count):
            if rng.random() < 0.8:
                object_id = region[int(rng.integers(0, len(region)))]
            else:
                object_id = int(object_ids[int(rng.integers(0, len(object_ids)))])
            yield self._draw_update(rng, index + 1, index, object_id, 1.0)


@dataclass(frozen=True)
class DiurnalStream(ScenarioModelStream):
    """Diurnal load cycles: query traffic by day, update traffic by night.

    Query result costs are modulated by ``1 + amplitude * sin`` over
    ``cycles`` day cycles across the trace; update costs run anti-phase, so
    the query:update byte ratio sweeps its full range every cycle.  The
    query focus block also sharpens slightly at midday (more of the traffic
    concentrates on the hotspot when the load peaks) and rotates one block
    per cycle, a slow daily drift.
    """

    cycles: int = knob(4, config_field="diurnal_cycles", valid=POSITIVE, fuzz=(1, 6))
    amplitude: float = knob(
        0.7,
        config_field="diurnal_amplitude",
        valid=Bounds(0, 1, hi_open=True),
        fuzz=(0.0, 0.95),
    )
    base_intensity: float = 0.75
    background_cost_factor: float = 0.4
    focus_size: int = 6

    def _phase(self, index: int, count: int) -> float:
        """Sinusoidal modulation in [-1, 1] at stream position ``index``."""
        if count == 0:
            return 0.0
        return math.sin(2.0 * math.pi * self.cycles * index / count)

    def _iter_queries(self) -> Iterator[Query]:
        rng = self._query_rng()
        object_ids = self.catalog.object_ids
        focus_size = min(self.focus_size, len(object_ids))
        focus_cdf = zipf_cdf(focus_size, self.zipf_exponent)
        focus_start = int(rng.integers(0, len(object_ids)))
        focus = _block(object_ids, focus_start, focus_size)
        cycle_length = max(1, self.query_count // self.cycles)
        for index in range(self.query_count):
            phase = self._phase(index, self.query_count)
            # A new day dawns: rotate the hotspot by one block width.
            if index > 0 and index % cycle_length == 0:
                focus_start = (focus_start + focus_size) % len(object_ids)
                focus = _block(object_ids, focus_start, focus_size)
            intensity = min(0.98, self.base_intensity * (1.0 + 0.2 * self.amplitude * phase))
            anchor, is_hot = self._anchor_from_focus(rng, focus, focus_cdf, intensity)
            factor = (1.0 if is_hot else self.background_cost_factor) * (
                1.0 + self.amplitude * phase
            )
            yield self._draw_query(rng, index + 1, index, anchor, factor)

    def _iter_updates(self) -> Iterator[Update]:
        rng = self._update_rng()
        object_ids = self.catalog.object_ids
        for index in range(self.update_count):
            phase = self._phase(index, self.update_count)
            object_id = int(object_ids[int(rng.integers(0, len(object_ids)))])
            # Anti-phase: the survey writes at night, while queries sleep.
            yield self._draw_update(
                rng, index + 1, index, object_id, 1.0 - self.amplitude * phase
            )


@dataclass(frozen=True)
class UpdateStormStream(ScenarioModelStream):
    """Correlated update storms: bursts that hammer one contiguous block.

    The query stream is a stationary Zipf workload over a fixed focus block.
    The update stream idles at a low uniform rate, punctured by
    ``storm_count`` storms of ``storm_length`` consecutive updates each;
    every storm picks one contiguous block of ``storm_width`` objects --
    with probability ``storm_on_focus`` the *query* focus block itself --
    and lands all its updates there at ``storm_cost_factor`` the mean cost.
    Storms on the focus block invalidate exactly the objects worth caching,
    the adversarial case for preshipping policies.
    """

    storm_count: int = knob(6, config_field="storm_count", valid=NON_NEGATIVE, fuzz=(0, 7))
    storm_length: int = knob(300, config_field="storm_length", valid=POSITIVE, fuzz=(10, 199))
    storm_width: int = knob(4, config_field="storm_width", valid=POSITIVE, fuzz=(1, 7))
    storm_cost_factor: float = knob(
        3.0, config_field="storm_cost_factor", valid=POSITIVE, fuzz=(1.0, 5.0)
    )
    #: Probability a storm targets the query focus block.
    storm_on_focus: float = knob(0.5, fuzz=(0.0, 1.0))
    base_intensity: float = 0.8
    background_cost_factor: float = 0.4
    focus_size: int = 6

    def _focus_start(self) -> int:
        """The (deterministic) anchor of the query focus block."""
        return int(self._query_rng().integers(0, len(self.catalog)))

    def _iter_queries(self) -> Iterator[Query]:
        rng = self._query_rng()
        object_ids = self.catalog.object_ids
        focus_size = min(self.focus_size, len(object_ids))
        focus_cdf = zipf_cdf(focus_size, self.zipf_exponent)
        # First draw matches _focus_start(): the focus anchor.
        focus = _block(object_ids, int(rng.integers(0, len(object_ids))), focus_size)
        for index in range(self.query_count):
            anchor, is_hot = self._anchor_from_focus(
                rng, focus, focus_cdf, self.base_intensity
            )
            factor = 1.0 if is_hot else self.background_cost_factor
            yield self._draw_query(rng, index + 1, index, anchor, factor)

    def _storm_windows(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` update indices of each storm, non-overlapping."""
        if self.storm_count == 0 or self.update_count == 0:
            return []
        spacing = max(1, self.update_count // (self.storm_count + 1))
        length = min(self.storm_length, spacing)
        windows = []
        for storm in range(self.storm_count):
            start = (storm + 1) * spacing
            if start >= self.update_count:
                break
            windows.append((start, min(start + length, self.update_count)))
        return windows

    def _iter_updates(self) -> Iterator[Update]:
        rng = self._update_rng()
        object_ids = self.catalog.object_ids
        focus_start = self._focus_start()
        windows = self._storm_windows()
        window_index = 0
        storm_block: List[int] = []
        for index in range(self.update_count):
            # Leave any window that ended at or before this index first, so
            # back-to-back storms (storm_length >= spacing) all fire.
            while window_index < len(windows) and index >= windows[window_index][1]:
                storm_block = []
                window_index += 1
            if window_index < len(windows) and index == windows[window_index][0]:
                # The storm breaks: choose its target block.
                if rng.random() < self.storm_on_focus:
                    block_start = focus_start
                else:
                    block_start = int(rng.integers(0, len(object_ids)))
                storm_block = _block(object_ids, block_start, self.storm_width)
            if storm_block:
                object_id = storm_block[int(rng.integers(0, len(storm_block)))]
                factor = self.storm_cost_factor
            else:
                object_id = int(object_ids[int(rng.integers(0, len(object_ids)))])
                factor = 1.0
            yield self._draw_update(rng, index + 1, index, object_id, factor)

    def update_region(self) -> List[int]:
        """The query focus block (the storms' favourite target)."""
        object_ids = self.catalog.object_ids
        return _block(object_ids, self._focus_start(), min(self.focus_size, len(object_ids)))


@dataclass(frozen=True)
class CacheAdversaryStream(ScenarioModelStream):
    """Eviction-busting cyclic/scan access sized just past cache capacity.

    The query stream cycles round-robin over a *working set* of objects
    whose cumulative size just exceeds ``working_set_bytes`` (which callers
    size a factor past the cache capacity).  Under a cache one notch too
    small for the cycle, every recency-style policy faults on every access
    -- the classic LRU-killer.  With probability ``scan_probability`` a
    query is instead a *sequential scan* step: a contiguous
    ``footprint_span``-object window marching through the whole catalogue,
    flushing whatever the cache managed to keep.  Updates favour the
    working set (so cached copies also go stale), keeping pressure on the
    decoupling logic rather than only the eviction logic.
    """

    #: Cumulative size (MB) the cyclic working set just exceeds.  Builders
    #: size it a factor past the cache capacity.
    working_set_bytes: float = knob(
        30.0,
        config_field="adversary_working_set_factor",
        valid=POSITIVE,
        cache_multiple=ADVERSARY_WORKING_SET_FACTOR,
    )
    #: Probability a query is a sequential-scan step instead of a cycle hit.
    scan_probability: float = knob(
        0.05, config_field="adversary_scan_probability", valid=UNIT, fuzz=(0.0, 0.3)
    )
    #: Probability an update lands inside the working set.
    update_in_set: float = knob(0.7, valid=UNIT, fuzz=(0.3, 1.0))

    def _working_set(self) -> List[int]:
        """The cyclic working set: a seeded shuffle prefix just past target.

        A dedicated generator (``seed + 3``) keeps the set independent of
        the query/update draw sequences, so the same objects are cycled on
        every restart of the stream.
        """
        import numpy as np

        object_ids = list(self.catalog.object_ids)
        rng = np.random.default_rng(self.seed + 3)
        order = [object_ids[i] for i in rng.permutation(len(object_ids))]
        working: List[int] = []
        cumulative = 0.0
        for object_id in order:
            working.append(object_id)
            cumulative += self.catalog.size_of(object_id)
            if cumulative > self.working_set_bytes and len(working) >= 2:
                break
        return working

    def _iter_queries(self) -> Iterator[Query]:
        rng = self._query_rng()
        object_ids = self.catalog.object_ids
        working = self._working_set()
        cycle_position = 0
        scan_cursor = 0
        for index in range(self.query_count):
            if rng.random() < self.scan_probability:
                # A scan step: a contiguous window marching across the sky.
                footprint = _block(object_ids, scan_cursor, self.footprint_span)
                scan_cursor = (scan_cursor + self.footprint_span) % len(object_ids)
                factor = 1.0
            else:
                # The cycle: exactly one working-set object, strictly in order.
                footprint = [working[cycle_position]]
                cycle_position = (cycle_position + 1) % len(working)
                factor = 1.0
            cost = max(
                self.mean_query_cost * factor * _wobble(rng, self.cost_sigma), 1e-9
            )
            tolerance = (
                self.tolerance_window if rng.random() < self.tolerant_fraction else 0.0
            )
            yield Query(
                query_id=index + 1,
                object_ids=frozenset(footprint),
                cost=cost,
                timestamp=float(index + 1),
                tolerance=tolerance,
            )

    def _iter_updates(self) -> Iterator[Update]:
        rng = self._update_rng()
        object_ids = self.catalog.object_ids
        working = self._working_set()
        for index in range(self.update_count):
            if rng.random() < self.update_in_set:
                object_id = working[int(rng.integers(0, len(working)))]
            else:
                object_id = int(object_ids[int(rng.integers(0, len(object_ids)))])
            yield self._draw_update(rng, index + 1, index, object_id, 1.0)

    def update_region(self) -> List[int]:
        """The cyclic working set (where the update stream concentrates)."""
        return self._working_set()


# ----------------------------------------------------------------------
# The model table and what is derived from it
# ----------------------------------------------------------------------
#: Model name -> stream class, in doc order: the one table of scenario models.
STREAM_CLASSES = {
    "flash_crowd": FlashCrowdStream,
    "diurnal": DiurnalStream,
    "update_storm": UpdateStormStream,
    "cache_adversary": CacheAdversaryStream,
}

#: Names of the scenario models this module provides, in doc order.
MODEL_NAMES = tuple(STREAM_CLASSES)
