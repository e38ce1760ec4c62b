"""Survey update trace generator.

The paper simulates the update stream of Pan-STARRS/LSST-class surveys in
consultation with astronomers (Section 6.1): telescopes scan the sky along
great circles in a coordinated, systematic fashion, so updates are clustered
by sky region; the size of an update is proportional to the density of the
data object it hits; the total update traffic is calibrated to ~100 GB/day.

:class:`SurveyUpdateGenerator` reproduces those properties on top of the same
object catalogue the query generator uses.  Update *hotspots* are the objects
the current scan passes through, so they are spatially clustered and -- by
construction, because the query generator excludes them from its focus sets --
largely disjoint from query hotspots, as Figure 7(a) shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

from repro.repository.objects import ObjectCatalog
from repro.repository.updates import Update, UpdateIdAllocator, UpdateKind
from repro.workload.draws import uniform_pick

if TYPE_CHECKING:
    import numpy as np


@dataclass
class UpdateWorkloadConfig:
    """Tunable knobs of the update generator."""

    #: Number of updates to generate.
    update_count: int = 5000
    #: Target total update traffic (MB) across the trace; individual update
    #: costs are scaled so the generated trace lands near this figure.
    #: ``None`` disables rescaling.
    target_total_cost: Optional[float] = None
    #: Number of consecutive updates produced by one scan before the scan moves.
    scan_length: int = 250
    #: Number of adjacent objects a single scan sweeps over.
    scan_width: int = 6
    #: Probability that an update falls inside the current scan (vs. anywhere).
    scan_probability: float = 0.9
    #: Fraction of the sky (contiguous in object-id order) the survey is
    #: currently observing; scans wander only inside this region, which is
    #: what makes update hotspots persistent and distinct from query hotspots
    #: (Figure 7a).  ``1.0`` lets scans roam the whole sky.
    region_fraction: float = 0.35
    #: Fraction of updates that modify existing rows instead of inserting.
    modify_fraction: float = 0.05
    #: Mean rows per update (bookkeeping only).
    mean_rows: int = 2000
    #: RNG seed.
    seed: int = 1234


class SurveyUpdateGenerator:
    """Generator of spatially clustered, density-weighted update streams."""

    def __init__(
        self, catalog: ObjectCatalog, config: Optional[UpdateWorkloadConfig] = None
    ) -> None:
        import numpy as np

        self._catalog = catalog
        self._config = config or UpdateWorkloadConfig()
        if not 0.0 < self._config.region_fraction <= 1.0:
            raise ValueError("region_fraction must lie in (0, 1]")
        self._rng = np.random.default_rng(self._config.seed)
        self._allocator = UpdateIdAllocator(start=1)
        # The contiguous object-id region the survey currently observes.
        object_ids = self._object_ids = catalog.object_ids
        region_size = max(
            min(self._config.scan_width, len(object_ids)),
            int(round(len(object_ids) * self._config.region_fraction)),
        )
        region_start = int(self._rng.integers(0, len(object_ids)))
        self._region = [
            object_ids[(region_start + offset) % len(object_ids)] for offset in range(region_size)
        ]
        self._scan_anchor_index = 0
        self._scan_position = 0
        self._scan_objects: List[int] = []
        self._advance_scan()

    @property
    def config(self) -> UpdateWorkloadConfig:
        """The generator's configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Scan management
    # ------------------------------------------------------------------
    def _advance_scan(self) -> None:
        """Move the telescope to the next scan stripe.

        Scans progress systematically across the observed region: the anchor
        advances by roughly one stripe width each time, wrapping around inside
        the region, as a survey would repeatedly tile its current footprint.
        """
        width = min(self._config.scan_width, len(self._region))
        start = self._scan_anchor_index % len(self._region)
        self._scan_objects = [
            self._region[(start + offset) % len(self._region)] for offset in range(width)
        ]
        self._scan_anchor_index = (start + width) % len(self._region)
        self._scan_position = 0

    def current_scan(self) -> List[int]:
        """Object ids covered by the current scan stripe."""
        return list(self._scan_objects)

    @property
    def observed_region(self) -> List[int]:
        """Object ids of the region the survey is currently observing."""
        return list(self._region)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _draw_arrivals(self) -> np.ndarray:
        """Phase 1 of generation: every update's target object, in order.

        Per update the scan moves on every ``scan_length`` updates, then one
        ``random()`` picks the scan stripe or the whole sky and one
        ``integers()`` picks inside it.  Returned as a compact integer array
        (not boxed Python ints) so the streaming path's per-update scratch
        stays at a few bytes per event.
        """
        import numpy as np

        config = self._config
        rng = self._rng
        scan_length, scan_probability = config.scan_length, config.scan_probability
        position = self._scan_position
        arrivals = np.empty(config.update_count, dtype=np.int64)
        for index in range(config.update_count):
            if position >= scan_length:
                self._advance_scan()
                position = 0
            position += 1
            ids = self._scan_objects if rng.random() < scan_probability else self._object_ids
            arrivals[index] = uniform_pick(ids, rng)
        self._scan_position = position
        return arrivals

    def _draw_raw_costs(self, object_choices: np.ndarray) -> np.ndarray:
        """Phase 2: density-weighted log-normal cost per update, in order."""
        import numpy as np

        densities = self._catalog.densities()
        # Update size ~ density of the object times a log-normal wobble.  The
        # wobbles are the one run of same-kind draws in the trace, so one
        # sized call draws them (same values, same generator state after).
        wobbles = self._rng.lognormal(0.0, 0.5, size=len(object_choices))
        return np.array([densities[oid] for oid in object_choices.tolist()]) * wobbles

    def generate(self, timestamps: Optional[Sequence[float]] = None) -> List[Update]:
        """Generate the configured number of updates.

        Parameters
        ----------
        timestamps:
            Optional arrival times, one per update; defaults to 1, 2, 3, ...
            Pass the update slots of the merge schedule
            (:func:`repro.workload.mixer.slot_timestamps`) and the mixer uses
            each update as built instead of re-stamping a copy.
        """
        config = self._config
        count = config.update_count
        if timestamps is not None and len(timestamps) != count:
            raise ValueError(f"got {len(timestamps)} timestamps for {count} updates")

        object_choices = self._draw_arrivals()
        raw_costs = self._draw_raw_costs(object_choices)
        if config.target_total_cost is not None and raw_costs.sum() > 0:
            raw_costs *= config.target_total_cost / raw_costs.sum()

        if timestamps is None:
            timestamps = range(1, count + 1)
        return list(self._build(object_choices.tolist(), raw_costs.tolist(), timestamps))

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def raw_cost_total(self) -> float:
        """Total unscaled cost over a full phase-1/2 pass (consumes this generator).

        The calibration pass of the streaming pipeline: a fresh,
        identically-seeded generator draws the arrival and cost phases and
        returns the NumPy sum :meth:`generate` divides by, so the
        ``target_total_cost`` scale factor is byte-identical between the
        batch and streaming paths.
        """
        return float(self._draw_raw_costs(self._draw_arrivals()).sum())

    def cost_scale(self) -> float:
        """The ``target_total_cost`` scale factor (consumes this generator)."""
        target = self._config.target_total_cost
        if target is None:
            return 1.0
        total = self.raw_cost_total()
        if total <= 0:
            return 1.0
        return target / total

    def iter_updates(self, cost_scale: float = 1.0) -> Iterator[Update]:
        """Yield updates one at a time (consumes this generator).

        The generator's RNG phases are global over the stream (all arrivals,
        then all costs, then the per-update bookkeeping), so this holds the
        arrival ids and the cost vector as compact numeric buffers -- a few
        bytes per update, never update *objects*.  ``cost_scale`` is the
        pre-computed ``target_total_cost`` factor (see :meth:`cost_scale`).
        """
        object_choices = self._draw_arrivals()
        raw_costs = self._draw_raw_costs(object_choices) * cost_scale
        yield from self._build(
            map(int, object_choices), map(float, raw_costs), range(1, len(raw_costs) + 1)
        )

    def _build(
        self, object_ids: Iterable[int], costs: Iterable[float], timestamps: Iterable[float]
    ) -> Iterator[Update]:
        """Phase 3: each update's kind and row count, drawn as it is built."""
        random, poisson = self._rng.random, self._rng.poisson
        modify_fraction, mean_rows = self._config.modify_fraction, self._config.mean_rows
        next_id = self._allocator.next_id
        for object_id, cost, timestamp in zip(object_ids, costs, timestamps, strict=True):
            yield Update(
                update_id=next_id(),
                object_id=object_id,
                cost=cost,
                timestamp=float(timestamp),
                kind=UpdateKind.MODIFY if random() < modify_fraction else UpdateKind.INSERT,
                rows=int(max(1, poisson(mean_rows))),
            )

    def hotspot_objects(self, top: Optional[int] = None) -> List[int]:
        """Objects most likely to receive updates: the observed region.

        Used by experiment setup code to tell the query generator which
        objects to exclude from *its* hotspots so that the two streams have
        distinct hotspots, as in the paper's Figure 7(a).
        """
        if top is None or top >= len(self._region):
            return list(self._region)
        return list(self._region[:top])
