"""SDSS-like query trace generator.

Generates a stream of :class:`repro.repository.queries.Query` whose
statistical properties match what the paper documents about the SDSS trace it
replays (Section 6.1 and Figure 7a):

* each query touches a *spatially coherent* set of objects -- a hotspot model
  picks an anchor object, and multi-object footprints extend to neighbouring
  object ids (object ids are assigned contiguously over the sky, so id
  adjacency approximates spatial adjacency),
* query hotspots drift over the trace and are disjoint from update hotspots,
* result costs are heavy-tailed (log-normal selectivity times the size of the
  touched data), calibrated so the full trace moves roughly
  ``target_total_cost`` of result bytes,
* early queries are cheap: a ramp factor keeps result costs small during the
  first ``warmup_fraction`` of the trace, reproducing the long warm-up the
  paper reports (the cache stays nearly empty because no object accumulates
  enough attributed cost to justify loading),
* a small fraction of queries carries a non-zero tolerance for staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query, QueryIdAllocator
from repro.workload.hotspots import HotspotModel
from repro.workload.draws import Draws, weighted_index
from repro.workload.templates import DEFAULT_TEMPLATES, TemplateShape, template_cdf

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SDSSWorkloadConfig:
    """Tunable knobs of the query generator.

    The defaults reproduce the paper's qualitative workload; experiments
    override only what they sweep.
    """

    #: Number of queries to generate.
    query_count: int = 5000
    #: Target total result traffic (MB) across the whole trace; individual
    #: query costs are scaled so the generated trace lands near this figure.
    #: ``None`` disables rescaling.
    target_total_cost: Optional[float] = None
    #: Hotspot model parameters (the slowly drifting "core" hotspots).
    phase_length: int = 400
    focus_size: int = 8
    focus_probability: float = 0.8
    drift: float = 0.5
    zipf_exponent: float = 1.2
    #: Transient "flare" hotspots: short-lived bursts of interest in entirely
    #: different sky regions (the serendipitous-science evolution the paper
    #: stresses).  A flare block is redrawn from scratch every
    #: ``flare_phase_length`` flare-anchored queries and may land anywhere on
    #: the sky, including the update-hot region.
    flare_probability: float = 0.0
    flare_phase_length: int = 150
    flare_focus_size: int = 3
    #: Cost multiplier for flare-anchored queries.  Flares target sparse,
    #: previously unpopular sky regions, so their result sets are smaller than
    #: hotspot queries of the same template.
    flare_cost_factor: float = 0.5
    #: Cost multiplier for background (non-hotspot, non-flare) queries.  The
    #: popular regions are popular *because* they are data-rich; queries that
    #: wander off the hotspots return comparatively little data.
    background_cost_factor: float = 0.3
    #: Fraction of the trace treated as warm-up (cheap queries).
    warmup_fraction: float = 0.0
    #: Cost multiplier applied to queries inside the warm-up window.
    warmup_cost_factor: float = 0.1
    #: Fraction of queries with a non-zero tolerance for staleness.
    tolerant_fraction: float = 0.2
    #: Tolerance (in event-time units) granted to tolerant queries.
    tolerance_window: float = 50.0
    #: Object ids that query hotspots must avoid (typically update hotspots).
    excluded_hotspots: Sequence[int] = field(default_factory=tuple)
    #: Query templates to mix.
    templates: Sequence[TemplateShape] = DEFAULT_TEMPLATES
    #: RNG seed.
    seed: int = 42


def footprint_at(object_ids: Sequence[int], anchor_index: int, size: int) -> List[int]:
    """A spatially coherent footprint of ``size`` objects around ``object_ids[anchor_index]``.

    Object ids are contiguous over the sky, so the footprint walks outward
    from the anchor id, wrapping at the catalogue boundary.  Pure function of
    its inputs (no RNG), shared by the SDSS generator and the scenario
    workload models.
    """
    footprint = [object_ids[anchor_index]]
    offset = 1
    while len(footprint) < size and offset < len(object_ids):
        right = object_ids[(anchor_index + offset) % len(object_ids)]
        if right not in footprint:
            footprint.append(right)
        if len(footprint) < size:
            left = object_ids[(anchor_index - offset) % len(object_ids)]
            if left not in footprint:
                footprint.append(left)
        offset += 1
    return footprint[:size]


class SDSSQueryGenerator:
    """Generator of SDSS-shaped query streams over an object catalogue."""

    def __init__(self, catalog: ObjectCatalog, config: Optional[SDSSWorkloadConfig] = None) -> None:
        import numpy as np

        self._catalog = catalog
        self._config = config or SDSSWorkloadConfig()
        self._rng = np.random.default_rng(self._config.seed)
        self._draws = Draws(self._rng)
        self._allocator = QueryIdAllocator(start=1)
        # Per-query lookups, hoisted: the catalogue does not change under a
        # generator, and neither does the template mix.
        self._object_ids = catalog.object_ids
        self._index_of = {oid: index for index, oid in enumerate(self._object_ids)}
        self._sizes = catalog.sizes()
        self._templates = tuple(self._config.templates)
        self._template_cdf = template_cdf(self._templates)
        excluded = [
            oid for oid in self._config.excluded_hotspots if oid in catalog
        ]
        # Guard: never exclude everything.
        if len(excluded) >= len(catalog):
            excluded = excluded[: len(catalog) // 2]
        self._hotspots = HotspotModel(
            object_ids=self._object_ids,
            phase_length=self._config.phase_length,
            focus_size=self._config.focus_size,
            focus_probability=self._config.focus_probability,
            drift=self._config.drift,
            zipf_exponent=self._config.zipf_exponent,
            rng=self._rng,
            excluded=excluded,
        )
        # Flares are fully redrawn each phase and may strike anywhere.
        self._flares = HotspotModel(
            object_ids=self._object_ids,
            phase_length=self._config.flare_phase_length,
            focus_size=self._config.flare_focus_size,
            focus_probability=1.0,
            drift=1.0,
            zipf_exponent=self._config.zipf_exponent,
            rng=self._rng,
        )

    @property
    def config(self) -> SDSSWorkloadConfig:
        """The generator's configuration."""
        return self._config

    @property
    def hotspot_model(self) -> HotspotModel:
        """The underlying hotspot model (exposed for diagnostics)."""
        return self._hotspots

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _iter_drafts(self) -> Iterator[Tuple[FrozenSet[int], float, float, str]]:
        """Every query draft in order: ``(footprint, raw cost, tolerance, template)``.

        All RNG consumption for the queries happens here, in a fixed order per
        query (template, flare?, anchor, footprint size, selectivity,
        tolerance), so :meth:`generate`, :meth:`raw_cost_total` and
        :meth:`iter_queries` see byte-identical drafts from identically-seeded
        generators.  Which call the anchor draw makes depends on the draws
        before it, so the order cannot be batched without changing the trace;
        instead every draw but the selectivity's ``lognormal()`` goes through a
        :class:`~repro.workload.draws.Draws` (C-call cost, same values).  A
        footprint and the size of the data it touches are pure functions of
        ``(anchor, footprint size)``: each pair is built once, and its queries
        share one frozenset.
        """
        config = self._config
        draws = self._draws
        random, integers, lognormal = draws.random, draws.integers, self._rng.lognormal
        shapes = [
            (t.name, t.min_objects, t.max_objects + 1, t.selectivity_log_mean,
             t.selectivity_log_sigma, t.max_selectivity)
            for t in self._templates
        ]  # fmt: skip
        template_cdf = self._template_cdf
        hotspots, flares = self._hotspots, self._flares
        flare_probability, tolerant_fraction = config.flare_probability, config.tolerant_fraction
        object_ids, index_of, sizes = self._object_ids, self._index_of, self._sizes
        footprints: Dict[Tuple[int, int], Tuple[FrozenSet[int], float]] = {}
        warmup_cutoff = int(config.query_count * config.warmup_fraction)
        for index in range(config.query_count):
            name, low, high, log_mean, log_sigma, max_selectivity = shapes[
                weighted_index(template_cdf, draws)
            ]
            if random() < flare_probability:
                anchor = flares.next_object()
                factor = config.flare_cost_factor
            else:
                anchor = hotspots.next_object()
                # ``cost * 1.0`` is ``cost`` bit for bit: hotspot queries keep their cost.
                factor = 1.0 if hotspots.in_current_focus(anchor) else config.background_cost_factor
            size = integers(low, high)
            footprint = footprints.get((anchor, size))
            if footprint is None:
                members = footprint_at(object_ids, index_of[anchor], size)
                footprint = (frozenset(members), sum(map(sizes.__getitem__, members)))
                footprints[anchor, size] = footprint
            selectivity = min(float(lognormal(log_mean, log_sigma)), max_selectivity)
            cost = max(footprint[1] * selectivity, 1e-6) * factor
            if index < warmup_cutoff:
                cost *= config.warmup_cost_factor
            tolerance = config.tolerance_window if random() < tolerant_fraction else 0.0
            yield footprint[0], cost, tolerance, name

    def generate(self, timestamps: Optional[Sequence[float]] = None) -> List[Query]:
        """Generate the configured number of queries.

        Parameters
        ----------
        timestamps:
            Optional arrival times, one per query; defaults to 1, 2, 3, ...
            Pass the query slots of the merge schedule
            (:func:`repro.workload.mixer.slot_timestamps`) and the mixer uses
            each query as built instead of re-stamping a copy.
        """
        import numpy as np

        config = self._config
        count = config.query_count
        if timestamps is not None and len(timestamps) != count:
            raise ValueError(
                f"got {len(timestamps)} timestamps for {count} queries"
            )
        if timestamps is None:
            timestamps = range(1, count + 1)

        drafts = list(self._iter_drafts())
        costs = np.array([draft[1] for draft in drafts], dtype=float)
        if config.target_total_cost is not None and costs.sum() > 0:
            costs *= config.target_total_cost / costs.sum()

        next_id = self._allocator.next_id
        return [
            Query(next_id(), footprint, cost, float(timestamp), tolerance, template_name)
            for (footprint, _, tolerance, template_name), cost, timestamp in zip(
                drafts, costs.tolist(), timestamps, strict=True
            )
        ]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def raw_cost_total(self) -> float:
        """Total unscaled cost over a full draft pass (consumes this generator).

        This is the calibration pass of the streaming pipeline: a fresh,
        identically-seeded generator draws every draft, accumulating only the
        cost vector, so the ``target_total_cost`` scale factor can be
        computed without holding any query objects.  The costs are summed
        through the same NumPy reduction :meth:`generate` uses, keeping the
        factor byte-identical between the two paths.
        """
        import numpy as np

        costs = np.fromiter(
            (draft[1] for draft in self._iter_drafts()), dtype=float, count=self._config.query_count
        )
        return float(costs.sum())

    def cost_scale(self) -> float:
        """The ``target_total_cost`` scale factor (consumes this generator)."""
        target = self._config.target_total_cost
        if target is None:
            return 1.0
        total = self.raw_cost_total()
        if total <= 0:
            return 1.0
        return target / total

    def iter_queries(self, cost_scale: float = 1.0) -> Iterator[Query]:
        """Yield queries one at a time (consumes this generator).

        ``cost_scale`` is the pre-computed ``target_total_cost`` factor (see
        :meth:`cost_scale`); pass ``1.0`` for unscaled costs.  Timestamps
        default to 1, 2, 3, ... exactly as :meth:`generate`'s.
        """
        next_id = self._allocator.next_id
        for timestamp, (footprint, cost, tolerance, template_name) in enumerate(
            self._iter_drafts(), start=1
        ):
            yield Query(
                next_id(),
                footprint,
                float(cost * cost_scale),
                float(timestamp),
                tolerance,
                template_name,
            )
