"""Shared experiment configuration and the standard scenario builder.

All experiments replay variations of the same scenario the paper's
evaluation uses: an SDSS-shaped object catalogue, a query trace with evolving
(spatially contiguous) hotspots, an update trace clustered along survey
scans in a different part of the sky, interleaved 1:1, with a cache that is a
fixed fraction of the server.  :func:`build_scenario` builds all of that from
one :class:`ExperimentConfig` so that every experiment and every benchmark is
driven by the same, explicitly documented knobs.

Scale note: the paper replays ~500k events against a ~800 GB server.  A pure
Python reproduction replays a proportionally smaller trace against a
proportionally smaller server (see "Scenario knobs" in
``docs/experiments.md``); the default sizes below keep a full five-policy
comparison in the seconds range while preserving the ratios the paper
reports.  Benchmarks scale the event counts up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.cache.base import registry as eviction_registry
from repro.core.benefit import BenefitConfig
from repro.core.roster import POLICY_CLASSES
from repro.core.vcover import VCoverConfig
from repro.repository.catalog import DEFAULT_SCALE, PAPER_SERVER_SIZE_MB, sdss_catalog
from repro.repository.objects import ObjectCatalog
from repro.sim.engine import EngineConfig
from repro.sim.runner import DEFAULT_POLICIES, PolicySpec, policy_spec, vcover_spec
from repro.workload.mixer import interleave, slot_timestamps
from repro.workload.scenarios import (
    ADVERSARY_WORKING_SET_FACTOR,
    MODEL_NAMES,
    STREAM_CLASSES,
    ScenarioModelStream,
    model_knobs,
)
from repro.workload.sdss import SDSSQueryGenerator, SDSSWorkloadConfig
from repro.workload.stream import EvolvingTraceStream
from repro.workload.trace import Trace, TraceStream
from repro.workload.updates import SurveyUpdateGenerator, UpdateWorkloadConfig

#: The workload models build_scenario/build_scenario_stream can produce: the
#: paper's evolving-hotspot workload plus every scenario model.
WORKLOAD_MODELS = ("evolving", *MODEL_NAMES)

#: Per model, the ``(stream field, config field, sized against the cache)``
#: triples its knob table says a config feeds; built once, at import.
_CONFIG_FEEDS = {
    name: tuple(
        (row.name, row.config_field, row.cache_multiple is not None)
        for row in model_knobs(stream_class)
        if row.config_field is not None
    )
    for name, stream_class in STREAM_CLASSES.items()
}

#: Config field -> the range the knob it feeds accepts, over every model.
_KNOB_BOUNDS = {
    row.config_field: row.valid
    for stream_class in STREAM_CLASSES.values()
    for row in model_knobs(stream_class)
    if row.config_field is not None and row.valid is not None
}


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    The defaults reproduce the paper's default setup at laptop scale:
    68 data objects, a cache 30 % of the server, equal numbers of query and
    update events, query traffic roughly equal to update traffic in bytes,
    and a warm-up period of cheap queries at the head of the trace.
    """

    #: Number of spatial data objects (the paper's default partitioning).
    object_count: int = 68
    #: Byte-scale factor relative to the paper's ~800 GB server.
    scale: float = DEFAULT_SCALE
    #: Number of query events.
    query_count: int = 6000
    #: Number of update events.
    update_count: int = 6000
    #: Cache capacity as a fraction of the server size (paper default 0.3).
    cache_fraction: float = 0.3
    #: Total query result traffic as a fraction of the server size.  The
    #: paper's trace moves ~300 GB of query results against an ~800 GB server
    #: over ~500k events; our default trace is ~40x shorter, so the fraction
    #: is raised to preserve the per-object amortisation ratio (query bytes a
    #: hot object attracts during its hot period relative to its load cost) --
    #: the quantity that actually drives every policy's behaviour.
    query_traffic_fraction: float = 1.5
    #: Total update traffic as a fraction of the server size; kept equal to
    #: the query traffic so NoCache and Replica stay comparable, as in the
    #: paper's default workload (Figure 8a at 250k updates).
    update_traffic_fraction: float = 1.5
    #: Fraction of the trace considered warm-up (cheap queries, excluded from
    #: measured traffic exactly as the paper excludes its warm-up period).
    warmup_fraction: float = 0.2
    #: Benefit window size (events), the paper's default.
    benefit_window: int = 1000
    #: Events between cumulative-traffic samples.
    sample_every: int = 500
    #: Base RNG seed; derived seeds are offsets from it.
    seed: int = 7

    # Query workload shape.
    #: Zipf skew of hotspot access inside focus blocks (shared by the
    #: evolving hotspot model and every scenario-diversity model; the trace
    #: ingestion calibration pass fits this to real logs).
    zipf_exponent: float = 1.2
    hotspot_focus_size: int = 8
    hotspot_phase_length: int = 2000
    hotspot_drift: float = 0.15
    hotspot_focus_probability: float = 0.85
    flare_probability: float = 0.2
    flare_phase_length: int = 60
    flare_focus_size: int = 4
    flare_cost_factor: float = 0.5
    background_cost_factor: float = 0.3
    tolerant_fraction: float = 0.2
    tolerance_window: float = 50.0

    # Update workload shape.
    scan_width: int = 6
    scan_length: int = 250
    scan_probability: float = 0.7
    update_region_fraction: float = 0.35

    # Scenario-diversity workload model (see repro.workload.scenarios and
    # docs/workloads.md).  "evolving" is the paper's default workload; the
    # other models reuse the knobs below and ignore the hotspot/scan shape
    # knobs above.
    workload_model: str = "evolving"
    # Flash-crowd model: sudden hotspot migration.
    flash_crowd_count: int = 3
    flash_crowd_arrival: float = 0.3
    flash_crowd_duration: float = 0.12
    flash_crowd_intensity: float = 0.95
    # Diurnal model: day/night load cycles.
    diurnal_cycles: int = 4
    diurnal_amplitude: float = 0.7
    # Update-storm model: correlated update bursts.
    storm_count: int = 6
    storm_length: int = 300
    storm_width: int = 4
    storm_cost_factor: float = 3.0
    # Cache-adversary model: eviction-busting cyclic/scan access patterns.
    #: Working-set size as a multiple of the cache capacity; > 1 keeps the
    #: cycled set just past capacity, the LRU/GDS worst case.
    adversary_working_set_factor: float = ADVERSARY_WORKING_SET_FACTOR
    #: Probability a query starts a full sequential scan of the catalogue
    #: (cache pollution) instead of continuing the cycle.
    adversary_scan_probability: float = 0.05

    def __post_init__(self) -> None:
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        for name in ("query_count", "update_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)!r}")
        if not 0.0 < self.cache_fraction:
            raise ValueError("cache_fraction must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.workload_model not in WORKLOAD_MODELS:
            raise ValueError(
                f"unknown workload_model {self.workload_model!r}; "
                f"known models: {', '.join(WORKLOAD_MODELS)}"
            )
        # The scenario-model knobs are range-checked here, whatever the model,
        # against the ranges the model streams declare: a config is often
        # built far from where the stream is (scenario files, ``--set``
        # overrides), and failing here keeps the key and value in the error.
        for name, bounds in _KNOB_BOUNDS.items():
            if getattr(self, name) not in bounds:
                raise ValueError(f"{name} must lie in {bounds}, got {getattr(self, name)!r}")

    @property
    def server_size(self) -> float:
        """Total server size in MB at this scale."""
        return PAPER_SERVER_SIZE_MB * self.scale

    @property
    def total_events(self) -> int:
        """Total number of trace events."""
        return self.query_count + self.update_count

    @property
    def measure_from(self) -> int:
        """Event index at which the measurement window opens."""
        return int(self.total_events * self.warmup_fraction)

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **overrides)

    def engine_config(self) -> EngineConfig:
        """The replay-kernel configuration (sampling grid, measurement window)."""
        return EngineConfig(sample_every=self.sample_every, measure_from=self.measure_from)

    def policy_specs(self, include: Sequence[str] = DEFAULT_POLICIES) -> List[PolicySpec]:
        """Specs for the policies ``include`` names, Benefit at this config's window.

        A name is a roster policy or ``vcover-<eviction>``: VCover over one
        of the eviction registry's policies.  Every name is checked before
        any spec is built, so a typo fails before a sweep replays anything.
        """
        evictions = {f"vcover-{name}": name for name in eviction_registry.names()}
        unknown = [name for name in include if name not in POLICY_CLASSES and name not in evictions]
        if unknown:
            raise ValueError(
                f"unknown policy names {unknown}; known: {sorted(DEFAULT_POLICIES)} "
                f"and {sorted(evictions)}"
            )
        benefit = BenefitConfig(window_size=self.benefit_window)
        return [
            vcover_spec(VCoverConfig(eviction_policy=evictions[name]), name=name)
            if name in evictions
            else policy_spec(name, benefit if name == "benefit" else None)
            for name in include
        ]


@dataclass
class Scenario:
    """A fully built experiment scenario."""

    config: ExperimentConfig
    catalog: ObjectCatalog
    trace: Trace
    #: Object ids forming the survey's update region (update hotspots).
    update_region: List[int]

    @property
    def cache_capacity(self) -> float:
        """Cache capacity in MB implied by the config."""
        return self.catalog.total_size * self.config.cache_fraction


def build_catalog(config: ExperimentConfig) -> ObjectCatalog:
    """Build the SDSS-shaped catalogue for a config."""
    return sdss_catalog(
        object_count=config.object_count, scale=config.scale, seed=config.seed
    )


def _update_workload_config(
    config: ExperimentConfig, server_size: float
) -> UpdateWorkloadConfig:
    """The survey update generator's configuration for an experiment config."""
    return UpdateWorkloadConfig(
        update_count=config.update_count,
        target_total_cost=server_size * config.update_traffic_fraction,
        scan_length=config.scan_length,
        scan_width=config.scan_width,
        scan_probability=config.scan_probability,
        region_fraction=config.update_region_fraction,
        seed=config.seed + 1,
    )


def _query_workload_config(
    config: ExperimentConfig, server_size: float, update_region: List[int]
) -> SDSSWorkloadConfig:
    """The SDSS query generator's configuration for an experiment config."""
    return SDSSWorkloadConfig(
        query_count=config.query_count,
        target_total_cost=server_size * config.query_traffic_fraction,
        phase_length=config.hotspot_phase_length,
        focus_size=config.hotspot_focus_size,
        focus_probability=config.hotspot_focus_probability,
        drift=config.hotspot_drift,
        zipf_exponent=config.zipf_exponent,
        flare_probability=config.flare_probability,
        flare_phase_length=config.flare_phase_length,
        flare_focus_size=config.flare_focus_size,
        flare_cost_factor=config.flare_cost_factor,
        background_cost_factor=config.background_cost_factor,
        warmup_fraction=config.warmup_fraction,
        tolerant_fraction=config.tolerant_fraction,
        tolerance_window=config.tolerance_window,
        excluded_hotspots=tuple(update_region),
        seed=config.seed + 2,
    )


def build_model_stream(
    catalog: ObjectCatalog, config: ExperimentConfig
) -> ScenarioModelStream:
    """The scenario-diversity model stream an experiment config names.

    Per-event mean costs are derived from the config's traffic fractions so
    that the expected query/update byte totals match what the evolving
    workload is calibrated to -- directly, with no whole-trace rescaling
    pass, which is what keeps these models single-pass and constant-memory.
    """
    server_size = catalog.total_size
    mean_query_cost = (
        server_size * config.query_traffic_fraction / config.query_count
        if config.query_count
        else 0.0
    )
    mean_update_cost = (
        server_size * config.update_traffic_fraction / config.update_count
        if config.update_count
        else 0.0
    )
    stream_class = STREAM_CLASSES.get(config.workload_model)
    if stream_class is None:
        raise ValueError(
            f"workload_model {config.workload_model!r} has no scenario model stream"
        )
    capacity = server_size * config.cache_fraction
    knobs = {}
    for field, source, sized in _CONFIG_FEEDS[config.workload_model]:
        value = getattr(config, source)
        knobs[field] = value * capacity if sized else value
    return stream_class(
        catalog=catalog,
        query_count=config.query_count,
        update_count=config.update_count,
        mean_query_cost=mean_query_cost,
        mean_update_cost=mean_update_cost,
        seed=config.seed,
        **knobs,
    )


def build_scenario(config: Optional[ExperimentConfig] = None) -> Scenario:
    """Build catalogue plus interleaved trace for an experiment config.

    For the default ``evolving`` model the update generator is built first so
    its observed region (the update hotspots) can be excluded from the query
    generator's hotspot focus sets, keeping the two streams' hotspots
    distinct as in Figure 7(a).  The scenario-diversity models
    (``flash_crowd``/``diurnal``/``update_storm``) are generated through
    their streaming sources and materialised, so the two replay paths can
    never drift apart.
    """
    config = config or ExperimentConfig()
    catalog = build_catalog(config)
    server_size = catalog.total_size

    if config.workload_model != "evolving":
        stream = build_model_stream(catalog, config)
        return Scenario(
            config=config,
            catalog=catalog,
            trace=stream.materialise(),
            update_region=stream.update_region(),
        )

    update_config = _update_workload_config(config, server_size)
    update_generator = SurveyUpdateGenerator(catalog, update_config)
    update_region = update_generator.observed_region

    query_config = _query_workload_config(config, server_size, update_region)
    query_generator = SDSSQueryGenerator(catalog, query_config)

    # Stamp at source: each generator builds its events with the timestamps
    # the uniform merge will assign, so interleave() does not rebuild them.
    query_slots, update_slots = slot_timestamps(config.query_count, config.update_count)
    trace = interleave(
        query_generator.generate(timestamps=query_slots),
        update_generator.generate(timestamps=update_slots),
        mode="uniform",
    )
    return Scenario(
        config=config, catalog=catalog, trace=trace, update_region=list(update_region)
    )


def build_scenario_stream(
    config: Optional[ExperimentConfig] = None,
) -> Tuple[ObjectCatalog, TraceStream]:
    """The streaming twin of :func:`build_scenario`: catalogue + lazy source.

    The returned stream produces the byte-identical event sequence
    :func:`build_scenario` would materialise (the determinism harness and
    the streaming-vs-materialised equivalence tests pin this), but generates
    it on demand, so the engines can replay it without holding the events.
    """
    config = config or ExperimentConfig()
    catalog = build_catalog(config)
    if config.workload_model != "evolving":
        return catalog, build_model_stream(catalog, config)
    server_size = catalog.total_size
    update_config = _update_workload_config(config, server_size)
    update_region = SurveyUpdateGenerator(catalog, update_config).observed_region
    query_config = _query_workload_config(config, server_size, update_region)
    return catalog, EvolvingTraceStream(catalog, query_config, update_config)
