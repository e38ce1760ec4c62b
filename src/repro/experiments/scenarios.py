"""Experiments E10-E12 -- scenario-diversity workloads (beyond the paper).

The paper's evaluation replays one workload family (evolving hotspots over
an SDSS-shaped catalogue).  Context-aware middleware surveys stress that
middleware evaluation lives or dies on workload diversity, and adversarial
traffic shapes are exactly where smoothing policies break: these three
experiments compare the policy set under the scenario models of
:mod:`repro.workload.scenarios`:

* ``flash_crowd`` -- sudden hotspot migration,
* ``diurnal`` -- day/night load cycles with anti-phase update traffic,
* ``update_storm`` -- correlated update bursts on the cached hotspot,
* ``cache_adversary`` -- eviction-busting cyclic/scan access sized just
  past the cache capacity.

All three run their grid points with ``streaming=True`` by default: the
workers replay the lazily-generated model streams directly, demonstrating
the constant-memory pipeline end to end (results are byte-identical to a
materialised replay; the equivalence tests pin that).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.results import ComparisonResult
from repro.sim.runner import DEFAULT_POLICIES
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint


@dataclass
class ScenarioModelResult:
    """Policy comparison under one scenario-diversity workload model."""

    model: str
    comparison: ComparisonResult
    streaming: bool

    @property
    def vcover_over_nocache(self) -> float:
        """VCover traffic relative to NoCache (< 1 means caching still wins)."""
        return self.comparison.ratio("vcover", "nocache")


def format_report(result: ScenarioModelResult) -> str:
    """Comparison table plus the headline caching ratio for the model."""
    replay = "streaming" if result.streaming else "materialised"
    lines = [
        f"Scenario model: {result.model} ({replay} replay)",
        result.comparison.as_table(),
        f"vcover / nocache traffic: {result.vcover_over_nocache:.2f}x",
    ]
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> ScenarioModelResult:
    return ScenarioModelResult(
        # The grid builder pins the model regardless of the caller's config
        # (see _model_grid), so report the one that actually ran.
        model=context.extras["model"],
        comparison=context.sweep.comparison(),
        streaming=bool(context.knobs["streaming"]),
    )


def _model_grid(
    model: str, config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    """One point per policy over the model's (streaming) scenario source."""
    if config.workload_model != model:
        # The experiment names the model; a caller-supplied config keeps its
        # scale knobs but always runs the experiment's own workload shape.
        config = replace(config, workload_model=model)
    specs = config.policy_specs(include=knobs["policies"])
    engine = config.engine_config()
    points = tuple(
        SweepPoint(
            key=spec.name,
            spec=spec,
            cache_fraction=config.cache_fraction,
            engine=engine,
            seed=config.seed,
            streaming=bool(knobs["streaming"]),
        )
        for spec in specs
    )
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: ScenarioSpec(config, name=model)},
        context={"model": model},
    )


def run(
    model: str = "flash_crowd",
    config: Optional[ExperimentConfig] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    streaming: bool = True,
    jobs: int = 1,
) -> ScenarioModelResult:
    """Run one scenario-model experiment by model name (back-compat face)."""
    return execute(
        model,
        config=config,
        knobs={"policies": tuple(policies), "streaming": streaming},
        jobs=jobs,
    )


@register_experiment(
    name="flash_crowd",
    title="Flash-crowd workload: sudden hotspot migration",
    paper_ref="beyond the paper",
    description=(
        "Compares the policy set under flash crowds that abruptly migrate "
        "the query hotspot to fresh sky regions; replayed through the "
        "streaming trace pipeline."
    ),
    config=ExperimentConfig(workload_model="flash_crowd"),
    knobs={"policies": DEFAULT_POLICIES, "streaming": True},
    summarise=_summarise,
    format_result=format_report,
)
def _flash_crowd_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    return _model_grid("flash_crowd", config, knobs)


@register_experiment(
    name="diurnal",
    title="Diurnal workload: day/night load cycles",
    paper_ref="beyond the paper",
    description=(
        "Compares the policy set under sinusoidal day cycles where query "
        "traffic peaks while update traffic troughs (and vice versa); "
        "replayed through the streaming trace pipeline."
    ),
    config=ExperimentConfig(workload_model="diurnal"),
    knobs={"policies": DEFAULT_POLICIES, "streaming": True},
    summarise=_summarise,
    format_result=format_report,
)
def _diurnal_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    return _model_grid("diurnal", config, knobs)


@register_experiment(
    name="update_storm",
    title="Update-storm workload: correlated update bursts",
    paper_ref="beyond the paper",
    description=(
        "Compares the policy set under bursts of correlated updates that "
        "hammer contiguous sky blocks -- half the time the query hotspot "
        "itself; replayed through the streaming trace pipeline."
    ),
    config=ExperimentConfig(workload_model="update_storm"),
    knobs={"policies": DEFAULT_POLICIES, "streaming": True},
    summarise=_summarise,
    format_result=format_report,
)
def _update_storm_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    return _model_grid("update_storm", config, knobs)


@register_experiment(
    name="cache_adversary",
    title="Cache-adversary workload: eviction-busting cyclic scans",
    paper_ref="beyond the paper",
    description=(
        "Compares the policy set under a cyclic working set sized just past "
        "the cache capacity, punctured by sequential catalogue scans -- the "
        "recency-eviction worst case; replayed through the streaming trace "
        "pipeline."
    ),
    config=ExperimentConfig(workload_model="cache_adversary"),
    knobs={"policies": DEFAULT_POLICIES, "streaming": True},
    summarise=_summarise,
    format_result=format_report,
)
def _cache_adversary_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    return _model_grid("cache_adversary", config, knobs)
