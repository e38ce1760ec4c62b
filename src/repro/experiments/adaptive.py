"""Experiment E14 -- adaptive meta-policy vs the static roster (beyond the paper).

The ``adaptive_vs_static`` experiment asks the question the adaptive layer
exists to answer: over a diverse set of workloads -- every scenario model
plus seeded adversarial draws from the scenario fuzzer -- how close does the
:class:`~repro.core.adaptive.AdaptivePolicy` get to the *per-workload best*
static policy, without being told which workload it is facing?  A static
policy can only win the workloads it suits; the meta-policy is scored
against the best static on each scenario separately, the hardest honest
yardstick short of the offline optimum (which the per-epoch regret numbers
in each adaptive run's :class:`~repro.sim.results.RunResult` cover).

A scenario counts as a *win* when the adaptive policy's total traffic is
within ``tolerance`` (default 2%) of the best static's -- "beats or
matches".  The report prints one row per scenario with the ratio, the
switch count and the summed regret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.adaptive import ADAPTIVE_CANDIDATES
from repro.experiments.config import WORKLOAD_MODELS, ExperimentConfig
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.engine import EngineConfig
from repro.sim.results import ComparisonResult
from repro.sim.sweep import ScenarioSource, SweepPoint
from repro.workload.fuzz import draw_composition_spec

#: Static policies the meta-policy is compared against by default (its own
#: shadowable candidates; SOptimal is excluded because an online policy
#: cannot be expected to match a hindsight schedule on every workload).
DEFAULT_STATIC_POLICIES = ADAPTIVE_CANDIDATES

#: Seeds for the adversarial fuzzer draws included alongside the models.
DEFAULT_FUZZ_SEEDS = (5,)

#: Relative slack under which "matches the best static" is declared.
DEFAULT_TOLERANCE = 0.02


@dataclass
class AdaptiveScenarioRow:
    """Adaptive vs best-static outcome for one scenario."""

    scenario: str
    comparison: ComparisonResult
    adaptive_traffic: float
    best_static: str
    best_static_traffic: float
    switches: float
    regret_total: Optional[float]

    @property
    def ratio(self) -> float:
        """Adaptive traffic over the best static's (<= 1 means it won)."""
        if self.best_static_traffic == 0.0:
            return 1.0 if self.adaptive_traffic == 0.0 else float("inf")
        return self.adaptive_traffic / self.best_static_traffic


@dataclass
class AdaptiveVsStaticResult:
    """Per-scenario rows plus the experiment-level win count."""

    rows: List[AdaptiveScenarioRow]
    tolerance: float

    def wins(self) -> int:
        """Scenarios where adaptive beat or matched the best static."""
        return sum(1 for row in self.rows if row.ratio <= 1.0 + self.tolerance)


def format_report(result: AdaptiveVsStaticResult) -> str:
    """One row per scenario: adaptive vs the per-scenario best static."""
    lines = [
        f"{'scenario':<24} {'adaptive (MB)':>14} {'best static':>18} "
        f"{'ratio':>7} {'switches':>9} {'regret':>10}",
    ]
    for row in result.rows:
        regret = f"{row.regret_total:.1f}" if row.regret_total is not None else "-"
        verdict = "=" if row.ratio <= 1.0 + result.tolerance else ">"
        lines.append(
            f"{row.scenario:<24} {row.adaptive_traffic:>14.1f} "
            f"{row.best_static:>10} {row.best_static_traffic:>7.1f} "
            f"{row.ratio:>6.3f}{verdict} {row.switches:>8.0f} {regret:>10}"
        )
    lines.append(
        f"adaptive beats or matches the best static on {result.wins()} of "
        f"{len(result.rows)} scenarios (tolerance {result.tolerance:.0%})"
    )
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> AdaptiveVsStaticResult:
    rows: List[AdaptiveScenarioRow] = []
    for scenario_name in context.extras["scenario_names"]:
        comparison = context.sweep.comparison(source=scenario_name)
        adaptive_run = comparison["adaptive"]
        statics = {
            name: run.total_traffic
            for name, run in comparison.runs.items()
            if name != "adaptive"
        }
        best_traffic, best_name = min(
            (traffic, name) for name, traffic in statics.items()
        )
        regret = adaptive_run.regret
        rows.append(
            AdaptiveScenarioRow(
                scenario=scenario_name,
                comparison=comparison,
                adaptive_traffic=adaptive_run.total_traffic,
                best_static=best_name,
                best_static_traffic=best_traffic,
                switches=adaptive_run.policy_stats.get("switches", 0.0),
                regret_total=regret.get("total") if regret else None,
            )
        )
    return AdaptiveVsStaticResult(
        rows=rows, tolerance=float(context.knobs["tolerance"])
    )


@register_experiment(
    name="adaptive_vs_static",
    title="Adaptive meta-policy vs the per-workload best static policy",
    paper_ref="beyond the paper",
    description=(
        "Runs the adaptive meta-policy and the static roster over every "
        "scenario model plus seeded adversarial fuzzer draws, scoring the "
        "meta-policy against the best static policy of each scenario "
        "separately; per-epoch regret vs the offline decoupling optimum is "
        "reported for every adaptive run."
    ),
    config=ExperimentConfig(object_count=32, query_count=1500, update_count=1500),
    knobs={
        "policies": DEFAULT_STATIC_POLICIES,
        "models": WORKLOAD_MODELS,
        "fuzz_seeds": DEFAULT_FUZZ_SEEDS,
        "tolerance": DEFAULT_TOLERANCE,
        "streaming": True,
    },
    summarise=_summarise,
    format_result=format_report,
)
def _adaptive_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    """Adaptive plus the static roster over each model and fuzzer draw."""
    statics: Tuple[str, ...] = tuple(knobs["policies"])  # type: ignore[arg-type]
    specs = config.policy_specs(include=(*statics, "adaptive"))
    streaming = bool(knobs["streaming"])
    scenarios: Dict[str, ScenarioSource] = {}
    points: List[SweepPoint] = []
    scenario_names: List[str] = []

    def add_scenario(
        name: str,
        source: ScenarioSource,
        cache_fraction: float,
        engine: EngineConfig,
        seed: int,
    ) -> None:
        scenarios[name] = source
        scenario_names.append(name)
        points.extend(
            SweepPoint(
                key=f"{spec.name}-{name}",
                spec=spec,
                scenario=name,
                cache_fraction=cache_fraction,
                engine=engine,
                seed=seed,
                tags=(("source", name),),
                streaming=streaming,
            )
            for spec in specs
        )

    for model in knobs["models"]:  # type: ignore[attr-defined]
        model_config = config.scaled(workload_model=str(model))
        add_scenario(
            str(model),
            ScenarioSpec(model_config, name=str(model)),
            cache_fraction=model_config.cache_fraction,
            engine=model_config.engine_config(),
            seed=model_config.seed,
        )
    for fuzz_seed in knobs["fuzz_seeds"]:  # type: ignore[attr-defined]
        composition = draw_composition_spec(int(fuzz_seed))
        name = f"fuzz-{int(fuzz_seed)}"
        add_scenario(
            name,
            composition,
            cache_fraction=composition.cache_fraction,
            engine=EngineConfig(sample_every=config.sample_every),
            seed=composition.seed,
        )
    return ExperimentGrid(
        points=tuple(points),
        scenarios=scenarios,
        context={"scenario_names": tuple(scenario_names)},
    )
