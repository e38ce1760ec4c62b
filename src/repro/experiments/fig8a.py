"""Experiment E3 -- varying the number of updates (Figure 8a).

Figure 8(a) keeps the query workload fixed and sweeps the number of updates
(the paper sweeps 125k..375k against 250k queries), reporting each policy's
*final* traffic.  The qualitative findings to regenerate:

* NoCache is flat -- it never ships updates, so more updates cost it nothing,
* Replica grows linearly -- it ships every update, so tripling the updates
  triples its cost,
* VCover, Benefit and SOptimal grow only slightly -- they compensate for a
  hotter update stream by caching fewer (or different) objects.

The sweep is expressed as multipliers of the baseline update count; update
*traffic* scales proportionally with update count, as in the paper (each
update's size distribution is unchanged; there are simply more of them).

Each multiplier defines its own scenario, so the grid is handed to
:class:`repro.sim.sweep.SweepRunner` as declarative recipes
(:class:`repro.experiments.spec.ScenarioSpec`): workers rebuild each
scenario deterministically from its seeds, memoised per process, and
``jobs > 1`` runs the ``multiplier x policy`` grid in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

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
from repro.sim.sweep import SweepPoint

#: Default sweep: x0.5 .. x1.5 of the baseline update count (paper: 125k..375k
#: against a 250k baseline).
DEFAULT_MULTIPLIERS = (0.5, 0.75, 1.0, 1.25, 1.5)


@dataclass
class UpdateSweepResult:
    """Final traffic per policy for each update-count multiplier."""

    multipliers: List[float]
    update_counts: List[int]
    #: policy name -> list of final measured traffic, one per multiplier.
    traffic: Dict[str, List[float]]
    comparisons: List[ComparisonResult] = field(default_factory=list)

    def growth(self, policy: str) -> float:
        """Ratio of the policy's traffic at the largest vs. smallest sweep point."""
        series = self.traffic[policy]
        if not series or series[0] == 0:
            return float("inf")
        return series[-1] / series[0]


def run(
    config: Optional[ExperimentConfig] = None,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    jobs: int = 1,
) -> UpdateSweepResult:
    """Run the update-count sweep."""
    return execute(
        "fig8a",
        config=config,
        knobs={"multipliers": tuple(multipliers), "policies": tuple(policies)},
        jobs=jobs,
    )


def format_table(result: UpdateSweepResult) -> str:
    """Fixed-width table: one row per policy, one column per update count."""
    header = f"{'policy':<10}" + "".join(f"{count:>12}" for count in result.update_counts)
    lines = ["Figure 8(a) -- final traffic (MB) for varying number of updates", header]
    for policy, series in result.traffic.items():
        lines.append(f"{policy:<10}" + "".join(f"{value:>12.1f}" for value in series))
    lines.append("")
    for policy in result.traffic:
        lines.append(f"growth x{result.multipliers[-1]/result.multipliers[0]:.1f} updates -> "
                     f"{policy}: x{result.growth(policy):.2f}")
    return "\n".join(lines)


def _swept_config(config: ExperimentConfig, multiplier: float) -> ExperimentConfig:
    """The per-multiplier scenario config (update traffic scales with count)."""
    return replace(
        config,
        update_count=int(round(config.update_count * multiplier)),
        # Update traffic scales with the number of updates (same per-update
        # size distribution), exactly as in the paper's sweep.
        update_traffic_fraction=config.update_traffic_fraction * multiplier,
    )


def _summarise(context: ExperimentContext) -> UpdateSweepResult:
    multipliers = context.knobs["multipliers"]
    policies = context.knobs["policies"]
    traffic: Dict[str, List[float]] = {name: [] for name in policies}
    comparisons: List[ComparisonResult] = []
    for multiplier in multipliers:
        comparison = context.sweep.comparison(multiplier=multiplier)
        comparisons.append(comparison)
        for name in policies:
            traffic[name].append(comparison.traffic_of(name))
    return UpdateSweepResult(
        multipliers=list(multipliers),
        update_counts=[
            _swept_config(context.config, multiplier).update_count
            for multiplier in multipliers
        ],
        traffic=traffic,
        comparisons=comparisons,
    )


@register_experiment(
    name="fig8a",
    title="Final traffic while sweeping the number of updates",
    paper_ref="Figure 8(a)",
    description=(
        "Keeps the query workload fixed and sweeps the update count; NoCache "
        "stays flat, Replica grows linearly, and the caching policies "
        "compensate with only slight growth."
    ),
    knobs={"multipliers": DEFAULT_MULTIPLIERS, "policies": DEFAULT_POLICIES},
    summarise=_summarise,
    format_result=format_table,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    specs = config.policy_specs(include=knobs["policies"])
    scenarios: Dict[str, ScenarioSpec] = {}
    points: List[SweepPoint] = []
    for multiplier in knobs["multipliers"]:
        swept = _swept_config(config, multiplier)
        scenario_name = f"updates-x{multiplier:g}"
        scenarios[scenario_name] = ScenarioSpec(swept, name=scenario_name)
        engine = swept.engine_config()
        points.extend(
            SweepPoint(
                key=f"{spec.name}-x{multiplier:g}",
                spec=spec,
                scenario=scenario_name,
                cache_fraction=config.cache_fraction,
                engine=engine,
                seed=config.seed,
                tags=(("multiplier", multiplier),),
            )
            for spec in specs
        )
    return ExperimentGrid(points=tuple(points), scenarios=scenarios)
