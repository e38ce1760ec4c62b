"""Experiment E2 -- cumulative traffic cost (Figure 7b).

Figure 7(b) plots cumulative network traffic along the (post-warm-up) event
sequence for the two algorithms (VCover, Benefit) and the three yardsticks
(NoCache, Replica, SOptimal) with a cache 30 % of the server size.  The
paper's qualitative findings, which this experiment regenerates:

* VCover ends at roughly half of NoCache's traffic,
* VCover beats Benefit, which trails closer to NoCache,
* VCover beats Replica by roughly 1.5x,
* VCover tracks SOptimal, ending within a few tens of percent of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, Scenario
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.results import ComparisonResult
from repro.sim.runner import DEFAULT_POLICIES
from repro.sim.sweep import DEFAULT_SCENARIO, InlineScenario, SweepPoint

#: Policy order used in the paper's legend.
POLICY_ORDER = DEFAULT_POLICIES


@dataclass
class CumulativeTrafficResult:
    """The regenerated data behind Figure 7(b)."""

    comparison: ComparisonResult
    scenario: Scenario

    def final_costs(self) -> Dict[str, float]:
        """Final measured traffic per policy (the curves' endpoints)."""
        return {name: self.comparison.traffic_of(name) for name in self.comparison.runs}

    def series(self, policy: str) -> List[Tuple[int, float]]:
        """(event_index, cumulative traffic) samples for one policy's curve."""
        return self.comparison[policy].time_series.as_rows()

    def headline_ratios(self) -> Dict[str, float]:
        """The ratios the paper quotes in Section 6.2."""
        return self.comparison.summary()


def run(
    config: Optional[ExperimentConfig] = None,
    policies: Sequence[str] = POLICY_ORDER,
    jobs: int = 1,
) -> CumulativeTrafficResult:
    """Run the Figure 7(b) comparison on the default (or given) scenario.

    With ``jobs > 1`` the per-policy runs execute in parallel worker
    processes (results are identical to a serial run).
    """
    return execute(
        "fig7b", config=config, knobs={"policies": tuple(policies)}, jobs=jobs
    )


def format_table(result: CumulativeTrafficResult) -> str:
    """The figure's endpoint values as a fixed-width table."""
    lines = ["Figure 7(b) -- cumulative traffic cost (measured window)"]
    lines.append(result.comparison.as_table())
    ratios = result.headline_ratios()
    for key in ("nocache_over_vcover", "benefit_over_vcover", "replica_over_vcover",
                "vcover_over_soptimal"):
        if key in ratios:
            lines.append(f"{key:>24}: {ratios[key]:.2f}")
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> CumulativeTrafficResult:
    return CumulativeTrafficResult(
        comparison=context.sweep.comparison(),
        scenario=context.extras["scenario"],
    )


@register_experiment(
    name="fig7b",
    title="Cumulative traffic cost of every policy",
    paper_ref="Figure 7(b)",
    description=(
        "Replays the default workload against the two algorithms and three "
        "yardsticks at the paper's 30% cache, regenerating the cumulative "
        "traffic curves and their endpoint ratios."
    ),
    knobs={"policies": POLICY_ORDER},
    summarise=_summarise,
    format_result=format_table,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    scenario = ScenarioSpec(config).build()
    specs = config.policy_specs(include=knobs["policies"])
    engine = config.engine_config()
    points = tuple(
        SweepPoint(
            key=spec.name,
            spec=spec,
            cache_fraction=config.cache_fraction,
            engine=engine,
            seed=config.seed,
        )
        for spec in specs
    )
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: InlineScenario(scenario.catalog, scenario.trace)},
        context={"scenario": scenario},
    )
