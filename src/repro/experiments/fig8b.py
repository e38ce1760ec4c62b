"""Experiment E4 -- choice of object granularity (Figure 8b).

Figure 8(b) replays the same workload against partitionings of the sky into
10, 20, 68, 91, 134, 285 and 532 data objects and plots VCover's cumulative
traffic for each.  The paper's finding: performance improves sharply as
objects get smaller (less cache space is wasted, hotspot decoupling is finer)
down to roughly the 91-object level, then slowly degrades again because very
small objects make it less likely that a whole query footprint is resident.

Because the partitionings differ, the query/update traces are regenerated per
level from the *same* generator seeds and the same total traffic volumes, so
the only thing that changes is the granularity at which the sky is cut --
mirroring how the paper re-partitions the same underlying table.

Each level is one grid point of a :class:`repro.sim.sweep.SweepRunner` sweep
(the scenario is rebuilt inside the worker from its config recipe), so
``jobs > 1`` replays the levels in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.repository.catalog import PARTITION_LEVELS
from repro.sim.results import RunResult
from repro.sim.runner import default_policy_specs
from repro.sim.sweep import SweepPoint


@dataclass
class GranularityResult:
    """VCover's traffic for each object-count level."""

    object_counts: List[int]
    #: object count -> final measured traffic.
    traffic: Dict[int, float]
    #: object count -> cumulative series (event index, traffic).
    series: Dict[int, List[Tuple[int, float]]]
    runs: Dict[int, RunResult] = field(default_factory=dict)

    def best_level(self) -> int:
        """The object count with the lowest final traffic."""
        return min(self.traffic, key=self.traffic.get)


def run(
    config: Optional[ExperimentConfig] = None,
    object_counts: Sequence[int] = PARTITION_LEVELS,
    policy: str = "vcover",
    jobs: int = 1,
) -> GranularityResult:
    """Replay the workload against every requested partitioning level."""
    return execute(
        "fig8b",
        config=config,
        knobs={"object_counts": tuple(object_counts), "policy": policy},
        jobs=jobs,
    )


def format_table(result: GranularityResult) -> str:
    """Fixed-width table of final traffic per object-count level."""
    lines = ["Figure 8(b) -- VCover traffic for different object granularities"]
    lines.append(f"{'objects':>10} {'traffic (MB)':>14} {'cache answers':>14}")
    for object_count in result.object_counts:
        run_result = result.runs[object_count]
        lines.append(
            f"{object_count:>10} {result.traffic[object_count]:>14.1f} "
            f"{run_result.cache_answer_fraction:>14.2%}"
        )
    lines.append(f"best level: {result.best_level()} objects")
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> GranularityResult:
    traffic: Dict[int, float] = {}
    series: Dict[int, List[Tuple[int, float]]] = {}
    runs: Dict[int, RunResult] = {}
    for point_result in context.sweep.points:
        object_count = point_result.point.tag("object_count")
        run_result = point_result.run
        traffic[object_count] = run_result.measured_traffic
        series[object_count] = run_result.time_series.as_rows()
        runs[object_count] = run_result
    return GranularityResult(
        object_counts=list(context.knobs["object_counts"]),
        traffic=traffic,
        series=series,
        runs=runs,
    )


@register_experiment(
    name="fig8b",
    title="Object-granularity sweep (sky partitioning levels)",
    paper_ref="Figure 8(b)",
    description=(
        "Replays the same workload against partitionings of the sky into "
        "10..532 data objects; traffic improves sharply down to ~91 objects "
        "and then slowly degrades."
    ),
    knobs={"object_counts": PARTITION_LEVELS, "policy": "vcover"},
    summarise=_summarise,
    format_result=format_table,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    spec = default_policy_specs(include=(knobs["policy"],))[0]
    scenarios: Dict[str, ScenarioSpec] = {}
    points: List[SweepPoint] = []
    for object_count in knobs["object_counts"]:
        level_config = replace(config, object_count=object_count)
        scenario_name = f"objects-{object_count}"
        scenarios[scenario_name] = ScenarioSpec(level_config, name=scenario_name)
        points.append(
            SweepPoint(
                key=f"{spec.name}-{object_count}",
                spec=spec,
                scenario=scenario_name,
                cache_fraction=config.cache_fraction,
                engine=level_config.engine_config(),
                seed=config.seed,
                tags=(("object_count", object_count),),
            )
        )
    return ExperimentGrid(points=tuple(points), scenarios=scenarios)
