"""Experiment E6 -- cache-size sensitivity (supporting, Section 6.1).

The paper sets the default cache to 30 % of the server after "varying the
parameters in the experiment to obtain the optimal value" and quotes the
headline result at 20 %.  This experiment sweeps the cache fraction and
reports VCover's (and optionally the other policies') final traffic, showing
the diminishing returns of a larger cache: most of the benefit is already
there at 20-30 % because the query hotspots are much smaller than the server.

The whole ``fraction x policy`` grid is one :class:`repro.sim.sweep.SweepRunner`
sweep over a single scenario, so ``jobs > 1`` runs the grid points in
parallel worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint

#: Default sweep of cache sizes, as fractions of the server size.
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.5, 0.75, 1.0)

#: Policies compared at every cache size by default.
DEFAULT_POLICIES = ("nocache", "benefit", "vcover", "soptimal")


@dataclass
class CacheSizeSweepResult:
    """Final traffic per policy for each cache fraction."""

    fractions: List[float]
    #: policy -> list of final measured traffic, one per fraction.
    traffic: Dict[str, List[float]]
    comparisons: List[ComparisonResult] = field(default_factory=list)

    def marginal_gain(self, policy: str = "vcover") -> List[float]:
        """Traffic saved by each step up in cache size (positive = helps)."""
        series = self.traffic[policy]
        return [earlier - later for earlier, later in zip(series, series[1:], strict=False)]


def run(
    config: Optional[ExperimentConfig] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    jobs: int = 1,
) -> CacheSizeSweepResult:
    """Sweep the cache size over the same scenario (trace built once)."""
    return execute(
        "cache_size",
        config=config,
        knobs={"fractions": tuple(fractions), "policies": tuple(policies)},
        jobs=jobs,
    )


def format_table(result: CacheSizeSweepResult) -> str:
    """Fixed-width table: one row per policy, one column per cache fraction."""
    header = f"{'policy':<10}" + "".join(f"{fraction:>10.0%}" for fraction in result.fractions)
    lines = ["Cache-size sweep -- final traffic (MB)", header]
    for policy, series in result.traffic.items():
        lines.append(f"{policy:<10}" + "".join(f"{value:>10.1f}" for value in series))
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> CacheSizeSweepResult:
    fractions = context.knobs["fractions"]
    policies = context.knobs["policies"]
    traffic: Dict[str, List[float]] = {name: [] for name in policies}
    comparisons: List[ComparisonResult] = []
    for fraction in fractions:
        comparison = context.sweep.comparison(fraction=fraction)
        comparisons.append(comparison)
        for name in policies:
            traffic[name].append(comparison.traffic_of(name))
    return CacheSizeSweepResult(
        fractions=list(fractions), traffic=traffic, comparisons=comparisons
    )


@register_experiment(
    name="cache_size",
    title="Cache-size sensitivity sweep",
    paper_ref="Section 6.1",
    description=(
        "Sweeps the cache fraction over one scenario and reports each "
        "policy's final traffic, showing the diminishing returns past the "
        "paper's 20-30% setting."
    ),
    knobs={"fractions": DEFAULT_FRACTIONS, "policies": DEFAULT_POLICIES},
    summarise=_summarise,
    format_result=format_table,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    specs = config.policy_specs(include=knobs["policies"])
    engine = config.engine_config()
    points = tuple(
        SweepPoint(
            key=f"{spec.name}@{fraction:g}",
            spec=spec,
            cache_fraction=fraction,
            engine=engine,
            seed=config.seed,
            tags=(("fraction", fraction),),
        )
        for fraction in knobs["fractions"]
        for spec in specs
    )
    # The recipe, not a built trace: workers rebuild it deterministically,
    # memoised per process, so nothing big crosses the pool boundary.
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: ScenarioSpec(config)},
    )
