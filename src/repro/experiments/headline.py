"""Experiment E5 -- the paper's headline claims (Section 6 text).

The abstract and Section 6 make three quantitative claims:

1. "Delta (using VCover) reduces the traffic by nearly half even with a cache
   that is one-fifth the size of the server repository."
2. "VCover outperforms Benefit by a factor that varies between 2-5 under
   different conditions."
3. VCover "closely follows SOptimal", ending roughly 40 % above it.

Claim 1 is specifically about a one-fifth cache, so it is measured with the
cache at 20 % of the server; claims 2 and 3 are quoted from the paper's
default setup (cache 30 %, Section 6.1), so they are measured there.
``docs/experiments.md`` records paper-vs-measured values for all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

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


@dataclass
class HeadlineResult:
    """Measured values for the paper's headline claims.

    ``small_cache_comparison`` holds the one-fifth-cache run (claim 1);
    ``default_comparison`` holds the paper's default 30 %-cache setup
    (claims 2 and 3).
    """

    small_cache_comparison: ComparisonResult
    default_comparison: ComparisonResult
    small_cache_fraction: float
    default_cache_fraction: float

    @property
    def traffic_reduction_vs_nocache(self) -> float:
        """Fraction of NoCache traffic VCover eliminates with a 1/5 cache (paper ~0.5)."""
        nocache = self.small_cache_comparison.traffic_of("nocache")
        vcover = self.small_cache_comparison.traffic_of("vcover")
        if nocache == 0:
            return 0.0
        return 1.0 - vcover / nocache

    @property
    def benefit_over_vcover(self) -> float:
        """Benefit traffic over VCover traffic at the default cache (paper: 2-5)."""
        return self.default_comparison.ratio("benefit", "vcover")

    @property
    def vcover_over_soptimal(self) -> float:
        """VCover traffic over SOptimal traffic at the default cache (paper: ~1.4)."""
        return self.default_comparison.ratio("vcover", "soptimal")

    def summary(self) -> Dict[str, float]:
        """Flat summary for reports and benchmark extra_info."""
        return {
            "small_cache_fraction": self.small_cache_fraction,
            "default_cache_fraction": self.default_cache_fraction,
            "traffic_reduction_vs_nocache": self.traffic_reduction_vs_nocache,
            "benefit_over_vcover": self.benefit_over_vcover,
            "vcover_over_soptimal": self.vcover_over_soptimal,
            **{f"default_{k}": v for k, v in self.default_comparison.summary().items()},
        }


def run(
    config: Optional[ExperimentConfig] = None,
    cache_fraction: float = 0.2,
    jobs: int = 1,
) -> HeadlineResult:
    """Measure the headline claims (registry-driven; kept for back-compat).

    Both cache sizes run as one ``fraction x policy`` sweep over a single
    scenario, so ``jobs > 1`` runs all ten policy runs in parallel.

    Parameters
    ----------
    config:
        Scenario configuration (the cache fraction inside it is used for the
        claims 2/3 run).
    cache_fraction:
        Cache size for the claim-1 run (the paper's "one-fifth of the server").
    jobs:
        Worker processes to fan the runs out over (1 = serial).
    """
    return execute(
        "headline",
        config=config,
        knobs={"small_cache_fraction": cache_fraction},
        jobs=jobs,
    )


def format_report(result: HeadlineResult) -> str:
    """The three headline claims, paper value vs measured."""
    lines = ["Headline claims (Section 6)"]
    lines.append(
        f"[cache {result.small_cache_fraction:.0%}] traffic reduction vs NoCache : "
        f"paper ~50%   measured {result.traffic_reduction_vs_nocache:.0%}"
    )
    lines.append(
        f"[cache {result.default_cache_fraction:.0%}] Benefit / VCover             : "
        f"paper 2-5x   measured {result.benefit_over_vcover:.2f}x"
    )
    lines.append(
        f"[cache {result.default_cache_fraction:.0%}] VCover / SOptimal            : "
        f"paper ~1.4x  measured {result.vcover_over_soptimal:.2f}x"
    )
    lines.append("")
    lines.append(f"cache = {result.small_cache_fraction:.0%} of server:")
    lines.append(result.small_cache_comparison.as_table())
    lines.append("")
    lines.append(f"cache = {result.default_cache_fraction:.0%} of server:")
    lines.append(result.default_comparison.as_table())
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> HeadlineResult:
    return HeadlineResult(
        small_cache_comparison=context.sweep.comparison(setup="small"),
        default_comparison=context.sweep.comparison(setup="default"),
        small_cache_fraction=context.knobs["small_cache_fraction"],
        default_cache_fraction=context.config.cache_fraction,
    )


@register_experiment(
    name="headline",
    title="Headline claims (traffic reduction, Benefit/VCover, VCover/SOptimal)",
    paper_ref="Section 6 text",
    description=(
        "Measures the paper's three quantitative claims: ~50% traffic "
        "reduction with a one-fifth cache, Benefit 2-5x above VCover, and "
        "VCover within ~1.4x of SOptimal."
    ),
    knobs={"small_cache_fraction": 0.2},
    summarise=_summarise,
    format_result=format_report,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    specs = config.policy_specs()
    engine = config.engine_config()
    fractions = [
        ("small", knobs["small_cache_fraction"]),
        ("default", config.cache_fraction),
    ]
    points = tuple(
        SweepPoint(
            key=f"{spec.name}@{label}",
            spec=spec,
            cache_fraction=fraction,
            engine=engine,
            seed=config.seed,
            tags=(("setup", label),),
        )
        for label, fraction in fractions
        for spec in specs
    )
    # The recipe, not a built trace: workers rebuild it deterministically,
    # memoised per process, so nothing big crosses the pool boundary.
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: ScenarioSpec(config)},
    )
