"""Experiment E8 -- ablations of Delta's design choices (ours).

The paper motivates several design decisions without isolating their impact.
This experiment quantifies them on the standard scenario:

* **Loading mechanism** -- randomized cost attribution (the paper's choice,
  space-efficient) vs. explicit per-object counters (the behaviour it
  emulates in expectation).
* **Eviction policy** -- Greedy-Dual-Size (the paper's choice) vs. LRU, LFU
  and Landlord.
* **Benefit window and smoothing** -- sensitivity of the Benefit baseline to
  its two tuning knobs, supporting the paper's point that heuristic
  approaches are brittle.
* **Preshipping** -- the response-time extension sketched in the paper's
  discussion: proactively pushing updates for recently used cached objects
  reduces the fraction of queries delayed by synchronous update shipping, at
  the cost of some extra update traffic.

Every variant is a picklable :class:`repro.sim.runner.PolicySpec` built with
:func:`repro.sim.runner.vcover_spec` / :func:`repro.sim.runner.benefit_spec`,
and each ablation runs its variants as one :class:`repro.sim.sweep.SweepRunner`
sweep, so ``jobs > 1`` runs them in parallel worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.benefit import BenefitConfig
from repro.core.decoupling import QueryOutcome
from repro.core.latency import LatencyModel, ResponseTimeSummary, summarise_response_times
from repro.core.vcover import VCoverConfig
from repro.experiments.config import ExperimentConfig, Scenario, build_scenario
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.results import RunResult
from repro.sim.runner import PolicySpec, benefit_spec, build_site, vcover_spec
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint, SweepRunner
from repro.workload.trace import InlineScenario

#: The sweep-shaped ablations the registered experiment runs, in order.
DEFAULT_ABLATIONS = ("loading", "eviction", "benefit")

#: Eviction policies compared by the eviction ablation.
DEFAULT_EVICTION_POLICIES = ("gds", "lru", "lfu", "landlord")

#: Benefit-window sizes probed by the sensitivity ablation.
DEFAULT_WINDOWS = (250, 500, 1000, 2000)

#: Benefit smoothing parameters probed by the sensitivity ablation.
DEFAULT_ALPHAS = (0.1, 0.3, 0.6, 0.9)


@dataclass
class AblationResult:
    """Final measured traffic for every ablated variant."""

    #: variant label -> final measured traffic.
    traffic: Dict[str, float] = field(default_factory=dict)
    runs: Dict[str, RunResult] = field(default_factory=dict)

    def record(self, label: str, run_result: RunResult) -> None:
        """Add one variant's outcome."""
        self.traffic[label] = run_result.measured_traffic
        self.runs[label] = run_result

    def relative_to(self, baseline: str) -> Dict[str, float]:
        """Every variant's traffic normalised to a baseline variant."""
        base = self.traffic[baseline]
        if base == 0:
            return {label: float("inf") for label in self.traffic}
        return {label: value / base for label, value in self.traffic.items()}


def _run_variants(
    variants: Sequence[Tuple[str, PolicySpec]],
    config: ExperimentConfig,
    scenario: Scenario,
    jobs: int,
) -> AblationResult:
    """Run labelled policy variants over one scenario as a single sweep."""
    points = [
        SweepPoint(
            key=spec.name,
            spec=spec,
            cache_capacity=scenario.cache_capacity,
            engine=config.engine_config(),
            seed=config.seed,
            tags=(("label", label),),
        )
        for label, spec in variants
    ]
    sweep = SweepRunner(jobs=jobs).run(
        points,
        scenarios={DEFAULT_SCENARIO: InlineScenario(scenario.catalog, scenario.trace)},
    )
    result = AblationResult()
    for point_result in sweep.points:
        result.record(point_result.point.tag("label"), point_result.run)
    return result


def _loading_variants(config: ExperimentConfig) -> List[Tuple[str, PolicySpec]]:
    """Randomized vs counter-based loading in the LoadManager."""
    return [
        (
            label,
            vcover_spec(
                VCoverConfig(randomized_loading=randomized), name=f"vcover-{label}"
            ),
        )
        for label, randomized in (("randomized", True), ("counter", False))
    ]


def _eviction_variants(
    config: ExperimentConfig, policies: Sequence[str]
) -> List[Tuple[str, PolicySpec]]:
    """GDS vs LRU vs LFU vs Landlord as the LoadManager's object cache."""
    specs = config.policy_specs(include=[f"vcover-{name}" for name in policies])
    return list(zip(policies, specs, strict=True))


def _benefit_variants(
    config: ExperimentConfig, windows: Sequence[int], alphas: Sequence[float]
) -> List[Tuple[str, PolicySpec]]:
    """Benefit's sensitivity to its window size and smoothing parameter."""
    variants = [
        (
            f"window={window}",
            benefit_spec(BenefitConfig(window_size=window), name=f"benefit-w{window}"),
        )
        for window in windows
    ]
    variants.extend(
        (
            f"alpha={alpha}",
            benefit_spec(
                BenefitConfig(window_size=config.benefit_window, alpha=alpha),
                name=f"benefit-a{alpha}",
            ),
        )
        for alpha in alphas
    )
    return variants


def run_loading_ablation(
    config: Optional[ExperimentConfig] = None,
    scenario: Optional[Scenario] = None,
    jobs: int = 1,
) -> AblationResult:
    """Randomized vs counter-based loading in the LoadManager."""
    config = config or ExperimentConfig()
    scenario = scenario or build_scenario(config)
    return _run_variants(_loading_variants(config), config, scenario, jobs)


def run_eviction_ablation(
    config: Optional[ExperimentConfig] = None,
    scenario: Optional[Scenario] = None,
    policies: Sequence[str] = DEFAULT_EVICTION_POLICIES,
    jobs: int = 1,
) -> AblationResult:
    """GDS vs LRU vs LFU vs Landlord as the LoadManager's object cache."""
    config = config or ExperimentConfig()
    scenario = scenario or build_scenario(config)
    return _run_variants(_eviction_variants(config, policies), config, scenario, jobs)


def run_benefit_sensitivity(
    config: Optional[ExperimentConfig] = None,
    scenario: Optional[Scenario] = None,
    windows: Sequence[int] = DEFAULT_WINDOWS,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    jobs: int = 1,
) -> AblationResult:
    """Benefit's sensitivity to its window size and smoothing parameter."""
    config = config or ExperimentConfig()
    scenario = scenario or build_scenario(config)
    return _run_variants(
        _benefit_variants(config, windows, alphas), config, scenario, jobs
    )


@dataclass
class PreshipVariantResult:
    """Traffic plus response-time summary for one preshipping setting."""

    total_traffic: float
    response_times: ResponseTimeSummary


def run_preship_ablation(
    config: Optional[ExperimentConfig] = None,
    scenario: Optional[Scenario] = None,
    latency_model: Optional[LatencyModel] = None,
) -> Dict[str, PreshipVariantResult]:
    """Compare VCover with and without preshipping (traffic and latency).

    Preshipping is the paper's discussion-section extension: it cannot reduce
    traffic (it only ships updates earlier, sometimes unnecessarily) but it
    reduces the fraction of queries that must wait for synchronous update
    shipping before they can be answered at the cache.

    Runs serially: it needs the per-query outcome stream for the latency
    summary, which the sweep runner's aggregated results do not carry; the
    replay kernel hands it over through ``on_decision``.
    """
    config = config or ExperimentConfig()
    scenario = scenario or build_scenario(config)
    latency_model = latency_model or LatencyModel()
    results: Dict[str, PreshipVariantResult] = {}
    for label, preship in (("baseline", False), ("preship", True)):
        outcomes: List[QueryOutcome] = []

        def collect(payload: object, outcome: Optional[QueryOutcome]) -> None:
            if outcome is not None:
                outcomes.append(outcome)

        kernel = build_site(
            scenario.catalog,
            vcover_spec(VCoverConfig(preship=preship)),
            scenario.cache_capacity,
            config.engine_config(),
            on_decision=collect,
        )
        site_runs, _ = kernel.run(scenario.trace)
        results[label] = PreshipVariantResult(
            total_traffic=site_runs[0].total_traffic,
            response_times=summarise_response_times(outcomes, latency_model),
        )
    return results


def format_table(title: str, result: AblationResult) -> str:
    """Fixed-width table of variant traffic."""
    lines = [title, f"{'variant':<20} {'traffic (MB)':>14}"]
    for label, value in result.traffic.items():
        lines.append(f"{label:<20} {value:>14.1f}")
    return "\n".join(lines)


def format_all(results: Dict[str, AblationResult]) -> str:
    """All ablation tables, one block per ablation."""
    return "\n\n".join(
        format_table(f"Ablation: {name}", result) for name, result in results.items()
    )


def _variants_for(
    ablation: str, config: ExperimentConfig, knobs: Mapping[str, object]
) -> List[Tuple[str, PolicySpec]]:
    if ablation == "loading":
        return _loading_variants(config)
    if ablation == "eviction":
        return _eviction_variants(config, knobs["eviction_policies"])
    if ablation == "benefit":
        return _benefit_variants(config, knobs["windows"], knobs["alphas"])
    raise ValueError(f"unknown ablation {ablation!r}; known: {DEFAULT_ABLATIONS}")


def run(
    config: Optional[ExperimentConfig] = None,
    ablations: Sequence[str] = DEFAULT_ABLATIONS,
    jobs: int = 1,
) -> Dict[str, AblationResult]:
    """Run the selected sweep-shaped ablations as one grid.

    Returns ``{ablation name: AblationResult}``; the per-variant numbers are
    identical to the individual ``run_*_ablation`` functions (same specs,
    same scenario).  The preshipping ablation needs the per-query outcome
    stream and therefore stays separate (:func:`run_preship_ablation`).
    """
    return execute(
        "ablations", config=config, knobs={"ablations": tuple(ablations)}, jobs=jobs
    )


def _summarise(context: ExperimentContext) -> Dict[str, AblationResult]:
    results: Dict[str, AblationResult] = {}
    for ablation in context.knobs["ablations"]:
        result = AblationResult()
        for point_result in context.sweep.points:
            if point_result.point.tag("ablation") == ablation:
                result.record(point_result.point.tag("label"), point_result.run)
        results[ablation] = result
    return results


@register_experiment(
    name="ablations",
    title="Design-choice ablations (loading, eviction, Benefit knobs)",
    paper_ref="(ours)",
    description=(
        "Quantifies the paper's undocumented design decisions on the "
        "standard scenario: randomized vs counter loading, GDS vs "
        "LRU/LFU/Landlord eviction, and Benefit's window/alpha "
        "sensitivity -- all as one sweep grid."
    ),
    knobs={
        "ablations": DEFAULT_ABLATIONS,
        "eviction_policies": DEFAULT_EVICTION_POLICIES,
        "windows": DEFAULT_WINDOWS,
        "alphas": DEFAULT_ALPHAS,
    },
    summarise=_summarise,
    format_result=format_all,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    engine = config.engine_config()
    points = tuple(
        SweepPoint(
            key=f"{ablation}:{spec.name}",
            spec=spec,
            cache_fraction=config.cache_fraction,
            engine=engine,
            seed=config.seed,
            tags=(("ablation", ablation), ("label", label)),
        )
        for ablation in knobs["ablations"]
        for label, spec in _variants_for(ablation, config, knobs)
    )
    # The recipe, not a built trace: workers rebuild it deterministically,
    # memoised per process, and every variant name resolves before that.
    return ExperimentGrid(points=points, scenarios={DEFAULT_SCENARIO: ScenarioSpec(config)})
