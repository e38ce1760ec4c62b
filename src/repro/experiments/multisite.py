"""Experiment E9 -- scaling the cache fleet (ours).

The paper evaluates one middleware cache; its deployment setting has many
client sites, each fronted by its own cache, all sharing one repository.
This experiment asks how VCover behaves as that fleet grows: the same
workload is partitioned across 1, 2, 4 and 8 sites (sky-region slices by
default), updates are broadcast to every site, and each site runs its own
policy instance over its own link.

Compared policies: VCover with its default GDS eviction, VCover over
LRU/Landlord eviction (does the paper's eviction choice still matter when
each site sees a thinner query stream?), and the NoCache yardstick (whose
traffic is independent of the site count -- every query is shipped
regardless of where it lands).  The headline check: VCover's fleet-wide
traffic stays at or below the yardstick at every site count.

One ``site count x policy`` sweep grid; every point is an independent
multi-cache replay, so ``jobs=N`` fans the grid out over worker processes
with results identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.vcover import VCoverConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.results import RunResult
from repro.sim.runner import PolicySpec, nocache_spec, vcover_spec
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint
from repro.topology.spec import TopologySpec

#: Site counts the experiment sweeps (the fleet-growth axis).
DEFAULT_SITE_COUNTS = (1, 2, 4, 8)

#: Policies compared at every site count.
DEFAULT_POLICIES = ("vcover", "vcover-lru", "vcover-landlord", "nocache")

#: The yardstick policy VCover is held against.
YARDSTICK = "nocache"


def _policy_spec(name: str) -> PolicySpec:
    """Resolve one experiment policy name to a picklable spec."""
    if name == "vcover":
        return vcover_spec()
    if name == "vcover-lru":
        return vcover_spec(VCoverConfig(eviction_policy="lru"), name="vcover-lru")
    if name == "vcover-landlord":
        return vcover_spec(
            VCoverConfig(eviction_policy="landlord"), name="vcover-landlord"
        )
    if name == "nocache":
        return nocache_spec()
    raise ValueError(
        f"unknown multisite policy {name!r}; known: {DEFAULT_POLICIES}"
    )


@dataclass
class MultisiteResult:
    """Fleet-wide traffic per policy and site count."""

    site_counts: List[int]
    policies: List[str]
    strategy: str
    #: Aggregate run (fleet-wide) per ``(policy, site_count)``.
    runs: Dict[Tuple[str, int], RunResult] = field(default_factory=dict)

    def traffic(self, policy: str, site_count: int, measured_only: bool = True) -> float:
        """Fleet-wide traffic of one grid point."""
        run = self.runs[(policy, site_count)]
        return run.measured_traffic if measured_only else run.total_traffic

    def site_traffic(self, policy: str, site_count: int) -> List[float]:
        """Per-site measured traffic of one grid point (from folded stats)."""
        run = self.runs[(policy, site_count)]
        return [
            run.policy_stats[f"site{site}_measured_traffic"]
            for site in range(site_count)
        ]

    def vcover_within_yardstick(self, tolerance: float = 0.0) -> bool:
        """Whether VCover stays at or below the yardstick at every site count."""
        if "vcover" not in self.policies or YARDSTICK not in self.policies:
            return True
        return all(
            self.traffic("vcover", count)
            <= self.traffic(YARDSTICK, count) * (1.0 + tolerance)
            for count in self.site_counts
        )

    def summary(self) -> Dict[str, float]:
        """Flat summary for reports and benchmark extra_info."""
        data: Dict[str, float] = {}
        for (policy, count), run in self.runs.items():
            data[f"{policy}_x{count}_traffic"] = run.measured_traffic
            data[f"{policy}_x{count}_cache_answer_fraction"] = run.cache_answer_fraction
        return data


def run(
    config: Optional[ExperimentConfig] = None,
    site_counts: Sequence[int] = DEFAULT_SITE_COUNTS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    strategy: str = "region",
    jobs: int = 1,
) -> MultisiteResult:
    """Run the fleet-growth grid.

    Parameters
    ----------
    config:
        Scenario configuration; its ``cache_fraction`` sizes every site's
        cache (each site gets that fraction of the server).
    site_counts:
        Fleet sizes to sweep.
    policies:
        Policy names from :data:`DEFAULT_POLICIES`.
    strategy:
        Object-to-site assignment strategy (``"region"`` or ``"affinity"``).
    jobs:
        Worker processes to fan the grid out over (1 = serial).
    """
    return execute(
        "multisite",
        config=config,
        knobs={
            "site_counts": tuple(site_counts),
            "policies": tuple(policies),
            "strategy": strategy,
        },
        jobs=jobs,
    )


def format_table(result: MultisiteResult) -> str:
    """Measured fleet traffic (MB): one row per site count, one column per policy."""
    width = max(12, *(len(name) + 2 for name in result.policies))
    header = f"{'sites':<6}" + "".join(f"{name:>{width}}" for name in result.policies)
    lines = [f"Fleet growth (strategy={result.strategy})", header]
    for count in result.site_counts:
        row = f"{count:<6}"
        for policy in result.policies:
            row += f"{result.traffic(policy, count):>{width}.1f}"
        lines.append(row)
    verdict = "yes" if result.vcover_within_yardstick() else "NO"
    lines.append(f"vcover <= {YARDSTICK} at every site count: {verdict}")
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> MultisiteResult:
    result = MultisiteResult(
        site_counts=list(context.knobs["site_counts"]),
        policies=list(context.knobs["policies"]),
        strategy=context.knobs["strategy"],
    )
    for point_result in context.sweep.points:
        policy = point_result.point.tag("policy")
        count = point_result.point.tag("sites")
        result.runs[(policy, count)] = point_result.run
    return result


@register_experiment(
    name="multisite",
    title="Fleet growth: one workload over 1/2/4/8 cache sites",
    paper_ref="(ours)",
    description=(
        "Partitions the query stream across a growing fleet of caches "
        "sharing one repository (updates broadcast) and checks that "
        "VCover's fleet-wide traffic stays at or below the NoCache "
        "yardstick at every site count."
    ),
    knobs={
        "site_counts": DEFAULT_SITE_COUNTS,
        "policies": DEFAULT_POLICIES,
        "strategy": "region",
    },
    summarise=_summarise,
    format_result=format_table,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    engine = config.engine_config()
    specs = [(name, _policy_spec(name)) for name in knobs["policies"]]
    points = tuple(
        SweepPoint(
            key=f"{name}-x{count}",
            spec=spec,
            engine=engine,
            seed=config.seed,
            tags=(("sites", count), ("policy", name)),
            topology=TopologySpec.uniform(
                spec,
                count,
                cache_fraction=config.cache_fraction,
                strategy=knobs["strategy"],
            ),
        )
        for count in knobs["site_counts"]
        for name, spec in specs
    )
    # The recipe, not a built trace: workers rebuild it deterministically,
    # memoised per process, so nothing big crosses the pool boundary.
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: ScenarioSpec(config)},
    )
