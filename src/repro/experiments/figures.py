"""Every policy comparison as one table: a :class:`Figure` row per experiment.

Figure 7(b), Figure 8(a), Figure 8(b), the Section 6 headline claims, the
Section 6.1 cache-size choice, the fleet-growth experiment and the four
scenario models each replay one workload against a set of policies along one
axis: the cache fraction over one scenario recipe, a config transform with
one recipe per value, or a fleet of caches per site count.  A row of
:data:`FIGURES` declares its registry metadata, axis, policies and claims;
the experiment (one grid builder, summary and formatter for all rows), the
claims block of ``docs/experiments.md`` and ``tests/test_figure_claims.py``
derive from it.  A :class:`Claim` is a metric of the grid, the paper's value
as a band, the passage it comes from, and the gate tier-1 holds it to at the
row's ``tier1`` scale, looser than the band as the trace is ~40x shorter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import ExperimentContext, ExperimentGrid, register_experiment
from repro.experiments.spec import ScenarioSpec
from repro.repository.catalog import PARTITION_LEVELS
from repro.sim.results import ComparisonResult
from repro.sim.runner import DEFAULT_POLICIES, PolicySpec
from repro.sim.multicache import TopologySpec
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint

INF = float("inf")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else INF


@dataclass(frozen=True)
class Band:
    """An interval over a claim's metric; ``strict`` opens its finite ends."""

    low: float = -INF
    high: float = INF
    strict: bool = False

    def __contains__(self, value: float) -> bool:
        if self.strict:
            return self.low < value < self.high
        return self.low <= value <= self.high

    def describe(self, fmt: str) -> str:
        """``~v``, ``lo-hi`` or a one-sided bound, in ``fmt`` if it is a percent."""
        number = fmt if fmt.endswith("%") else "g"
        low, high = format(self.low, number), format(self.high, number)
        if self.low == self.high:
            return f"~{low}"
        if self.low == -INF:
            return f"{'<' if self.strict else '<='} {high}"
        if self.high == INF:
            return f"{'>' if self.strict else '>='} {low}"
        return f"{low}-{high}"


@dataclass(frozen=True)
class Claim:
    """One claim of the paper: a metric of the grid, its band, source and gate."""

    label: str
    metric: Callable[["FigureResult"], float]
    paper: Band
    source: str
    gate: Band
    fmt: str = ".2f"

    def measure(self, result: "FigureResult") -> Optional[float]:
        """The metric, or ``None`` when the grid lacks a policy or value it reads."""
        try:
            return float(self.metric(result))
        except (LookupError, ValueError):  # ValueError: min / max of an empty axis
            return None


def _knob_values(config: ExperimentConfig, values: object) -> Tuple:
    return tuple(values)


def _percent(config: ExperimentConfig, value: object) -> str:
    return f"{value:.0%}"


@dataclass(frozen=True)
class Axis:
    """The swept dimension of a figure.

    ``values(config, knob value)`` gives the axis values.  Without a
    ``transform`` each value is a cache fraction over the one scenario
    recipe; with one, each value is the recipe ``transform(config, value)``
    at the config's cache fraction.  On a ``fleet`` axis each value is a
    site count: the point replays a fleet of that many caches, each the
    config's cache fraction of the server, assigned by the ``strategy``
    knob the axis registers.  ``header(point config, value)`` labels the
    value's column in the printed table.
    """

    name: str
    knob: Optional[str] = None
    default: object = None
    values: Callable[[ExperimentConfig, object], Tuple] = _knob_values
    transform: Optional[Callable[[ExperimentConfig, object], ExperimentConfig]] = None
    header: Callable[[ExperimentConfig, object], str] = _percent
    fleet: bool = False

    def placement(self, config: ExperimentConfig, value: Any, spec: PolicySpec,
                  knobs: Mapping[str, object]) -> Dict[str, Any]:
        """Where one policy runs at ``value``: a cache fraction or a fleet."""
        if self.fleet:
            topology = TopologySpec.uniform(
                spec, value, cache_fraction=config.cache_fraction, strategy=knobs["strategy"]
            )
            return {"topology": topology}
        return {"cache_fraction": config.cache_fraction if self.transform else value}


@dataclass(frozen=True, eq=False)
class Figure:
    """One figure of the paper, declared: metadata, axis, policies, claims.

    ``policies`` is the default of the ``policy_knob`` experiment knob (a
    string names one policy), or the fixed set when there is no knob;
    ``tier1`` holds the flat overrides the claims test runs the row at.
    ``config`` is the experiment's default scenario config; a ``streaming``
    row registers the ``streaming`` knob, on by default, which replays every
    point through the lazy trace stream.  A row is its experiment's
    grid builder: the registry stores hooks as ``module:qualname``, and each
    row is bound to its name in this module.
    """

    name: str
    title: str
    paper_ref: str
    description: str
    axis: Axis
    tier1: Mapping[str, object]
    claims: Tuple[Claim, ...]
    policies: Union[str, Tuple[str, ...]] = DEFAULT_POLICIES
    policy_knob: Optional[str] = "policies"
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    streaming: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "__qualname__", self.name)

    def knobs(self) -> Dict[str, object]:
        """The experiment knobs the row registers, with their defaults."""
        knobs = {self.axis.knob: self.axis.default} if self.axis.knob else {}
        if self.policy_knob:
            knobs[self.policy_knob] = self.policies
        if self.axis.fleet:
            knobs["strategy"] = "region"
        if self.streaming:
            knobs["streaming"] = True
        return knobs

    def __call__(self, config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
        """Every policy at every axis value, axis-major, tagged by axis position."""
        names = knobs[self.policy_knob] if self.policy_knob else self.policies
        specs = config.policy_specs(include=(names,) if isinstance(names, str) else names)
        values = self.axis.values(config, knobs[self.axis.knob] if self.axis.knob else None)
        scenarios: Dict[str, ScenarioSpec] = {}
        points: List[SweepPoint] = []
        headers: List[str] = []
        for index, value in enumerate(values):
            swept, scenario = config, DEFAULT_SCENARIO
            if self.axis.transform is not None:
                swept, scenario = self.axis.transform(config, value), f"{self.name}-{index}"
            # The recipe, not a built trace: workers rebuild it
            # deterministically, memoised per process.
            scenarios[scenario] = ScenarioSpec(swept, name=scenario)
            headers.append(self.axis.header(swept, value))
            points.extend(
                SweepPoint(
                    key=f"{spec.name}@{index}",
                    spec=spec,
                    scenario=scenario,
                    engine=swept.engine_config(),
                    seed=config.seed,
                    tags=(("at", index),),
                    streaming=bool(knobs.get("streaming", False)),
                    **self.axis.placement(config, value, spec, knobs),
                )
                for spec in specs
            )
        return ExperimentGrid(
            points=tuple(points),
            scenarios=scenarios,
            context={"figure": self, "values": tuple(values), "headers": tuple(headers)},
        )


@dataclass
class FigureResult:
    """One figure's grid, summarised: a policy comparison per axis value."""

    figure: Figure
    axis: Tuple[object, ...]
    headers: Tuple[str, ...]
    comparisons: Tuple[ComparisonResult, ...]

    def at(self, value: object) -> ComparisonResult:
        """The comparison at one axis value (``KeyError`` off the grid)."""
        if value not in self.axis:
            raise KeyError(value)
        return self.comparisons[self.axis.index(value)]

    def series(self, policy: str) -> List[float]:
        """One policy's measured traffic along the axis."""
        return [comparison.traffic_of(policy) for comparison in self.comparisons]

    def growth(self, policy: str) -> float:
        """One policy's traffic at the last axis value over the first."""
        series = self.series(policy)
        return _ratio(series[-1], series[0])


def summarise(context: ExperimentContext) -> FigureResult:
    """The completed sweep, sliced back into one comparison per axis value."""
    values = context.extras["values"]
    return FigureResult(
        figure=context.extras["figure"],
        axis=values,
        headers=context.extras["headers"],
        comparisons=tuple(context.sweep.comparison(at=index) for index in range(len(values))),
    )


def format_figure(result: FigureResult) -> str:
    """The per-policy x axis table, then each claim: paper vs measured vs gate."""
    figure, spread = result.figure, len(result.axis) > 1
    policies = result.comparisons[0].policy_names() if result.comparisons else []
    width = max(10, *(len(header) + 2 for header in result.headers))

    def row(label: str, cells: List[str], last: str = "") -> str:
        return f"{label:<24}" + "".join(f"{cell:>{width}}" for cell in [*cells, last] if cell)

    growth = f"x{_ratio(result.axis[-1], result.axis[0]):.1f}" if spread else ""
    lines = [
        f"{figure.paper_ref} -- {figure.title}",
        row(f"traffic (MB) by {figure.axis.name}", list(result.headers), growth),
    ]
    for name in policies:
        last = f"x{result.growth(name):.2f}" if spread else ""
        lines.append(row(name, [f"{value:.1f}" for value in result.series(name)], last))
    ratios = [comparison.headline_ratios() for comparison in result.comparisons]
    for key in ratios[0] if ratios else ():
        lines.append(row(key, [f"{ratio[key]:.2f}" for ratio in ratios]))
    lines.append(row(f"cache answers by {figure.axis.name}", list(result.headers)))
    for name in policies:
        answers = [f"{c[name].cache_answer_fraction:.2%}" for c in result.comparisons]
        lines.append(row(name, answers))
    if figure.claims:
        lines += ["", f"{'claim':<40} {'paper':>8} {'measured':>9}  tier-1 gate"]
    for claim in figure.claims:
        value = claim.measure(result)
        measured = "n/a" if value is None else format(value, claim.fmt)
        verdict = "n/a" if value is None else "holds" if value in claim.gate else "fails"
        lines.append(
            f"{claim.label:<40} {claim.paper.describe(claim.fmt):>8} {measured:>9}  "
            f"{claim.gate.describe(claim.fmt)} ({verdict})"
        )
    return "\n".join(lines)


def _more_updates(config: ExperimentConfig, multiplier: float) -> ExperimentConfig:
    # Update traffic scales with the number of updates (same per-update size
    # distribution), exactly as in the paper's sweep.
    return replace(
        config,
        update_count=int(round(config.update_count * multiplier)),
        update_traffic_fraction=config.update_traffic_fraction * multiplier,
    )


def _saving(comparison: ComparisonResult) -> float:
    return comparison.traffic_of("nocache") - comparison.traffic_of("vcover")


def _best_level(result: FigureResult) -> object:
    series = result.series("vcover")
    return result.axis[series.index(min(series))]


def _spread(series: List[float]) -> float:
    return _ratio(max(series) - min(series), min(series))


fig7b = Figure(
    "fig7b", "Cumulative traffic cost of every policy", "Figure 7(b)",
    "Replays the default workload against the two algorithms and three yardsticks at the "
    "paper's 30% cache, regenerating the cumulative traffic curves and their endpoint ratios.",
    Axis("cache", values=lambda config, _: (config.cache_fraction,)),
    tier1={"query_count": 6000, "update_count": 6000},
    claims=(
        Claim("NoCache / VCover", lambda r: r.comparisons[0].ratio("nocache", "vcover"),
              Band(2, 2), "VCover ends at roughly half of NoCache's traffic", Band(1.3)),
        Claim("Replica / VCover", lambda r: r.comparisons[0].ratio("replica", "vcover"),
              Band(1.5, 1.5), "VCover beats Replica by roughly 1.5x", Band(1.1)),
        Claim("VCover / Benefit", lambda r: r.comparisons[0].ratio("vcover", "benefit"),
              Band(high=1, strict=True), "VCover beats Benefit, which trails closer to NoCache",
              Band(high=1.05)),
        Claim("VCover / SOptimal", lambda r: r.comparisons[0].ratio("vcover", "soptimal"),
              Band(1, 1.5), "VCover tracks SOptimal, ending within a few tens of percent of it",
              Band(1)),
    ),
)

fig8a = Figure(
    "fig8a", "Final traffic while sweeping the number of updates", "Figure 8(a)",
    "Keeps the query workload fixed and sweeps the update count; NoCache stays flat, Replica "
    "grows linearly, and the caching policies compensate with only slight growth.",
    # x0.5 .. x1.5 of the baseline update count (paper: 125k..375k updates
    # against 250k queries).
    Axis("updates", "multipliers", (0.5, 0.75, 1.0, 1.25, 1.5), transform=_more_updates,
         header=lambda config, _: str(config.update_count)),
    tier1={"query_count": 4000, "update_count": 4000, "multipliers": (0.5, 1.0, 1.5)},
    claims=(
        Claim("NoCache growth", lambda r: r.growth("nocache"), Band(1, 1),
              "NoCache is flat -- it never ships updates, so more updates cost it nothing",
              Band(0.95, 1.05)),
        Claim("Replica growth", lambda r: r.growth("replica"), Band(3, 3),
              "Replica grows linearly -- it ships every update, so tripling the updates "
              "triples its cost", Band(2.4, 3.6)),
        Claim("VCover, SOptimal growth / Replica's",
              lambda r: max(r.growth("vcover"), r.growth("soptimal")) / r.growth("replica"),
              Band(high=1, strict=True),
              "VCover, Benefit and SOptimal grow only slightly -- they compensate for a hotter "
              "update stream by caching fewer (or different) objects",
              Band(high=0.6, strict=True)),
        Claim("VCover / NoCache, worst point",
              lambda r: max(c.ratio("vcover", "nocache") for c in r.comparisons),
              Band(high=1, strict=True), "VCover stays below NoCache at every update count",
              Band(high=1, strict=True)),
    ),
)

fig8b = Figure(
    "fig8b", "Object-granularity sweep (sky partitioning levels)", "Figure 8(b)",
    "Replays the same workload against partitionings of the sky into 10..532 data objects "
    "and reports VCover's final traffic per level.",
    # Each level's trace is regenerated from the same generator seeds and
    # traffic volumes, so only the granularity of the cut changes -- as the
    # paper re-partitions the same underlying table.
    Axis("objects", "object_counts", PARTITION_LEVELS,
         transform=lambda config, count: replace(config, object_count=count),
         header=lambda config, _: str(config.object_count)),
    tier1={"query_count": 4000, "update_count": 4000},
    claims=(
        Claim("VCover at 68 objects / at 10",
              lambda r: r.at(68).traffic_of("vcover") / r.at(10).traffic_of("vcover"),
              Band(high=1, strict=True),
              "performance improves sharply as objects get smaller (less cache space is "
              "wasted, hotspot decoupling is finer)", Band(high=1, strict=True)),
        Claim("VCover best level (objects)", _best_level, Band(91, 91),
              "down to roughly the 91-object level, then slowly degrades again because very "
              "small objects make it less likely that a whole query footprint is resident",
              Band(10, strict=True), fmt="g"),
    ),
    policies="vcover",
    policy_knob="policy",
)

headline = Figure(
    "headline", "Headline claims (traffic reduction, Benefit/VCover, VCover/SOptimal)",
    "Section 6 text",
    "Measures the paper's three quantitative claims: the traffic reduction with a one-fifth "
    "cache, Benefit over VCover, and VCover over SOptimal at the default cache.",
    # Claim 1 is about a one-fifth cache; claims 2 and 3 are quoted from the
    # paper's default setup (the config's cache fraction, 30 %).
    Axis("cache", "small_cache_fraction", 0.2,
         values=lambda config, small: (small, config.cache_fraction)),
    tier1={"query_count": 6000, "update_count": 6000},
    claims=(
        Claim("traffic reduction vs NoCache, 1/5 cache",
              lambda r: 1 - r.comparisons[0].ratio("vcover", "nocache"), Band(0.5, 0.5),
              '"Delta (using VCover) reduces the traffic by nearly half even with a cache '
              'that is one-fifth the size of the server repository." (abstract, Section 6)',
              Band(0.25), fmt=".0%"),
        Claim("Benefit / VCover, default cache",
              lambda r: r.comparisons[-1].ratio("benefit", "vcover"), Band(2, 5),
              '"VCover outperforms Benefit by a factor that varies between 2-5 under '
              'different conditions." (Section 6)', Band(1)),
        Claim("VCover / SOptimal, default cache",
              lambda r: r.comparisons[-1].ratio("vcover", "soptimal"), Band(1.4, 1.4),
              'VCover "closely follows SOptimal", ending roughly 40 % above it (Section 6)',
              Band(high=3)),
    ),
    policy_knob=None,
)

cache_size = Figure(
    "cache_size", "Cache-size sensitivity sweep", "Section 6.1",
    "Sweeps the cache fraction over one scenario and reports each policy's final traffic: "
    "the evidence behind the paper's default cache size.",
    Axis("cache", "fractions", (0.1, 0.2, 0.3, 0.5, 0.75, 1.0)),
    tier1={"query_count": 4000, "update_count": 4000, "fractions": (0.1, 0.2, 0.3, 0.5, 1.0),
           "policies": ("nocache", "vcover", "soptimal")},
    claims=(
        Claim("NoCache spread, (max - min) / min", lambda r: _spread(r.series("nocache")),
              Band(0, 0), "NoCache holds no cache, so the cache size cannot move its traffic",
              Band(high=1e-6), fmt="g"),
        Claim("VCover at largest / smallest cache", lambda r: r.growth("vcover"), Band(high=1),
              "most of the benefit is already there at 20-30 % because the query hotspots "
              "are much smaller than the server", Band(high=1.1)),
        Claim("saving vs NoCache at 30% / at largest",
              lambda r: _ratio(_saving(r.at(0.3)), _saving(r.comparisons[-1])), Band(0.5, 1),
              'the default cache is 30 % of the server, set by "varying the parameters in '
              'the experiment to obtain the optimal value"', Band(0.5)),
    ),
    policies=("nocache", "benefit", "vcover", "soptimal"),
)

multisite = Figure(
    "multisite", "Fleet growth: one workload over 1/2/4/8 cache sites", "(ours)",
    "Partitions the query stream across a growing fleet of caches sharing one repository "
    "(updates broadcast) and checks that VCover's fleet-wide traffic stays at or below the "
    "NoCache yardstick at every site count.",
    # NoCache ships every query wherever it lands, so its traffic is the same
    # at every site count; VCover over LRU / Landlord asks whether the
    # eviction choice still matters when each site sees a thinner stream.
    Axis("sites", "site_counts", (1, 2, 4, 8), fleet=True,
         header=lambda config, count: str(count)),
    tier1={"object_count": 30, "query_count": 1200, "update_count": 1200, "sample_every": 300,
           "site_counts": (1, 2, 4), "policies": ("vcover", "nocache")},
    claims=(
        Claim("VCover / NoCache, worst site count",
              lambda r: max(c.ratio("vcover", "nocache") for c in r.comparisons),
              Band(high=1),
              "VCover's fleet-wide traffic stays at or below the NoCache yardstick at every "
              "site count (ours: the paper evaluates one cache)", Band(high=1)),
    ),
    policies=("vcover", "vcover-lru", "vcover-landlord", "nocache"),
)


def _scenario_model(name: str, title: str, description: str) -> Figure:
    """The policy set over one scenario model, streamed; no claims.

    The axis pins the model, so a caller's ``workload_model`` override keeps
    its scale knobs but still replays this row's model.
    """
    return Figure(
        name, title, "beyond the paper", description,
        Axis("model", values=lambda config, _: (name,),
             transform=lambda config, model: replace(config, workload_model=model),
             header=lambda config, model: str(model)),
        tier1={},
        claims=(),
        config=ExperimentConfig(workload_model=name),
        streaming=True,
    )


flash_crowd = _scenario_model(
    "flash_crowd", "Flash-crowd workload: sudden hotspot migration",
    "Compares the policy set under flash crowds that abruptly migrate the query hotspot to "
    "fresh sky regions; replayed through the streaming trace pipeline.",
)

diurnal = _scenario_model(
    "diurnal", "Diurnal workload: day/night load cycles",
    "Compares the policy set under sinusoidal day cycles where query traffic peaks while "
    "update traffic troughs (and vice versa); replayed through the streaming trace pipeline.",
)

update_storm = _scenario_model(
    "update_storm", "Update-storm workload: correlated update bursts",
    "Compares the policy set under bursts of correlated updates that hammer contiguous sky "
    "blocks -- half the time the query hotspot itself; replayed through the streaming trace "
    "pipeline.",
)

cache_adversary = _scenario_model(
    "cache_adversary", "Cache-adversary workload: eviction-busting cyclic scans",
    "Compares the policy set under a cyclic working set sized just past the cache capacity, "
    "punctured by sequential catalogue scans -- the recency-eviction worst case; replayed "
    "through the streaming trace pipeline.",
)

#: Every policy comparison: the paper's evaluation in paper order, then ours.
FIGURES: Dict[str, Figure] = {
    row.name: row
    for row in (fig7b, fig8a, fig8b, headline, cache_size, multisite,
                flash_crowd, diurnal, update_storm, cache_adversary)
}

for _row in FIGURES.values():
    register_experiment(
        name=_row.name,
        title=_row.title,
        paper_ref=_row.paper_ref,
        description=_row.description,
        config=_row.config,
        knobs=_row.knobs(),
        summarise=summarise,
        format_result=format_figure,
    )(_row)
