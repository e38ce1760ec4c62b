"""Multi-policy experiment runner.

Every experiment in the paper compares several policies over the same trace.
:func:`compare_policies` does exactly that: each policy replays on a fresh
one-site kernel from :func:`build_site` (its own repository -- replaying
updates mutates server-side object sizes, so policies must not share one --
and its own link), and the results are collected into a
:class:`repro.sim.results.ComparisonResult`.
With ``jobs > 1`` the per-policy runs are fanned out over worker processes
via :class:`repro.sim.sweep.SweepRunner`; results are identical either way.

Policies are described by :class:`PolicySpec` -- a name plus a factory -- so
experiments can parameterise policy construction (cache size, VCover/Benefit
configuration) without the runner knowing about any specific policy.  The
factories are the policy classes themselves, or :func:`functools.partial`
bindings of a config over one (never lambdas or closures), so that every
spec can be pickled to a sweep worker process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.benefit import BenefitConfig
from repro.core.policy import BaseCachePolicy
from repro.core.roster import POLICY_CLASSES, is_online
from repro.core.vcover import VCoverConfig
from repro.network.cost import TrafficCostModel
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.engine import DecisionHook, EngineConfig, ReplayKernel
from repro.sim.results import ComparisonResult, RunResult
from repro.workload.trace import InlineScenario, TraceStream

#: Every policy the runner can build by name, in report order: the paper's
#: two algorithms plus the three yardsticks
#: (:data:`repro.core.roster.POLICY_CLASSES`).
DEFAULT_POLICIES = tuple(POLICY_CLASSES)

#: Policies the served path supports: the online ones (an offline policy
#: prepares from the full trace, which a server never has).  Evaluated once,
#: here: the Delta benchmark's tracer swaps ``prepare`` on the policy classes
#: while a traced pass records, so the predicate must not be re-run per call.
SERVABLE_POLICIES = tuple(
    name for name, policy_class in POLICY_CLASSES.items() if is_online(policy_class)
)

#: Signature of a policy factory: (repository, capacity, link) -> policy.
PolicyFactory = Callable[[Repository, float, NetworkLink], BaseCachePolicy]


@dataclass(frozen=True)
class PolicySpec:
    """A named policy constructor used by the runner.

    The factory must be picklable (a policy class, a module-level function,
    or a :func:`functools.partial` over one) so the spec can cross a process
    boundary when a sweep runs with ``jobs > 1``.
    """

    name: str
    factory: PolicyFactory


def policy_spec(
    policy: str, config: Optional[object] = None, name: Optional[str] = None
) -> PolicySpec:
    """Spec for the roster policy ``policy``, optionally configured and renamed.

    Every policy class already has the factory signature and defaults its
    own config, so the factory is the class itself, or a ``partial`` binding
    ``config`` -- both pickle by reference.
    """
    policy_class = POLICY_CLASSES[policy]
    factory = policy_class if config is None else partial(policy_class, config=config)
    return PolicySpec(name or policy, factory)


def check_online(spec: PolicySpec, policy: BaseCachePolicy) -> None:
    """Refuse ``spec``'s built ``policy`` if it is offline.

    The :class:`~repro.sim.delta.Delta` facade and the served path step
    their policy event by event and never call ``prepare``, so a spec that
    builds an offline policy (one whose class overrides ``prepare``, e.g.
    SOptimal) is rejected whatever it is named.
    """
    if not is_online(type(policy)):
        raise ValueError(
            f"policy spec {spec.name!r} builds {type(policy).__name__}, which "
            "needs offline preparation over the full trace; the served path only "
            "sees events as they arrive -- serve an online policy "
            f"({', '.join(SERVABLE_POLICIES)})"
        )


def nocache_spec(name: str = "nocache") -> PolicySpec:
    """Spec for the NoCache yardstick."""
    return policy_spec("nocache", name=name)


def replica_spec(name: str = "replica") -> PolicySpec:
    """Spec for the Replica yardstick."""
    return policy_spec("replica", name=name)


def soptimal_spec(name: str = "soptimal") -> PolicySpec:
    """Spec for the SOptimal hindsight yardstick."""
    return policy_spec("soptimal", name=name)


def benefit_spec(
    config: Optional[BenefitConfig] = None, name: str = "benefit"
) -> PolicySpec:
    """Spec for the Benefit baseline, optionally with a custom config."""
    return policy_spec("benefit", config, name)


def vcover_spec(
    config: Optional[VCoverConfig] = None, name: str = "vcover"
) -> PolicySpec:
    """Spec for the VCover algorithm, optionally with a custom config."""
    return policy_spec("vcover", config, name)


def default_policy_specs(
    vcover_config: Optional[VCoverConfig] = None,
    benefit_config: Optional[BenefitConfig] = None,
    include: Sequence[str] = DEFAULT_POLICIES,
) -> List[PolicySpec]:
    """The paper's two algorithms plus three yardsticks.

    Parameters
    ----------
    vcover_config / benefit_config:
        Optional configuration overrides.
    include:
        Which policies to build specs for (in the returned order).
    """
    unknown = [name for name in include if name not in POLICY_CLASSES]
    if unknown:
        raise ValueError(f"unknown policy names {unknown}; known: {sorted(DEFAULT_POLICIES)}")
    configs = {"vcover": vcover_config, "benefit": benefit_config}
    return [policy_spec(name, configs.get(name)) for name in include]


def build_site(
    catalog: ObjectCatalog,
    spec: PolicySpec,
    cache_capacity: float,
    engine_config: Optional[EngineConfig] = None,
    on_decision: Optional[DecisionHook] = None,
    cost_model: Optional[TrafficCostModel] = None,
) -> ReplayKernel:
    """One cache site: a fresh repository and link, ``spec``'s policy, one kernel.

    Every one-site replay is built here -- a run, a served cache, a
    :class:`~repro.sim.delta.Delta` deployment and the instrumented replays
    of the experiments; a fleet (:func:`repro.sim.multicache.run_topology`)
    builds its own.  Reach the repository and the link through
    ``kernel.policies[0].repository`` and ``.link``.
    """
    repository = Repository(catalog)
    link = NetworkLink(cost_model)
    policy = spec.factory(repository, cache_capacity, link)
    return ReplayKernel(repository, [policy], [link], engine_config, on_decision=on_decision)


def run_policy(
    spec: PolicySpec,
    catalog: ObjectCatalog,
    trace: TraceStream,
    cache_capacity: float,
    engine_config: Optional[EngineConfig] = None,
) -> RunResult:
    """Run one policy over one trace on a fresh :func:`build_site`.

    ``trace`` may be any :class:`~repro.workload.trace.TraceStream`; the
    run's memory footprint is bounded by the cache state, not the trace
    length.
    """
    site_runs, _ = build_site(catalog, spec, cache_capacity, engine_config).run(trace)
    return site_runs[0]


def compare_policies(
    catalog: Optional[ObjectCatalog],
    trace: Optional[TraceStream],
    cache_fraction: Optional[float] = None,
    specs: Optional[Sequence[PolicySpec]] = None,
    engine_config: Optional[EngineConfig] = None,
    cache_capacity: Optional[float] = None,
    jobs: int = 1,
    source: Optional[object] = None,
    streaming: bool = False,
) -> ComparisonResult:
    """Run several policies over the same trace and collect the results.

    Parameters
    ----------
    catalog:
        Object catalogue shared by all runs (each run gets its own
        repository built from it).  May be ``None`` when ``source`` is
        given (workers realise the catalogue themselves).
    trace:
        The event sequence.  May be ``None`` when ``source`` is given.
    cache_fraction:
        Cache capacity as a fraction of the catalogue's total size; defaults
        to :data:`repro.sim.sweep.DEFAULT_CACHE_FRACTION` (the paper's 0.3).
        Ignored when ``cache_capacity`` is given.
    specs:
        Policies to run; defaults to the full paper set.
    engine_config:
        Engine configuration (sampling, measurement window).
    cache_capacity:
        Absolute cache capacity in MB, overriding ``cache_fraction``.
    jobs:
        Worker processes to fan the per-policy runs out over (1 = serial).
        Each run is isolated either way, so the results are identical.
    source:
        Optional :class:`~repro.workload.trace.ScenarioSource` handed to the
        workers instead of the prebuilt ``(catalog, trace)`` pair -- the
        recipe crosses the process boundary and each worker realises it
        (memoised per process).
    streaming:
        When ``True`` the per-policy runs replay the scenario's
        lazily-generated :class:`~repro.workload.trace.TraceStream`
        (realised via ``source.realise_stream()``) instead of a
        materialised trace.  Results are byte-identical either way.
    """
    # Imported here: sweep builds on this module, so the module-level import
    # goes sweep -> runner and only this function takes the reverse edge.
    from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint, SweepRunner

    if source is None:
        if catalog is None or trace is None:
            raise ValueError("compare_policies needs either (catalog, trace) or a source")
        source = InlineScenario(catalog, trace)
    specs = list(specs) if specs is not None else default_policy_specs()
    points = [
        SweepPoint(
            key=spec.name,
            spec=spec,
            scenario=DEFAULT_SCENARIO,
            cache_fraction=cache_fraction,
            cache_capacity=cache_capacity,
            engine=engine_config or EngineConfig(),
            streaming=streaming,
        )
        for spec in specs
    ]
    sweep = SweepRunner(jobs=jobs).run(points, scenarios={DEFAULT_SCENARIO: source})
    runs: Dict[str, RunResult] = {
        result.point.spec.name: result.run for result in sweep.points
    }
    if trace is not None:
        description = trace.describe()
    else:
        description = sweep.points[0].trace_description if sweep.points else {}
    return ComparisonResult(runs=runs, trace_description=description)
