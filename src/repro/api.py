"""The stable public facade of the Delta reproduction.

Everything the CLI and the examples need is reachable from this one
module; its functions are the supported entry points and their
signatures are kept stable:

* :func:`list_experiments` / :func:`get_experiment` -- enumerate the
  declarative experiment registry,
* :func:`run_experiment` -- run a registered experiment with flat overrides
  (``{"query_count": 400, "fractions": (0.1, 0.3)}``) and optional worker
  parallelism,
* :func:`load_scenario` / :func:`run_scenario` -- run a scenario declared as
  pure data (a :class:`~repro.experiments.spec.ScenarioSpec`, possibly read
  from a JSON/TOML file) against any subset of policies,
* :func:`format_result` -- render an experiment result the way its module's
  ``format_*`` helper does,
* :func:`ingest_scenario` -- read a CSV/JSONL/parquet query log, fit the
  scenario knobs to it and return the replayable
  :class:`~repro.experiments.spec.ScenarioSpec` (the library face of
  ``repro ingest``),
* :func:`run_lint` -- run the repro static analyser (determinism and
  contract rules) over a path set (the library face of ``repro lint``),
* :func:`run_loadgen` -- serve a scenario through the asyncio cache
  middleware and drive it with the closed-loop load harness, returning the
  load report and a ``repro.bench/v2`` payload with measured latency
  percentiles (the library face of ``repro loadgen``; see
  :mod:`repro.serve`).

Quickstart::

    from repro import api

    for name in api.list_experiments():
        print(name, "-", api.get_experiment(name).title)

    result = api.run_experiment(
        "headline", overrides={"query_count": 1500, "update_count": 1500}, jobs=4
    )
    print(api.format_result("headline", result))

    spec = api.load_scenario("my_scenario.json")
    comparison = api.run_scenario(spec, policies=("nocache", "vcover"))
    print(comparison.as_table())
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    DuplicateExperimentError,
    ExperimentSpec,
    InvalidOverrideError,
    UnknownExperimentError,
    UnknownOverrideError,
    experiment_names,
    experiment_specs,
    get_experiment,
    run_experiment,
)
from repro.experiments.spec import (
    ScenarioError,
    ScenarioSpec,
    ingest_scenario,
    load_scenario,
    save_scenario,
)
from repro.sim.results import ComparisonResult
from repro.sim.runner import DEFAULT_POLICIES, compare_policies, default_policy_specs
from repro.workload.fuzz import (
    CompositionSpec,
    FuzzError,
    is_composition_file,
    load_composition,
)
from repro.workload.ingest import CalibrationResult, IngestError

__all__ = [
    "DEFAULT_POLICIES",
    "CalibrationResult",
    "CompositionSpec",
    "DuplicateExperimentError",
    "ExperimentConfig",
    "ExperimentSpec",
    "FuzzError",
    "IngestError",
    "InvalidOverrideError",
    "ScenarioError",
    "ScenarioSpec",
    "UnknownExperimentError",
    "UnknownOverrideError",
    "experiment_specs",
    "format_result",
    "get_experiment",
    "ingest_scenario",
    "list_experiments",
    "load_scenario",
    "run_experiment",
    "run_lint",
    "run_loadgen",
    "run_scenario",
    "save_scenario",
]


def list_experiments() -> List[str]:
    """Names of every registered experiment, in listing order."""
    return experiment_names()


def run_lint(
    paths: Sequence[Union[str, Path]] = ("src", "tests"),
    *,
    rule: Optional[str] = None,
):
    """Run the repro static analyser and return its ``LintReport``.

    ``report.ok`` is True when no error-severity finding survived
    suppression filtering; ``report.to_dict()`` is the JSON payload the
    CLI emits under ``--format json``.  ``rule`` narrows the run to one
    rule id.  See :mod:`repro.lint` for the rule catalogue.
    """
    from repro.lint import run_lint as _run_lint

    return _run_lint(paths, rule=rule)


def run_loadgen(
    config: Optional[ExperimentConfig] = None,
    policy: str = "vcover",
    clients: int = 4,
    connect: Optional[tuple] = None,
    with_latency_model: bool = False,
):
    """Serve a scenario and load it; returns ``(LoadReport, payload)``.

    Boots an in-process :class:`~repro.serve.server.CacheServer` (or, with
    ``connect=(host, port)``, drives an already-running ``repro serve``
    process built from the same scenario config) and replays the scenario
    trace through N closed-loop clients.  The payload validates against
    ``repro.bench/v2`` and carries measured p50/p99/p999 per-request
    latency; ``with_latency_model`` adds the analytic
    :class:`~repro.core.latency.LatencyModel` predictions side by side.
    """
    from repro.core.latency import LatencyModel
    from repro.serve.harness import run_loadgen as _run_loadgen

    return _run_loadgen(
        config=config,
        policy=policy,
        clients=clients,
        connect=connect,
        latency_model=LatencyModel() if with_latency_model else None,
    )


def format_result(name: str, result: object) -> str:
    """Render an experiment result with its registered formatter.

    Falls back to ``repr(result)`` for experiments without one.
    """
    spec = get_experiment(name)
    if spec.format_result is None:
        return repr(result)
    return spec.format_result(result)


def run_scenario(
    scenario: Union[ScenarioSpec, ExperimentConfig, CompositionSpec, str, Path],
    policies: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_fraction: Optional[float] = None,
    cache_capacity: Optional[float] = None,
    streaming: bool = False,
) -> ComparisonResult:
    """Run a declarative scenario against several policies.

    Parameters
    ----------
    scenario:
        A :class:`ScenarioSpec`, a bare :class:`ExperimentConfig`, a
        :class:`~repro.workload.fuzz.CompositionSpec` (e.g. a composition
        file read back with :func:`repro.workload.fuzz.load_composition`),
        or a path to a JSON/TOML scenario file (see :func:`load_scenario`) or
        to a composition file (told apart by its top-level ``segments`` key).
    policies:
        Policy names to compare, each at most once (default: the full paper
        set, :data:`DEFAULT_POLICIES`).
    jobs:
        Worker processes for the per-policy runs (1 = serial; results are
        identical either way).
    cache_fraction / cache_capacity:
        Cache size override; defaults to the scenario config's (or the
        composition's) ``cache_fraction`` (the absolute capacity wins if
        both are given).
    streaming:
        When ``True``, replay the scenario through its lazily-generated
        :class:`~repro.workload.trace.TraceStream` instead of materialising
        the trace first.  Results are byte-identical either way (the
        equivalence tests pin this); streaming keeps memory constant in the
        trace length, at the price of regenerating events on each pass.
    """
    include = tuple(policies) if policies else DEFAULT_POLICIES
    repeated = sorted({name for name in include if include.count(name) > 1})
    if repeated:
        raise ValueError(f"policies repeats {', '.join(map(repr, repeated))}; name each once")
    if isinstance(scenario, (str, Path)):
        if is_composition_file(scenario):
            scenario = load_composition(scenario)
        else:
            scenario = load_scenario(scenario)
    if isinstance(scenario, ExperimentConfig):
        scenario = ScenarioSpec(scenario)
    if isinstance(scenario, CompositionSpec):
        # A composition carries its own cache_fraction (its adversary
        # segment is sized against it) and replays at the engine defaults.
        specs = default_policy_specs(include=include)
        engine = None
        default_fraction = scenario.cache_fraction
    else:
        config = scenario.config
        specs = config.policy_specs(include=include)
        engine = config.engine_config()
        default_fraction = config.cache_fraction
    fraction = default_fraction if cache_fraction is None else cache_fraction
    if streaming:
        # Hand workers the recipe; each realises the stream lazily and
        # replays it without materialising the event list.
        return compare_policies(
            None,
            None,
            cache_fraction=fraction,
            cache_capacity=cache_capacity,
            specs=specs,
            engine_config=engine,
            jobs=jobs,
            source=scenario,
            streaming=True,
        )
    catalog, trace = scenario.realise()
    return compare_policies(
        catalog,
        trace,
        cache_fraction=fraction,
        cache_capacity=cache_capacity,
        specs=specs,
        engine_config=engine,
        jobs=jobs,
    )
