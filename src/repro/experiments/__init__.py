"""Experiment harness: one registered experiment per table/figure of the paper.

Every experiment module declares itself to the registry in
:mod:`repro.experiments.registry` via :func:`register_experiment`: a default
:class:`~repro.experiments.config.ExperimentConfig`, experiment-specific
knobs, a grid builder producing sweep points and scenario sources, and a
summarise hook.  One shared driver executes them all; each module also keeps
its ``run(...)`` function (a thin wrapper over the driver) plus a
``format_*`` helper producing the rows the paper reports.

Importing this package imports every experiment module, which populates the
registry -- :mod:`repro.api` relies on that.  The shared scenario layer lives
in :mod:`repro.experiments.spec` (:class:`ScenarioSpec`) and
:mod:`repro.experiments.config`; the mapping from paper figure/table to
module is documented in ``docs/experiments.md``.
"""

from repro.experiments import registry
from repro.experiments import (
    ablations,
    adaptive,
    cache_size,
    fig7a,
    fig7b,
    fig8a,
    fig8b,
    fuzzed,
    headline,
    multisite,
    scenarios,
    warmup,
)
from repro.experiments.config import (
    ExperimentConfig,
    Scenario,
    build_scenario,
    build_scenario_stream,
)
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    ExperimentSpec,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec, ScenarioError, load_scenario

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "ExperimentGrid",
    "ExperimentSpec",
    "Scenario",
    "ScenarioError",
    "ScenarioSpec",
    "build_scenario",
    "build_scenario_stream",
    "load_scenario",
    "register_experiment",
    "registry",
    "ablations",
    "cache_size",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fuzzed",
    "headline",
    "multisite",
    "scenarios",
    "warmup",
]
