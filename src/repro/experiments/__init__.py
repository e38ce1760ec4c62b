"""Experiment harness: one registered experiment per table/figure of the paper.

Every experiment that compares a set of policies along one axis -- Figure
7(b), Figure 8(a), Figure 8(b), the Section 6 headline claims, the Section
6.1 cache-size choice, the fleet-growth experiment ``multisite`` and the
four scenario models -- is one table of rows in
:mod:`repro.experiments.figures`.  The others (``fig7a``, ``warmup``,
``ablations``, ``fuzzed``) are modules that declare themselves with
:func:`register_experiment`.  One driver
(:mod:`repro.experiments.registry`) executes them all; the mapping from
paper figure/table to experiment is documented in ``docs/experiments.md``.

Importing this package registers every experiment (:mod:`repro.api` relies
on it).  Registration order is the order ``repro experiment list`` prints,
so each figure row registers at its name's alphabetical place among the
modules.
"""

from repro.experiments import registry
from repro.experiments import ablations, figures

figures.register("cache_size")
from repro.experiments import fig7a

figures.register("fig7b", "fig8a", "fig8b")
from repro.experiments import fuzzed

figures.register(
    "headline", "multisite", "flash_crowd", "diurnal", "update_storm", "cache_adversary"
)
from repro.experiments import warmup
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
    "fig7a",
    "figures",
    "fuzzed",
    "warmup",
]
