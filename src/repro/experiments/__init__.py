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

Importing this package registers nothing: the registry imports the
experiment modules on its first read or write, and lists them in the order
of :data:`repro.experiments.registry.BUILTIN_EXPERIMENTS`, so a process that
needs only :mod:`repro.experiments.config` (``repro serve``) never imports
them.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "ExperimentConfig": "repro.experiments.config",
    "ExperimentContext": "repro.experiments.registry",
    "ExperimentGrid": "repro.experiments.registry",
    "ExperimentSpec": "repro.experiments.registry",
    "Scenario": "repro.experiments.config",
    "ScenarioError": "repro.experiments.spec",
    "ScenarioSpec": "repro.experiments.spec",
    "build_scenario": "repro.experiments.config",
    "build_scenario_stream": "repro.experiments.config",
    "load_scenario": "repro.experiments.spec",
    "register_experiment": "repro.experiments.registry",
    "registry": "repro.experiments.registry",
    "ablations": "repro.experiments.ablations",
    "fig7a": "repro.experiments.fig7a",
    "figures": "repro.experiments.figures",
    "fuzzed": "repro.experiments.fuzzed",
    "warmup": "repro.experiments.warmup",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
