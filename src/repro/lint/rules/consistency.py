"""REG001/REG002: cross-artifact consistency of the project registries.

Several registries in this repository have documentation (or test) shadows
that used to be kept honest only at runtime:

* every ``@register_experiment`` name must appear in ``docs/experiments.md``
  (the table is generated, but regeneration is a manual step -- a new
  experiment merged without the doc update ships an undocumented surface);
* the scenario-model registry ``STREAM_CLASSES`` in
  ``repro/workload/fuzz.py`` must agree with ``MODEL_NAMES`` in
  ``repro/workload/scenarios.py`` *and* with the per-model hypothesis knob
  strategies ``MODEL_KNOB_STRATEGIES`` in ``tests/strategies.py`` -- and
  every strategy knob must name a real constructor field of the model's
  stream class.  This used to be a bare ``assert`` at test-import time;
  as a lint rule it fails with a file/line before the test suite even runs.
* (REG002) every policy a user can name -- the engine policies listed in
  ``POLICY_NAMES`` in ``repro/sim/runner.py`` plus the eviction policies
  registered with ``registry.register(...)`` in ``repro/cache`` -- must be
  documented in ``docs/policies.md``.  A policy merged without its doc
  entry (or a doc page deleted out from under the roster) fails the lint,
  not a reader.

The rules read the artifacts through the AST (no imports), so they work on
a checkout whose dependencies are not installed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine_types import ModuleContext, ProjectContext
from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, register_rule

#: Project-relative artifact paths the rule stitches together.
_EXPERIMENTS_DIR = "src/repro/experiments"
_DOCS_PATH = "docs/experiments.md"
_FUZZ_PATH = "src/repro/workload/fuzz.py"
_SCENARIOS_PATH = "src/repro/workload/scenarios.py"
_STRATEGIES_PATH = "tests/strategies.py"

#: Stream fields supplied by composition plumbing, never by segment knobs
#: (mirrors ``repro.workload.fuzz._RESERVED_FIELDS``).
_RESERVED_FIELDS = frozenset(
    {"catalog", "query_count", "update_count", "mean_query_cost",
     "mean_update_cost", "seed"}
)


def _find_assignment(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value expression of a module-level ``name = ...`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                return node.value
    return None


def _string_keys(node: ast.expr) -> List[Tuple[str, int, int]]:
    """(key, line, col) for every constant-string key of a dict literal."""
    keys: List[Tuple[str, int, int]] = []
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append((key.value, key.lineno, key.col_offset))
    return keys


class _ClassFields:
    """Dataclass-style field names per class of one module (AST only)."""

    def __init__(self, tree: ast.Module) -> None:
        self._own: Dict[str, Set[str]] = {}
        self._bases: Dict[str, List[str]] = {}
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            self._own[node.name] = fields
            self._bases[node.name] = [
                base.id for base in node.bases if isinstance(base, ast.Name)
            ]

    def fields_of(self, class_name: str) -> Optional[Set[str]]:
        """Own plus (module-local) inherited field names, or None if unknown."""
        if class_name not in self._own:
            return None
        fields: Set[str] = set()
        stack = [class_name]
        seen: Set[str] = set()
        while stack:
            name = stack.pop()
            if name in seen or name not in self._own:
                continue
            seen.add(name)
            fields.update(self._own[name])
            stack.extend(self._bases.get(name, ()))
        return fields


@register_rule
class RegistryConsistency(ProjectRule):
    """REG001: registries and their documentation/test shadows must agree."""

    id = "REG001"
    title = "experiment/model registry out of sync with docs or strategies"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._check_experiment_docs(project)
        yield from self._check_model_knobs(project)

    # ------------------------------------------------------------------
    # Experiments vs docs/experiments.md
    # ------------------------------------------------------------------
    def _check_experiment_docs(self, project: ProjectContext) -> Iterator[Finding]:
        registrations = self._registered_experiments(project)
        if not registrations:
            return
        docs = project.read_text(_DOCS_PATH)
        if docs is None:
            first_path, first_line = registrations[0][1], registrations[0][2]
            yield Finding(
                rule=self.id,
                path=first_path,
                line=first_line,
                col=0,
                message=(
                    f"experiments are registered but {_DOCS_PATH} does not "
                    "exist; document the registry"
                ),
            )
            return
        for name, rel_path, line in registrations:
            if f"`{name}`" not in docs:
                yield Finding(
                    rule=self.id,
                    path=rel_path,
                    line=line,
                    col=0,
                    message=(
                        f"experiment {name!r} is registered here but missing "
                        f"from {_DOCS_PATH}; regenerate the table with "
                        "'repro experiment list --markdown'"
                    ),
                )

    def _registered_experiments(
        self, project: ProjectContext
    ) -> List[Tuple[str, str, int]]:
        """(name, rel_path, line) of every ``register_experiment`` call."""
        registrations: List[Tuple[str, str, int]] = []
        experiments_dir = project.root / _EXPERIMENTS_DIR
        if not experiments_dir.is_dir():
            return registrations
        for path in sorted(experiments_dir.glob("*.py")):
            rel = f"{_EXPERIMENTS_DIR}/{path.name}"
            module = project.module(rel)
            if module is None:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                func_name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if func_name != "register_experiment":
                    continue
                for keyword in node.keywords:
                    if (
                        keyword.arg == "name"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        registrations.append((keyword.value.value, rel, node.lineno))
        return registrations

    # ------------------------------------------------------------------
    # STREAM_CLASSES vs MODEL_NAMES vs MODEL_KNOB_STRATEGIES
    # ------------------------------------------------------------------
    def _check_model_knobs(self, project: ProjectContext) -> Iterator[Finding]:
        fuzz = project.module(_FUZZ_PATH)
        if fuzz is None:
            return
        stream_classes = _find_assignment(fuzz.tree, "STREAM_CLASSES")
        if not isinstance(stream_classes, ast.Dict):
            return
        model_to_class: Dict[str, str] = {}
        model_lines: Dict[str, int] = {}
        for key, value in zip(
            stream_classes.keys, stream_classes.values, strict=True
        ):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            model_lines[key.value] = key.lineno
            if isinstance(value, ast.Name):
                model_to_class[key.value] = value.id
        models = set(model_lines)

        scenarios = project.module(_SCENARIOS_PATH)
        if scenarios is not None:
            yield from self._check_model_names(fuzz, scenarios, models, model_lines)

        strategies = project.module(_STRATEGIES_PATH)
        if strategies is None:
            return
        knob_dict = _find_assignment(strategies.tree, "MODEL_KNOB_STRATEGIES")
        if not isinstance(knob_dict, ast.Dict):
            return

        strategy_models: Dict[str, Tuple[int, ast.expr]] = {}
        for key, value in zip(knob_dict.keys, knob_dict.values, strict=True):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            strategy_models[key.value] = (key.lineno, value)

        for model in sorted(models - set(strategy_models)):
            yield Finding(
                rule=self.id,
                path=fuzz.rel_path,
                line=model_lines[model],
                col=0,
                message=(
                    f"model {model!r} is in STREAM_CLASSES but has no entry in "
                    f"{_STRATEGIES_PATH} MODEL_KNOB_STRATEGIES; property tests "
                    "will never draw it"
                ),
            )
        for model in sorted(set(strategy_models) - models):
            yield Finding(
                rule=self.id,
                path=strategies.rel_path,
                line=strategy_models[model][0],
                col=0,
                message=(
                    f"MODEL_KNOB_STRATEGIES names unknown model {model!r}; "
                    f"STREAM_CLASSES in {_FUZZ_PATH} does not register it"
                ),
            )

        if scenarios is None:
            return
        class_fields = _ClassFields(scenarios.tree)
        for model, (line, value) in sorted(strategy_models.items()):
            if model not in model_to_class:
                continue
            fields = class_fields.fields_of(model_to_class[model])
            if fields is None:
                continue
            valid = fields - _RESERVED_FIELDS
            for knob, knob_line, _ in _string_keys(value):
                if knob not in valid:
                    yield Finding(
                        rule=self.id,
                        path=strategies.rel_path,
                        line=knob_line,
                        col=0,
                        message=(
                            f"knob {knob!r} for model {model!r} is not a "
                            f"constructor field of {model_to_class[model]} "
                            f"(valid: {', '.join(sorted(valid))})"
                        ),
                    )

    def _check_model_names(
        self,
        fuzz: ModuleContext,
        scenarios: ModuleContext,
        models: Set[str],
        model_lines: Dict[str, int],
    ) -> Iterator[Finding]:
        names_node = _find_assignment(scenarios.tree, "MODEL_NAMES")
        if not isinstance(names_node, (ast.Tuple, ast.List)):
            return
        declared = {
            element.value
            for element in names_node.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        }
        for model in sorted(models - declared):
            yield Finding(
                rule=self.id,
                path=fuzz.rel_path,
                line=model_lines[model],
                col=0,
                message=(
                    f"model {model!r} is in STREAM_CLASSES but missing from "
                    f"MODEL_NAMES in {_SCENARIOS_PATH}"
                ),
            )
        for model in sorted(declared - models):
            yield Finding(
                rule=self.id,
                path=scenarios.rel_path,
                line=names_node.lineno,
                col=0,
                message=(
                    f"MODEL_NAMES declares {model!r} but STREAM_CLASSES in "
                    f"{_FUZZ_PATH} does not register it"
                ),
            )


#: REG002 artifact paths.
_RUNNER_PATH = "src/repro/sim/runner.py"
_CACHE_DIR = "src/repro/cache"
_POLICY_DOCS_PATH = "docs/policies.md"


@register_rule
class PolicyDocsConsistency(ProjectRule):
    """REG002: every registered policy name must appear in docs/policies.md."""

    id = "REG002"
    title = "policy roster out of sync with docs/policies.md"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        policies = self._registered_policies(project)
        if not policies:
            return
        docs = project.read_text(_POLICY_DOCS_PATH)
        if docs is None:
            name, rel_path, line = policies[0]
            yield Finding(
                rule=self.id,
                path=rel_path,
                line=line,
                col=0,
                message=(
                    f"policies are registered but {_POLICY_DOCS_PATH} does "
                    "not exist; document the policy roster"
                ),
            )
            return
        for name, rel_path, line in policies:
            if f"`{name}`" not in docs:
                yield Finding(
                    rule=self.id,
                    path=rel_path,
                    line=line,
                    col=0,
                    message=(
                        f"policy {name!r} is registered here but missing from "
                        f"{_POLICY_DOCS_PATH}; add it to the policy roster"
                    ),
                )

    def _registered_policies(
        self, project: ProjectContext
    ) -> List[Tuple[str, str, int]]:
        """(name, rel_path, line) of every user-nameable policy.

        Two registries feed the roster: the engine policies enumerated by
        ``POLICY_NAMES`` in the sweep runner, and the eviction policies
        registered against the :mod:`repro.cache` registry.
        """
        policies: List[Tuple[str, str, int]] = []
        runner = project.module(_RUNNER_PATH)
        if runner is not None:
            names_node = _find_assignment(runner.tree, "POLICY_NAMES")
            if isinstance(names_node, (ast.Tuple, ast.List)):
                policies.extend(
                    (element.value, runner.rel_path, element.lineno)
                    for element in names_node.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
        cache_dir = project.root / _CACHE_DIR
        if cache_dir.is_dir():
            for path in sorted(cache_dir.glob("*.py")):
                rel = f"{_CACHE_DIR}/{path.name}"
                module = project.module(rel)
                if module is None:
                    continue
                for node in ast.walk(module.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if not (
                        isinstance(func, ast.Attribute) and func.attr == "register"
                    ):
                        continue
                    if (
                        node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)
                    ):
                        policies.append((node.args[0].value, rel, node.lineno))
        return policies

