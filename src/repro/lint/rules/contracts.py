"""Contract rules: PICK001 (picklability) and SLOT001 (hot-path slots).

PICK001 pins the sweep subsystem's process-boundary contract: anything
submitted to a :class:`concurrent.futures.ProcessPoolExecutor` -- directly
or via a :class:`~repro.sim.runner.PolicySpec` factory -- must be a
module-level callable, because lambdas and nested functions do not pickle.

SLOT001 pins PR 4's hot-path optimisation: the record classes replayed
millions of times per run stay ``__slots__``-declared, so an innocent
refactor cannot quietly re-grow per-instance ``__dict__``\\ s and give the
1.9x speedup back.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.astutil import ImportMap
from repro.lint.engine_types import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules import ModuleRule, register_rule

#: Constructor names that create a process pool.
_EXECUTOR_CONSTRUCTORS = frozenset({
    "ProcessPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
})

#: Methods of an executor that ship their callable to a worker process.
_SHIPPING_METHODS = frozenset({"submit", "map"})


def _is_executor_constructor(node: ast.AST, imports: ImportMap) -> bool:
    if not isinstance(node, ast.Call):
        return False
    target = imports.resolve_call(node)
    return target in _EXECUTOR_CONSTRUCTORS


@register_rule
class NonPicklableSubmission(ModuleRule):
    """PICK001: callables crossing a process boundary must be module-level."""

    id = "PICK001"
    title = "lambda or nested function shipped to a worker process"
    # Applies everywhere, tests included: a test that submits a lambda will
    # pass under fork and fail under spawn, the worst kind of flake.
    scope = ()

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        imports = module.imports
        executor_names = self._executor_bound_names(module.tree, imports)
        yield from self._check_scope(
            module, module.tree, executor_names, nested_defs=set()
        )

    def _executor_bound_names(self, tree: ast.Module, imports: ImportMap) -> Set[str]:
        """Names bound to a process pool via ``with ... as`` or assignment."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                for item in node.items:
                    if _is_executor_constructor(item.context_expr, imports) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign):
                if _is_executor_constructor(node.value, imports):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    def _check_scope(
        self,
        module: ModuleContext,
        scope: ast.AST,
        executor_names: Set[str],
        nested_defs: Set[str],
    ) -> Iterator[Finding]:
        """Walk one scope; recurse into nested functions with their defs."""
        inner_defs = set(nested_defs)
        is_function = isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        # Pass 1: collect the scope's own statements and its nested defs,
        # so a call site is always checked with the full def set in view
        # (a submit() above the def it names would otherwise slip through).
        children: List[ast.AST] = list(ast.iter_child_nodes(scope))
        body_functions: List[ast.AST] = []
        own_nodes: List[ast.AST] = []
        while children:
            node = children.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_function:
                    inner_defs.add(node.name)
                body_functions.append(node)
                continue
            if isinstance(node, ast.ClassDef):
                body_functions.extend(
                    child
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                continue
            own_nodes.append(node)
            children.extend(ast.iter_child_nodes(node))
        # Pass 2: check every call in this scope.
        for node in own_nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, executor_names, inner_defs)
        for function in body_functions:
            yield from self._check_scope(
                module,
                function,
                executor_names,
                inner_defs if is_function else set(),
            )

    def _check_call(
        self,
        module: ModuleContext,
        call: ast.Call,
        executor_names: Set[str],
        nested_defs: Set[str],
    ) -> Iterator[Finding]:
        imports = module.imports
        callable_arg: Optional[ast.AST] = None
        context: Optional[str] = None
        if isinstance(call.func, ast.Attribute) and call.func.attr in _SHIPPING_METHODS:
            receiver = call.func.value
            is_executor = (
                isinstance(receiver, ast.Name) and receiver.id in executor_names
            ) or _is_executor_constructor(receiver, imports)
            if is_executor and call.args:
                callable_arg = call.args[0]
                context = f"executor.{call.func.attr}()"
        else:
            target = imports.resolve_call(call)
            if target is not None and target.rpartition(".")[2] == "PolicySpec":
                context = "PolicySpec"
                for keyword in call.keywords:
                    if keyword.arg == "factory":
                        callable_arg = keyword.value
                if callable_arg is None and len(call.args) >= 2:
                    callable_arg = call.args[1]
        if callable_arg is None or context is None:
            return
        if isinstance(callable_arg, ast.Lambda):
            yield self.finding(
                module,
                callable_arg.lineno,
                callable_arg.col_offset,
                f"lambda passed to {context} cannot pickle; "
                "use a module-level function",
            )
        elif isinstance(callable_arg, ast.Name) and callable_arg.id in nested_defs:
            yield self.finding(
                module,
                callable_arg.lineno,
                callable_arg.col_offset,
                f"nested function {callable_arg.id!r} passed to {context} cannot "
                "pickle; move it to module level",
            )


#: Modules whose classes are built or read on every replayed event: the
#: kernel, the flow network, the store, the repository, and the per-query
#: records of the decision layer (outcomes, manager results and decisions).
_HOT_PATH_SCOPE = (
    "repro/sim/engine.py",
    "repro/flow/",
    "repro/cache/store.py",
    "repro/repository/",
    "repro/core/decoupling.py",
    "repro/core/update_manager.py",
    "repro/core/load_manager.py",
)

#: Base-class name suffixes exempting a class (no instance-state concerns).
_EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning")

#: Exact base-class names exempting a class (slots are incompatible or moot).
_EXEMPT_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "Protocol", "ABC"})


def _declares_slots(klass: ast.ClassDef) -> bool:
    for node in klass.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets
            ):
                return True
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__slots__":
                return True
    return False


def _dataclass_with_slots(klass: ast.ClassDef) -> bool:
    for decorator in klass.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        name_node = call.func if call is not None else decorator
        name = name_node.attr if isinstance(name_node, ast.Attribute) else (
            name_node.id if isinstance(name_node, ast.Name) else None
        )
        if name != "dataclass":
            continue
        if call is None:
            return False
        for keyword in call.keywords:
            if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
    return False


def _is_exempt(klass: ast.ClassDef) -> bool:
    for base in klass.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if name is None:
            continue
        if name in _EXEMPT_BASES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    return False


@register_rule
class HotPathSlots(ModuleRule):
    """SLOT001: hot-path classes must declare ``__slots__``.

    Satisfied by a literal ``__slots__`` in the class body or by
    ``@dataclass(slots=True)``.  Exception/Enum/Protocol subclasses are
    exempt (slots are moot or incompatible there).
    """

    id = "SLOT001"
    title = "hot-path class without __slots__"
    scope = _HOT_PATH_SCOPE

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt(node) or _declares_slots(node) or _dataclass_with_slots(node):
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"class {node.name!r} lives in a hot-path module but declares "
                "no __slots__; add __slots__ (or @dataclass(slots=True)) to "
                "keep per-instance dicts out of the replay loop",
            )
