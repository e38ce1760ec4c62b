"""Determinism rules: DET001 (seeds), DET002 (wall clock), DET003 (set order).

The reproduction's headline guarantee is byte-identical replay: ``jobs=1``
vs ``jobs=N`` sweeps, streaming vs materialised pipelines, and the recorded
determinism fixtures all assume that nothing in the simulation path draws
entropy from outside the scenario seed.  These rules encode the three ways
that guarantee has historically been (or nearly been) broken.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.astutil import SetTracker, set_valued_attributes
from repro.lint.engine_types import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules import ModuleRule, register_rule

#: Modules that emit events, traffic or decisions -- the paths where an
#: arbitrary iteration order becomes an output difference.
EMITTER_SCOPE = (
    "repro/workload/",
    "repro/sim/",
    "repro/core/",
    "repro/flow/",
    "repro/cache/",
    "repro/sky/",
    "repro/repository/",
)

#: numpy.random constructors that are deterministic *iff* given a seed.
_NUMPY_SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
})

#: numpy.random names that are fine without arguments (not entropy sources).
_NUMPY_ALLOWED = frozenset({"numpy.random.Generator"})

#: Wall-clock, environment and entropy reads that vary run to run.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
})


def _call_is_seeded(call: ast.Call) -> bool:
    """Whether a RNG constructor call passes an explicit seed."""
    if call.args and not any(isinstance(arg, ast.Starred) for arg in call.args[:1]):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True  # cannot see inside *args; give the benefit of the doubt
    return any(kw.arg == "seed" or kw.arg is None for kw in call.keywords)


@register_rule
class UnseededRandomness(ModuleRule):
    """DET001: randomness must come from an explicitly seeded generator.

    Module-level :mod:`random` functions share one ambient, OS-seeded
    generator; ``random.Random()`` and ``numpy.random.default_rng()``
    without arguments seed from OS entropy.  Any of them inside the
    package makes two identical runs diverge.
    """

    id = "DET001"
    title = "unseeded randomness in library code"
    scope = ("repro/",)

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve_call(node)
            if target is None:
                continue
            message = self._violation(target, node)
            if message is not None:
                yield self.finding(module, node.lineno, node.col_offset, message)

    @staticmethod
    def _violation(target: str, call: ast.Call) -> Optional[str]:
        if target == "random.Random" or target == "random.SystemRandom":
            if target == "random.SystemRandom":
                return "random.SystemRandom draws OS entropy; use a seeded random.Random"
            if not _call_is_seeded(call):
                return "random.Random() without a seed draws OS entropy; pass a seed"
            return None
        if target.startswith("random."):
            name = target.partition(".")[2]
            return (
                f"random.{name}() uses the shared module-level generator; "
                "use an explicitly seeded random.Random instance"
            )
        if target in _NUMPY_ALLOWED:
            return None
        if target in _NUMPY_SEEDED_CONSTRUCTORS:
            if not _call_is_seeded(call):
                short = target.rpartition(".")[2]
                return f"numpy.random.{short}() without a seed draws OS entropy; pass a seed"
            return None
        if target.startswith("numpy.random."):
            name = target.partition("numpy.random.")[2]
            return (
                f"numpy.random.{name}() uses the legacy global RandomState; "
                "use an explicitly seeded numpy.random.default_rng(seed)"
            )
        return None


@register_rule
class WallClockRead(ModuleRule):
    """DET002: no wall-clock / environment entropy in replay code.

    Simulated time is the event sequence position; reading host time (or
    uuid/urandom entropy) inside sim, workload, flow or decision code makes
    outputs depend on the machine, not the scenario.  Code outside the
    emitter scope -- the CLI, the server, the linter -- may read the clock:
    it reports, it never replays.
    """

    id = "DET002"
    title = "wall-clock or entropy read in replay code"
    scope = EMITTER_SCOPE

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve_call(node)
            if target in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{target}() is nondeterministic across runs; replay code "
                    "must derive time from event positions and entropy from seeds",
                )


#: Callables whose consumption of a set is order-insensitive.  ``sum`` is
#: deliberately absent (float addition is not associative); ``math.fsum``
#: is error-free and therefore order-independent, so it qualifies.
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "set", "frozenset", "len", "any", "all", "max", "min", "sorted", "fsum"
})


@register_rule
class UnorderedSetIteration(ModuleRule):
    """DET003: iterating a set in event-emitting code needs ``sorted()``.

    Set iteration order is an implementation detail (and, for str-keyed
    sets, changes across processes under hash randomisation).  In modules
    that emit events or traffic, a bare ``for``/comprehension over a
    statically-known set value silently bakes that order into outputs --
    the exact bug class behind VCover's stale-vertex pruning fix in PR 2.
    Wrap the iterable in ``sorted(...)``, or suppress with a comment when
    the loop provably folds into an order-insensitive result.
    """

    id = "DET003"
    title = "unordered set iteration in event-emitting code"
    scope = EMITTER_SCOPE

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        # Class-level knowledge first: which self.* attributes hold sets.
        class_attrs = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                class_attrs[node] = set_valued_attributes(node)
        yield from self._check_scope(module, module.tree, set())
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = self._owning_class(module.tree, node)
                attrs = class_attrs.get(owner, set()) if owner is not None else set()
                yield from self._check_scope(module, node, attrs)

    @staticmethod
    def _owning_class(tree: ast.Module, func: ast.AST) -> Optional[ast.ClassDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return node
        return None

    def _check_scope(
        self, module: ModuleContext, scope: ast.AST, set_attrs: Set[str]
    ) -> Iterator[Finding]:
        tracker = SetTracker(scope, set_attributes=set_attrs)
        for node, parent in self._walk_with_parents(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not scope:
                continue
            if isinstance(node, ast.For) and tracker.is_set_valued(node.iter):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "for-loop iterates a set in arbitrary order; wrap the "
                    "iterable in sorted(...) or suppress if provably order-free",
                )
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if isinstance(node, ast.GeneratorExp) and self._consumer_is_order_insensitive(
                    parent
                ):
                    continue
                for generator in node.generators:
                    if tracker.is_set_valued(generator.iter):
                        kind = {
                            ast.ListComp: "list comprehension",
                            ast.DictComp: "dict comprehension",
                            ast.GeneratorExp: "generator",
                        }[type(node)]
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"{kind} iterates a set in arbitrary order; wrap the "
                            "iterable in sorted(...) or build an order-free value",
                        )
                        break

    @staticmethod
    def _consumer_is_order_insensitive(parent: Optional[ast.AST]) -> bool:
        """A generator fed straight into set()/len()/fsum()/... is order-free."""
        if not isinstance(parent, ast.Call):
            return False
        func = parent.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _ORDER_INSENSITIVE_CONSUMERS

    @staticmethod
    def _walk_with_parents(
        scope: ast.AST,
    ) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
        """(node, parent) pairs, not descending into nested function defs."""
        stack: list = [(child, scope) for child in ast.iter_child_nodes(scope)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend((child, node) for child in ast.iter_child_nodes(node))
