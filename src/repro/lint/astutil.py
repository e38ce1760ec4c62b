"""Shared AST analysis helpers for the lint rules.

Three pieces of static knowledge recur across the rules and tests:

* :class:`ImportMap` -- resolving a call expression such as
  ``np.random.default_rng(...)`` back to its fully-qualified dotted target
  (``numpy.random.default_rng``) through the module's ``import`` /
  ``from ... import`` statements, including aliases;
* :class:`SetTracker` -- deciding whether an expression is *statically
  known* to be a ``set``/``frozenset`` value (literals, constructor calls,
  set comprehensions, set algebra, names and ``self.*`` attributes bound to
  such expressions);
* :func:`imported_names` -- every module a source file imports, at any
  depth (the package layer test walks ``src/repro`` with it).

All three deliberately stop at what the syntax proves: no type inference is
attempted, so an attribute of unknown type is never treated as a set.  The
rules therefore under-report rather than guess -- the right trade-off for a
gating check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

#: ``set``-returning builtins: calls to these are set-valued.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Order-preserving converters: applied to a set-valued argument, the result
#: still carries the set's arbitrary iteration order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: Set-algebra operators whose result is a set when either operand is.
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imported_names(tree: ast.AST, package: str = "") -> Iterator[Tuple[int, str]]:
    """``(line, dotted target)`` for every import at any depth of ``tree``.

    ``import a.b`` yields ``a.b``; ``from a import b, c`` yields ``a.b`` and
    ``a.c``; a relative ``from`` resolves against ``package``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            prefix = ".".join(part for part in (base, node.module) if part)
            for alias in node.names:
                yield node.lineno, f"{prefix}.{alias.name}"


class ImportMap:
    """Local name -> fully-qualified dotted path, from a module's imports.

    ``import numpy as np`` maps ``np`` to ``numpy``;
    ``from numpy.random import default_rng as rng`` maps ``rng`` to
    ``numpy.random.default_rng``.  :meth:`resolve_call` rewrites a call's
    target through the map, so rules can match on canonical dotted names
    regardless of how the module spelled its imports.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted path of a Name/Attribute chain, or None.

        The chain's root name is rewritten through the import aliases; a
        root that was never imported resolves to the chain as written (so
        builtins and locals still produce a matchable name).
        """
        chain = dotted_name(node)
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        target = self._aliases.get(root)
        if target is None:
            return chain
        return f"{target}.{rest}" if rest else target

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """The canonical dotted target of a call, or None for dynamic calls."""
        return self.resolve(call.func)


class SetTracker:
    """Statically-known set-valued expressions within one scope.

    The tracker is seeded per function (or module) scope: a single pass over
    the scope's assignments records names -- and, given class-level
    knowledge, ``self.X`` attributes -- bound to set-valued expressions.
    :meth:`is_set_valued` then answers for arbitrary expressions.

    Only *stable* bindings are tracked: a name rebound to anything that is
    not set-valued anywhere in the scope is dropped, so shadowing a set
    with a sorted list is recognised as laundering the order correctly.
    """

    def __init__(
        self,
        scope: ast.AST,
        set_attributes: Optional[Set[str]] = None,
    ) -> None:
        #: Attribute names (``self.X``) known to be set-valued class state.
        self._set_attributes = set_attributes or set()
        self._set_names: Set[str] = set()
        rebound_elsewhere: Set[str] = set()
        for node in self._scope_statements(scope):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            is_set = self.is_set_valued(value)
            for target in targets:
                if isinstance(target, ast.Name):
                    if is_set:
                        self._set_names.add(target.id)
                    else:
                        rebound_elsewhere.add(target.id)
        self._set_names -= rebound_elsewhere

    @staticmethod
    def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
        """All statements of ``scope`` without descending into nested defs."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def is_set_valued(self, node: ast.AST) -> bool:
        """Whether ``node`` is statically known to evaluate to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        if isinstance(node, ast.Attribute):
            # Only `self.X` attributes registered by class-level analysis.
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self._set_attributes
            )
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in _SET_CONSTRUCTORS:
                return True
            if name in _ORDER_PRESERVING and node.args:
                # list(S) etc. preserve the set's arbitrary order.
                return self.is_set_valued(node.args[0])
            if isinstance(node.func, ast.Attribute):
                # S.union(...), S.difference(...), S.copy() stay sets.
                method = node.func.attr
                if method in {
                    "union", "intersection", "difference", "symmetric_difference", "copy"
                }:
                    return self.is_set_valued(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_valued(node.left) or self.is_set_valued(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_valued(node.body) and self.is_set_valued(node.orelse)
        return False


def set_valued_attributes(klass: ast.ClassDef) -> Set[str]:
    """Names of ``self.X`` attributes assigned set values anywhere in a class.

    An attribute also assigned a non-set value somewhere is excluded, the
    same stability rule :class:`SetTracker` applies to names.
    """
    assigned_set: Set[str] = set()
    assigned_other: Set[str] = set()
    probe = SetTracker(ast.Module(body=[], type_ignores=[]))
    for node in ast.walk(klass):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if probe.is_set_valued(value):
                    assigned_set.add(target.attr)
                else:
                    assigned_other.add(target.attr)
    return assigned_set - assigned_other
