"""Rule registry of the ``repro lint`` static analyser.

A rule is a small class declaring an id, a severity and a scope, plus a
``check_module`` hook run once per linted file against its parsed AST
(:class:`~repro.lint.engine_types.ModuleContext`).

Rules self-register via the :func:`register_rule` decorator at import time;
importing this package loads every built-in rule module, mirroring how the
experiment registry populates itself.  ``repro lint --rule ID`` narrows a
run to one rule; :func:`get_rule` / :func:`all_rules` are the lookup
surface the engine and the docs generator use.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Type, TypeVar

from repro.lint.engine_types import ModuleContext
from repro.lint.findings import Finding, LintInputError


class Rule:
    """Base class: identity, severity, and the path scope of one rule."""

    #: Stable rule identifier (``DET001``); what suppressions name.
    id: str = ""
    #: One-line summary shown by ``repro lint --list-rules`` and the docs.
    title: str = ""
    #: ``error`` findings gate (exit 1); ``warning`` findings only report.
    severity: str = "error"
    #: Package-relative path prefixes the rule applies to (empty = all).
    scope: tuple = ()

    def applies_to(self, package_path: str) -> bool:
        """Whether the rule checks the module at ``package_path``.

        ``package_path`` is the path inside the source tree with any
        leading ``src/`` stripped (``repro/sim/engine.py``,
        ``tests/test_sim.py``), always POSIX-separated.
        """
        if not self.scope:
            return True
        return any(package_path.startswith(prefix) for prefix in self.scope)

    def finding(
        self, module: "ModuleContext", line: int, col: int, message: str
    ) -> Finding:
        """A finding of this rule anchored in ``module``."""
        return Finding(
            rule=self.id,
            path=module.rel_path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
        )


class ModuleRule(Rule):
    """A rule checked file by file against each module's AST."""

    def check_module(self, module: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError


#: The registry, in registration (import) order.
_RULES: Dict[str, Rule] = {}

R = TypeVar("R", bound=Type[Rule])


def register_rule(cls: R) -> R:
    """Class decorator adding a rule to the registry (one instance per id)."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule class {cls.__name__} declares no id")
    if instance.id in _RULES:
        raise ValueError(f"rule {instance.id!r} is already registered")
    _RULES[instance.id] = instance
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order."""
    return list(_RULES.values())


def rule_ids() -> List[str]:
    """The registered rule ids, in registration order."""
    return list(_RULES)


def get_rule(rule_id: str) -> Rule:
    """The rule registered under ``rule_id`` (case-insensitive lookup).

    Raises :class:`~repro.lint.findings.LintInputError` for unknown ids --
    the CLI maps that to exit code 2.
    """
    rule = _RULES.get(rule_id) or _RULES.get(rule_id.upper())
    if rule is None:
        raise LintInputError(
            f"unknown rule {rule_id!r}; known rules: {', '.join(_RULES)}"
        )
    return rule


# Import the built-in rule modules for their registration side effects.
from repro.lint.rules import (  # noqa: E402,F401
    asyncio_rules,
    contracts,
    determinism,
)
