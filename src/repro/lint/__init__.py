"""``repro.lint``: an AST-based determinism and contract checker.

A self-hosted static analyser that encodes this repository's invariants
as lint rules -- seeded randomness only (DET001), no wall-clock reads in
replay code (DET002), no bare set iteration in event-emitting modules
(DET003), module-level callables across process boundaries (PICK001),
``__slots__`` on hot-path classes (SLOT001) and no blocking calls in the
served path's coroutines (ASYNC001).  Run it via ``repro lint [PATHS]`` or
:func:`repro.api.run_lint`.

Built entirely on :mod:`ast` and :mod:`tokenize` -- no third-party
dependencies -- so it runs on any checkout the package itself runs on.
"""

from __future__ import annotations

from repro.lint.engine import Linter, collect_files, find_project_root, run_lint
from repro.lint.findings import Finding, LintInputError, LintReport
from repro.lint.rules import Rule, all_rules, get_rule, rule_ids

__all__ = [
    "Finding",
    "LintInputError",
    "LintReport",
    "Linter",
    "Rule",
    "all_rules",
    "collect_files",
    "find_project_root",
    "get_rule",
    "rule_ids",
    "run_lint",
]
