"""The ``repro lint`` driver: path collection, parsing, rule dispatch.

The engine is deliberately boring: gather ``*.py`` files under the
requested paths, parse each once, hand the ASTs to every registered rule
whose scope matches, filter findings through the file's suppression
directives, and fold the survivors into a :class:`~repro.lint.findings.
LintReport`.  All interesting logic lives in the rules.

Determinism note: the linter holds itself to its own standard.  Files are
visited in sorted order, rules run in registration order, and findings are
sorted before reporting -- two runs over the same tree produce
byte-identical output.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.engine_types import ModuleContext
from repro.lint.findings import Finding, LintInputError, LintReport
from repro.lint.rules import ModuleRule, Rule, all_rules, get_rule
from repro.lint.suppressions import scan_suppressions

#: Pseudo-rule id for files that fail to parse.  Not suppressible: a file
#: the linter cannot read is a file no rule has vetted.
PARSE_RULE = "PARSE001"

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", ".mypy_cache",
    ".ruff_cache", "build", "dist", ".eggs", ".venv", "venv",
})


def find_project_root(start: Path) -> Path:
    """The nearest ancestor of ``start`` containing ``pyproject.toml``.

    Falls back to ``start`` itself (or its parent for files) so the linter
    still runs on loose files outside any project.
    """
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` file under ``paths``, deduplicated and sorted.

    Raises :class:`LintInputError` for a path that does not exist -- the
    CLI maps that to exit code 2 rather than silently linting nothing.
    """
    seen: Dict[Path, None] = {}
    for path in paths:
        if not path.exists():
            raise LintInputError(f"no such file or directory: {path}")
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


def _package_path(rel_path: str) -> str:
    """Strip a leading ``src/`` so rule scopes use import-like paths."""
    if rel_path.startswith("src/"):
        return rel_path[len("src/"):]
    return rel_path


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_module(
    path: Path, root: Path
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Parse one file into a context, or a PARSE finding on failure."""
    rel_path = _relativize(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding(
            rule=PARSE_RULE,
            path=rel_path,
            line=1,
            col=0,
            message=f"cannot read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule=PARSE_RULE,
            path=rel_path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )
    return (
        ModuleContext(
            path=path,
            rel_path=rel_path,
            package_path=_package_path(rel_path),
            source=source,
            tree=tree,
            suppressions=scan_suppressions(source),
        ),
        None,
    )


class Linter:
    """One lint run: a root and a rule set."""

    def __init__(self, root: Path, rules: Optional[Sequence[Rule]] = None) -> None:
        self.root = root
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()

    def run(self, files: Iterable[Path]) -> LintReport:
        """Lint ``files`` (already collected) and build the report."""
        findings: List[Finding] = []
        suppressed = 0
        checked: List[ModuleContext] = []

        for path in files:
            module, parse_finding = _parse_module(path, self.root)
            if parse_finding is not None:
                findings.append(parse_finding)
                continue
            assert module is not None
            checked.append(module)

        for module in checked:
            for rule in self.rules:
                if not isinstance(rule, ModuleRule):
                    continue
                if not rule.applies_to(module.package_path):
                    continue
                for finding in rule.check_module(module):
                    if module.suppressions.is_suppressed(finding.rule, finding.line):
                        suppressed += 1
                    else:
                        findings.append(finding)

        return LintReport(
            findings=tuple(sorted(findings, key=Finding.sort_key)),
            files_checked=len(checked),
            rules=tuple(rule.id for rule in self.rules),
            suppressed=suppressed,
        )


def run_lint(
    paths: Sequence[object],
    *,
    rule: Optional[str] = None,
    root: Optional[object] = None,
) -> LintReport:
    """Lint ``paths`` and return the report (the ``api.run_lint`` surface).

    ``paths`` accepts strings or :class:`~pathlib.Path` objects; ``rule``
    narrows the run to one rule id; ``root`` overrides project-root
    detection (normally derived by walking up from the first path to the
    nearest ``pyproject.toml``).

    Raises :class:`~repro.lint.findings.LintInputError` for unknown rules
    or missing paths -- callers wanting CLI semantics map that to exit 2.
    """
    resolved = [Path(p) for p in paths]
    if not resolved:
        raise LintInputError("no paths given")
    files = collect_files(resolved)
    project_root = Path(root) if root is not None else find_project_root(resolved[0])
    rules: Optional[List[Rule]] = None
    if rule is not None:
        rules = [get_rule(rule)]
    return Linter(project_root, rules=rules).run(files)
