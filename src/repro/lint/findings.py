"""Finding and report types of the ``repro lint`` static analyser.

A :class:`Finding` is one rule violation anchored to a file and line; a
:class:`LintReport` is the result of one lint run -- the findings plus the
run's scope -- and owns the two output encodings the CLI exposes:

* ``text`` -- one ``path:line:col: RULE message`` line per finding (the
  classic compiler format, so editors and CI annotations pick it up);
* ``json`` -- a schema-tagged payload (:data:`SCHEMA_ID`) that round-trips
  through :meth:`LintReport.to_dict` / :meth:`LintReport.from_dict`.

The payload layout is part of the tool's contract (CI consumes it), so the
schema id is bumped on incompatible changes, exactly like
:mod:`repro.serve.payload` does for loadgen payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Identifier embedded in every JSON report; bumped on incompatible changes.
SCHEMA_ID = "repro.lint/v1"

#: The two severities a rule may assign.  ``error`` findings fail the run
#: (CLI exit code 1); ``warning`` findings are reported but do not gate.
SEVERITIES = ("error", "warning")


class LintInputError(ValueError):
    """Bad lint input: unknown rule id, missing path, malformed payload.

    The CLI maps this to exit code 2 (usage error), keeping it distinct
    from exit code 1 (findings present).
    """


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``path`` is stored relative to the linted project root, in POSIX form,
    so reports are machine-independent and diffable across checkouts.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise LintInputError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def format(self) -> str:
        """The classic ``path:line:col: RULE message`` compiler line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable report order: by path, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; :meth:`from_dict` round-trips it."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        try:
            return cls(
                rule=str(data["rule"]),
                severity=str(data.get("severity", "error")),
                path=str(data["path"]),
                line=int(data["line"]),
                col=int(data["col"]),
                message=str(data["message"]),
            )
        except KeyError as exc:
            raise LintInputError(f"finding payload missing field {exc.args[0]!r}") from None


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: scope, findings, suppression count.

    ``files_checked`` and ``suppressed`` make a clean report auditable: a
    report with zero findings over zero files is vacuous, and a spike in
    suppressions is as reviewable as a spike in findings.
    """

    findings: Tuple[Finding, ...]
    files_checked: int
    rules: Tuple[str, ...]
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when no ``error``-severity finding survived suppression."""
        return not any(f.severity == "error" for f in self.findings)

    def counts_by_rule(self) -> Dict[str, int]:
        """Finding counts per rule id (only rules that fired)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        """The JSON payload (schema-tagged; ``from_dict`` round-trips it)."""
        return {
            "schema": SCHEMA_ID,
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "suppressed": self.suppressed,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {
                "findings": len(self.findings),
                "by_rule": self.counts_by_rule(),
                "ok": self.ok,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintReport":
        """Rebuild a report from :meth:`to_dict` output (schema-checked)."""
        schema = data.get("schema")
        if schema != SCHEMA_ID:
            raise LintInputError(
                f"report schema mismatch: expected {SCHEMA_ID!r}, got {schema!r}"
            )
        raw = data.get("findings")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise LintInputError("report payload field 'findings' must be a list")
        return cls(
            findings=tuple(Finding.from_dict(item) for item in raw),
            files_checked=int(data.get("files_checked", 0)),
            rules=tuple(str(rule) for rule in data.get("rules", ())),
            suppressed=int(data.get("suppressed", 0)),
        )

    def format_text(self) -> str:
        """The human-readable report the CLI prints by default."""
        lines = [finding.format() for finding in self.findings]
        counts = self.counts_by_rule()
        tally = ", ".join(f"{rule} x{count}" for rule, count in counts.items())
        lines.append(
            f"checked {self.files_checked} file(s): "
            + (f"{len(self.findings)} finding(s) ({tally})" if self.findings else "clean")
            + (f", {self.suppressed} suppressed" if self.suppressed else "")
        )
        return "\n".join(lines)

    def format_json(self) -> str:
        """The machine-readable report (pretty, stable key order)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
