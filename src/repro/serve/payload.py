"""The payload ``repro loadgen --out`` writes: its schema id, validator and stamps.

One load run is recorded as a JSON object under the :data:`SCHEMA_ID`
identifier: run stamps (creation time, git SHA, interpreter, platform,
client count, peak RSS), a ``totals`` block, and one case whose single
policy row carries the measured ``latency`` percentiles (seconds).  The
layout is pinned here by a hand-rolled validator (the toolchain
deliberately has no jsonschema dependency): :func:`validate_payload` raises
:class:`PayloadSchemaError` with a path-qualified message on the first
violation it finds.  Unknown keys are tolerated, which is how the optional
``predicted_*`` latency keys ride along.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Any, Dict, Mapping, Optional, Set, Tuple, Union

#: Identifier embedded in every payload.
SCHEMA_ID = "repro.bench/v2"


class PayloadSchemaError(ValueError):
    """A loadgen payload does not match :data:`SCHEMA_ID`'s layout."""


_FieldType = Union[type, Tuple[type, ...]]

_NUMBER: Tuple[type, ...] = (int, float)

#: Required top-level fields and their types.
_TOP_FIELDS: Dict[str, _FieldType] = {
    "schema": str,
    "suite": str,
    "created_unix": _NUMBER,
    "python": str,
    "platform": str,
    "jobs": int,
    "peak_rss_mb": _NUMBER,
    "totals": dict,
    "cases": list,
}

_TOTALS_FIELDS: Dict[str, _FieldType] = {
    "wall_clock_s": _NUMBER,
    "policy_runs": int,
    "events": int,
    "events_per_s": _NUMBER,
}

_CASE_FIELDS: Dict[str, _FieldType] = {
    "name": str,
    "description": str,
    "events": int,
    "sites": int,
    "repeats": int,
    "build_wall_clock_s": _NUMBER,
    "wall_clock_s": _NUMBER,
    "events_per_s": _NUMBER,
    "peak_rss_mb": _NUMBER,
    "policies": list,
}

_POLICY_FIELDS: Dict[str, _FieldType] = {
    "policy": str,
    "wall_clock_s": _NUMBER,
    "events": int,
    "events_per_s": _NUMBER,
    "total_traffic_mb": _NUMBER,
    "queries_answered_at_cache": int,
    "latency": dict,
}

#: Required keys of a policy row's ``latency`` block (seconds).
_LATENCY_FIELDS: Dict[str, _FieldType] = {
    "count": int,
    "mean": _NUMBER,
    "p50": _NUMBER,
    "p99": _NUMBER,
    "p999": _NUMBER,
    "max": _NUMBER,
}


def _check_fields(
    value: object, fields: Mapping[str, _FieldType], where: str
) -> Dict[str, Any]:
    """``value`` as an object holding every field of ``fields`` with its type."""
    if not isinstance(value, dict):
        raise PayloadSchemaError(f"{where}: expected an object, got {type(value).__name__}")
    for key, expected in fields.items():
        if key not in value:
            raise PayloadSchemaError(f"{where}: missing required field {key!r}")
        field = value[key]
        # bool is an int subclass, and no field here is a flag.
        if isinstance(field, bool) or not isinstance(field, expected):
            raise PayloadSchemaError(
                f"{where}.{key}: expected {getattr(expected, '__name__', 'number')}, "
                f"got {type(field).__name__}"
            )
    return value


def validate_payload(payload: object) -> None:
    """Raise :class:`PayloadSchemaError` unless ``payload`` is a valid record."""
    top = _check_fields(payload, _TOP_FIELDS, "payload")
    if top["schema"] != SCHEMA_ID:
        raise PayloadSchemaError(
            f"payload.schema: expected {SCHEMA_ID!r}, got {top['schema']!r}"
        )
    sha = top.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        raise PayloadSchemaError("payload.git_sha: expected a string or null")
    _check_fields(top["totals"], _TOTALS_FIELDS, "payload.totals")
    if not top["cases"]:
        raise PayloadSchemaError("payload.cases: must not be empty")
    seen: Set[str] = set()
    for position, raw_case in enumerate(top["cases"]):
        where = f"payload.cases[{position}]"
        case = _check_fields(raw_case, _CASE_FIELDS, where)
        if case["name"] in seen:
            raise PayloadSchemaError(f"{where}.name: duplicate case name {case['name']!r}")
        seen.add(case["name"])
        if not case["policies"]:
            raise PayloadSchemaError(f"{where}.policies: must not be empty")
        for index, raw_row in enumerate(case["policies"]):
            row_where = f"{where}.policies[{index}]"
            row = _check_fields(raw_row, _POLICY_FIELDS, row_where)
            _check_fields(row["latency"], _LATENCY_FIELDS, f"{row_where}.latency")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    # POSIX-only, so imported here: the rest of repro.serve imports anywhere.
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def current_git_sha() -> Optional[str]:
    """The checked-out commit, or None outside a git checkout.

    Honours ``GITHUB_SHA`` first so CI results are attributable even from a
    shallow or detached checkout.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None
