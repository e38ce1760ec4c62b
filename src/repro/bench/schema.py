"""Schema of the ``repro bench`` JSON payload.

A hand-rolled validator (the toolchain deliberately has no jsonschema
dependency) that pins the payload layout CI and the comparison tool rely
on.  ``SCHEMA_ID`` is bumped whenever the layout changes; v2 is a strict
superset of v1 (it adds an *optional* per-policy ``latency`` block recorded
by the ``repro loadgen`` served-mode harness, an *optional* per-policy
``regret`` block recorded by regret-tracking policies such as the adaptive
meta-policy, and an *optional* per-case ``phases`` block breaking the case's
wall-clock down by :data:`PHASE_NAMES`), so every v1 payload -- including
committed baselines -- still validates.  :func:`validate_payload` raises
:class:`BenchSchemaError` with a path-qualified message on the first
violation it finds.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

#: The original layout (no latency fields); still accepted.
SCHEMA_V1 = "repro.bench/v1"

#: Identifier embedded in newly written payloads.
SCHEMA_ID = "repro.bench/v2"

#: Every schema :func:`validate_payload` accepts, oldest first.
SUPPORTED_SCHEMAS = (SCHEMA_V1, SCHEMA_ID)


class BenchSchemaError(ValueError):
    """A bench payload does not match the expected schema."""


_FieldType = Union[type, Tuple[type, ...]]

_NUMBER = (int, float)

#: Required top-level fields and their types (None = nullable string).
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
}

#: v2 only: required keys of the optional per-policy ``latency`` block
#: (seconds).  Extra keys (``predicted_p50`` etc.) are tolerated, matching
#: the validator's stance on unknown fields elsewhere.
_LATENCY_FIELDS: Dict[str, _FieldType] = {
    "count": int,
    "mean": _NUMBER,
    "p50": _NUMBER,
    "p99": _NUMBER,
    "p999": _NUMBER,
    "max": _NUMBER,
}

#: v2 only: the allowed (and required) keys of the optional per-case
#: ``phases`` block -- the wall-clock breakdown the runner records.  This
#: table is the contract between the runner and every payload consumer: the
#: runner emits exactly these keys (it imports this tuple), and the validator
#: rejects phase names outside it, so a new phase timer cannot ship without
#: widening the schema (and the docs) first.
#:
#: * ``trace_compile`` -- scenario build plus the tagged/columnar trace
#:   precompute, outside the timed replay,
#: * ``batch_dispatch`` -- replay wall-clock not attributed to a finer
#:   phase (event dispatch, batched or scalar),
#: * ``cover_solve`` -- cover computation in ``repro.flow`` (augmentation,
#:   reachability and extraction; incremental covers and static solves),
#: * ``metrics`` -- traffic/occupancy series sampling in the engines.
PHASE_NAMES = ("trace_compile", "batch_dispatch", "cover_solve", "metrics")

#: v2 only: required keys of the optional per-policy ``regret`` block (the
#: :meth:`repro.core.regret.RegretTracker.summary` payload, all MB except
#: the epoch count).
_REGRET_FIELDS: Dict[str, _FieldType] = {
    "epochs": _NUMBER,
    "observed_traffic": _NUMBER,
    "offline_traffic": _NUMBER,
    "total": _NUMBER,
    "mean_per_epoch": _NUMBER,
}


def _check_fields(mapping: object, fields: Dict[str, _FieldType], where: str) -> None:
    if not isinstance(mapping, dict):
        raise BenchSchemaError(f"{where}: expected an object, got {type(mapping).__name__}")
    for key, expected in fields.items():
        if key not in mapping:
            raise BenchSchemaError(f"{where}: missing required field {key!r}")
        value = mapping[key]
        if isinstance(expected, tuple):
            ok = isinstance(value, expected) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected) and not (
                expected is int and isinstance(value, bool)
            )
        if not ok:
            raise BenchSchemaError(
                f"{where}.{key}: expected {getattr(expected, '__name__', 'number')}, "
                f"got {type(value).__name__}"
            )


def _check_phases(phases: object, schema: str, where: str) -> None:
    """Validate one per-case ``phases`` block against :data:`PHASE_NAMES`."""
    if schema == SCHEMA_V1:
        raise BenchSchemaError(
            f"{where}: phase breakdowns require {SCHEMA_ID!r} "
            f"(payload declares {SCHEMA_V1!r})"
        )
    if not isinstance(phases, dict):
        raise BenchSchemaError(
            f"{where}: expected an object, got {type(phases).__name__}"
        )
    # Unlike the rest of the schema, unknown keys are *rejected* here: the
    # phase table is the runner/consumer contract, so an unlisted phase name
    # is a bug (a timer added without widening PHASE_NAMES), not forward
    # compatibility.
    for key in phases:
        if key not in PHASE_NAMES:
            raise BenchSchemaError(
                f"{where}.{key}: unknown phase; allowed phases are "
                f"{', '.join(PHASE_NAMES)}"
            )
    for name in PHASE_NAMES:
        if name not in phases:
            raise BenchSchemaError(f"{where}: missing required phase {name!r}")
        value = phases[name]
        if not isinstance(value, _NUMBER) or isinstance(value, bool):
            raise BenchSchemaError(
                f"{where}.{name}: expected number, got {type(value).__name__}"
            )
        if value < 0:
            raise BenchSchemaError(f"{where}.{name}: negative phase time {value!r}")


def validate_payload(payload: object) -> None:
    """Raise :class:`BenchSchemaError` unless ``payload`` is a valid result."""
    _check_fields(payload, _TOP_FIELDS, "payload")
    assert isinstance(payload, dict)
    schema = payload["schema"]
    if schema not in SUPPORTED_SCHEMAS:
        raise BenchSchemaError(
            f"payload.schema: expected one of {', '.join(SUPPORTED_SCHEMAS)}; "
            f"got {schema!r}"
        )
    sha = payload.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        raise BenchSchemaError("payload.git_sha: expected a string or null")
    # Optional (absent in payloads recorded before the linter existed):
    # whether `repro lint src tests` was clean when the run was recorded.
    lint_clean = payload.get("lint_clean")
    if lint_clean is not None and not isinstance(lint_clean, bool):
        raise BenchSchemaError("payload.lint_clean: expected a boolean or null")
    _check_fields(payload["totals"], _TOTALS_FIELDS, "payload.totals")
    cases = payload["cases"]
    if not cases:
        raise BenchSchemaError("payload.cases: must not be empty")
    seen = set()
    for position, case in enumerate(cases):
        where = f"payload.cases[{position}]"
        _check_fields(case, _CASE_FIELDS, where)
        if case["name"] in seen:
            raise BenchSchemaError(f"{where}.name: duplicate case name {case['name']!r}")
        seen.add(case["name"])
        if not case["policies"]:
            raise BenchSchemaError(f"{where}.policies: must not be empty")
        phases = case.get("phases")
        if phases is not None:
            _check_phases(phases, schema, f"{where}.phases")
        for index, row in enumerate(case["policies"]):
            row_where = f"{where}.policies[{index}]"
            _check_fields(row, _POLICY_FIELDS, row_where)
            assert isinstance(row, dict)
            latency = row.get("latency")
            if latency is not None:
                if schema == SCHEMA_V1:
                    raise BenchSchemaError(
                        f"{row_where}.latency: latency fields require "
                        f"{SCHEMA_ID!r} (payload declares {SCHEMA_V1!r})"
                    )
                _check_fields(latency, _LATENCY_FIELDS, f"{row_where}.latency")
            regret = row.get("regret")
            if regret is not None:
                if schema == SCHEMA_V1:
                    raise BenchSchemaError(
                        f"{row_where}.regret: regret fields require "
                        f"{SCHEMA_ID!r} (payload declares {SCHEMA_V1!r})"
                    )
                _check_fields(regret, _REGRET_FIELDS, f"{row_where}.regret")
