"""Real-trace ingestion: query logs -> traces -> calibrated scenario specs.

Every workload the simulator replays is generated; this module closes the
loop with *real* (or externally produced) query logs.  Ingestion has two
stages, both deterministic:

1. **Adaptation** (:func:`ingest_trace`): read a CSV/JSONL/parquet log into
   a materialised :class:`~repro.workload.trace.Trace`.  Column names are
   matched against a small alias table (``kind``/``type``/``op``,
   ``object``/``object_id``/``objects``, ``cost``/``bytes``/``size_mb``,
   ``timestamp``/``time``/``ts``, ``tolerance``/``staleness``), raw object
   keys are mapped to dense integer ids in first-seen order, events are
   ordered by timestamp (stable for ties) and re-stamped to the consecutive
   integer timeline the engines expect.  Parquet support is gated on an
   optional ``pyarrow`` install and degrades to a clear :class:`IngestError`.
2. **Calibration** (:func:`calibrate`): fit the existing
   :class:`~repro.experiments.config.ExperimentConfig` knobs to the ingested
   trace -- the Zipf exponent of the query object-popularity curve (log-log
   rank-frequency least squares), the query/update event mix and byte
   traffic fractions, the tolerance mix, and the hotspot phase length (via
   top-``k`` Jaccard change-point detection over query windows) -- and emit
   the knobs of a round-trippable scenario spec.

:func:`repro.experiments.spec.ingest_scenario` turns the knobs into an
ordinary *evolving*-model :class:`~repro.experiments.spec.ScenarioSpec`, so
everything the declarative layer guarantees (streaming replay,
byte-identical results across engines and ``jobs=1`` vs ``jobs=N``, JSON
scenario files) holds for ingested scenarios with no new replay machinery;
``repro ingest FILE`` wires this pipeline into the CLI.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.repository.catalog import DEFAULT_SCALE, PAPER_SERVER_SIZE_MB
from repro.repository.queries import Query
from repro.repository.updates import Update, UpdateKind
from repro.workload.trace import QueryEvent, Trace, TraceEvent, UpdateEvent

#: Column aliases, first match wins (all matching is case-insensitive).
COLUMN_ALIASES: Dict[str, Tuple[str, ...]] = {
    "kind": ("kind", "type", "op", "event", "action"),
    "objects": ("object_ids", "object_id", "objects", "object", "oid", "key"),
    "cost": ("cost", "bytes", "size_mb", "result_mb", "size"),
    "timestamp": ("timestamp", "time", "ts", "arrival"),
    "tolerance": ("tolerance", "staleness", "ttl"),
}

#: Kind values (lowercased) read as queries / updates.
QUERY_KINDS = frozenset({"query", "read", "get", "select", "q", "r"})
UPDATE_KINDS = frozenset(
    {"update", "write", "put", "insert", "delete", "upsert", "u", "w"}
)

#: File suffixes the ingest reader understands.
SUPPORTED_SUFFIXES = (".csv", ".jsonl", ".parquet")


class IngestError(ValueError):
    """An input log cannot be read or adapted (format, columns, values)."""


# ----------------------------------------------------------------------
# Stage 1: adaptation (file -> Trace)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestedLog:
    """A log adapted into the simulator's trace form.

    ``object_ids`` maps each raw object key (as it appeared in the log) to
    the dense integer id used in the trace, in first-seen order -- the
    mapping is deterministic in the file contents alone.
    """

    trace: Trace
    object_ids: Dict[str, int]
    path: Path


def _resolve_columns(names: Sequence[str]) -> Dict[str, str]:
    """Map canonical field -> actual column name via the alias table."""
    lowered = {name.lower().strip(): name for name in names if name}
    resolved: Dict[str, str] = {}
    for field, aliases in COLUMN_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                resolved[field] = lowered[alias]
                break
    missing = [f for f in ("kind", "objects") if f not in resolved]
    if missing:
        raise IngestError(
            f"log is missing required column(s) {missing}; recognised "
            f"aliases: " + "; ".join(
                f"{field}={'/'.join(COLUMN_ALIASES[field])}"
                for field in missing
            )
        )
    return resolved


def _parse_object_keys(value: object) -> List[str]:
    """Raw object key(s) from one row value (scalar, list, or delimited)."""
    if isinstance(value, (list, tuple)):
        keys = [str(item).strip() for item in value]
    else:
        text = str(value).strip()
        for delimiter in (";", "|", " "):
            if delimiter in text:
                keys = [part.strip() for part in text.split(delimiter)]
                break
        else:
            keys = [text]
    keys = [key for key in keys if key]
    if not keys:
        raise IngestError("a row references no objects")
    return keys


def _parse_float(value: object, field: str, default: float) -> float:
    if value is None or (isinstance(value, str) and not value.strip()):
        return default
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise IngestError(f"bad {field} value {value!r}") from None
    if not math.isfinite(result):
        raise IngestError(f"bad {field} value {value!r}")
    return result


def _iter_csv_rows(path: Path) -> Tuple[List[Mapping[str, object]], Sequence[str]]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames:
            raise IngestError(f"{path} has no header row")
        return list(reader), reader.fieldnames


def _iter_jsonl_rows(path: Path) -> Tuple[List[Mapping[str, object]], Sequence[str]]:
    rows: List[Mapping[str, object]] = []
    names: Dict[str, None] = {}
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(
                    f"{path}:{number} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(row, Mapping):
                raise IngestError(
                    f"{path}:{number} is not a JSON object"
                )
            rows.append(row)
            for name in row:
                names.setdefault(name, None)
    return rows, list(names)


def _iter_parquet_rows(path: Path) -> Tuple[List[Mapping[str, object]], Sequence[str]]:
    try:
        import pyarrow.parquet as pq  # noqa: F401
    except ImportError:
        raise IngestError(
            f"reading {path} needs the optional 'pyarrow' dependency, which "
            "is not installed; export the log as CSV or JSONL instead"
        ) from None
    table = pq.read_table(path)
    return table.to_pylist(), table.column_names


def ingest_trace(path: Union[str, Path]) -> IngestedLog:
    """Read a query/update log file into a :class:`IngestedLog`.

    The format is chosen by suffix (``.csv``, ``.jsonl`` or ``.parquet``).
    Raises :class:`IngestError` on unreadable files, unknown formats,
    missing columns or malformed values.
    """
    path = Path(path)
    if path.suffix.lower() not in SUPPORTED_SUFFIXES:
        raise IngestError(
            f"unsupported log format {path.suffix!r} for {path}; "
            f"supported: {', '.join(SUPPORTED_SUFFIXES)}"
        )
    if not path.exists():
        raise IngestError(f"cannot read log file {path}: no such file")
    reader = {
        ".csv": _iter_csv_rows,
        ".jsonl": _iter_jsonl_rows,
        ".parquet": _iter_parquet_rows,
    }[path.suffix.lower()]
    try:
        rows, names = reader(path)
    except OSError as exc:
        raise IngestError(f"cannot read log file {path}: {exc}") from exc
    if not rows:
        raise IngestError(f"{path} holds no events")
    columns = _resolve_columns(names)

    object_ids: Dict[str, int] = {}

    def object_id(raw_key: str) -> int:
        return object_ids.setdefault(raw_key, len(object_ids) + 1)

    parsed: List[Tuple[float, int, str, List[int], float, float]] = []
    for number, row in enumerate(rows):
        kind_raw = str(row.get(columns["kind"], "")).strip().lower()
        if kind_raw in QUERY_KINDS:
            kind = "query"
        elif kind_raw in UPDATE_KINDS:
            kind = "update"
        else:
            raise IngestError(
                f"row {number + 1} of {path} has unknown event kind "
                f"{kind_raw!r} (query-like: {', '.join(sorted(QUERY_KINDS))}; "
                f"update-like: {', '.join(sorted(UPDATE_KINDS))})"
            )
        keys = _parse_object_keys(row.get(columns["objects"]))
        ids = [object_id(key) for key in keys]
        cost = _parse_float(
            row.get(columns["cost"]) if "cost" in columns else None,
            "cost", 1.0,
        )
        if cost <= 0:
            raise IngestError(
                f"row {number + 1} of {path} has non-positive cost {cost!r}"
            )
        timestamp = _parse_float(
            row.get(columns["timestamp"]) if "timestamp" in columns else None,
            "timestamp", float(number + 1),
        )
        tolerance = _parse_float(
            row.get(columns["tolerance"]) if "tolerance" in columns else None,
            "tolerance", 0.0,
        )
        if tolerance < 0:
            raise IngestError(
                f"row {number + 1} of {path} has negative tolerance "
                f"{tolerance!r}"
            )
        parsed.append((timestamp, number, kind, ids, cost, tolerance))

    # Order by log timestamp (stable for ties), then re-stamp to the
    # consecutive integer timeline the engines expect.
    parsed.sort(key=lambda item: (item[0], item[1]))
    events: List[TraceEvent] = []
    query_id = update_id = 0
    for position, (_, _, kind, ids, cost, tolerance) in enumerate(parsed):
        timestamp = float(position + 1)
        if kind == "query":
            query_id += 1
            events.append(
                QueryEvent(
                    Query(
                        query_id=query_id,
                        object_ids=frozenset(ids),
                        cost=cost,
                        timestamp=timestamp,
                        tolerance=tolerance,
                    )
                )
            )
        else:
            update_id += 1
            events.append(
                UpdateEvent(
                    Update(
                        update_id=update_id,
                        object_id=ids[0],
                        cost=cost,
                        timestamp=timestamp,
                        kind=UpdateKind.INSERT,
                        rows=1,
                    )
                )
            )
    return IngestedLog(trace=Trace(events), object_ids=object_ids, path=path)


# ----------------------------------------------------------------------
# Stage 2: calibration (Trace -> ExperimentConfig knobs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationResult:
    """The :class:`ExperimentConfig` knobs fitted to an ingested trace."""

    object_count: int
    query_count: int
    update_count: int
    zipf_exponent: float
    query_traffic_fraction: float
    update_traffic_fraction: float
    tolerant_fraction: float
    tolerance_window: float
    hotspot_phase_length: int

    def knobs(self) -> Dict[str, object]:
        """The fitted knobs as a scenario-config mapping."""
        return {
            "object_count": self.object_count,
            "query_count": self.query_count,
            "update_count": self.update_count,
            "zipf_exponent": round(self.zipf_exponent, 4),
            "query_traffic_fraction": round(self.query_traffic_fraction, 6),
            "update_traffic_fraction": round(self.update_traffic_fraction, 6),
            "tolerant_fraction": round(self.tolerant_fraction, 4),
            "tolerance_window": round(self.tolerance_window, 4),
            "hotspot_phase_length": self.hotspot_phase_length,
        }

    def report(self) -> str:
        """A human-readable calibration summary (one knob per line)."""
        lines = [f"  {name} = {value}" for name, value in self.knobs().items()]
        return "fitted scenario knobs:\n" + "\n".join(lines)


def _fit_zipf_exponent(access_counts: Sequence[int]) -> float:
    """Least-squares slope of the log-log rank-frequency curve.

    Returns the (positive) Zipf exponent, clamped to ``[0.1, 3.0]``;
    defaults to the repo-wide 1.2 when the curve is degenerate (fewer than
    two distinct objects accessed).
    """
    counts = sorted((c for c in access_counts if c > 0), reverse=True)
    if len(counts) < 2:
        return 1.2
    xs = [math.log(rank) for rank in range(1, len(counts) + 1)]
    ys = [math.log(count) for count in counts]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 1.2
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys, strict=True)
    ) / denominator
    return min(3.0, max(0.1, -slope))


def _fit_phase_length(trace: Trace, top: int = 5) -> int:
    """Hotspot phase length via top-``top`` Jaccard change-point detection.

    Queries are split into fixed windows; a phase boundary is declared
    wherever the top-``top`` object set of consecutive windows overlaps by
    less than half (Jaccard < 0.5).  The fitted phase length is the query
    count divided by the number of detected phases.
    """
    queries = trace.queries()
    if len(queries) < 4:
        return max(1, len(queries))
    window = max(25, len(queries) // 12)

    def top_set(chunk) -> frozenset:
        counts: Dict[int, int] = {}
        for query in chunk:
            for object_id in query.object_ids:
                counts[object_id] = counts.get(object_id, 0) + 1
        ranked = sorted(counts, key=lambda oid: (-counts[oid], oid))
        return frozenset(ranked[:top])

    tops = [
        top_set(queries[start:start + window])
        for start in range(0, len(queries), window)
        if queries[start:start + window]
    ]
    boundaries = 0
    for previous, current in zip(tops, tops[1:], strict=False):
        union = previous | current
        if not union:
            continue
        jaccard = len(previous & current) / len(union)
        if jaccard < 0.5:
            boundaries += 1
    return max(window, len(queries) // (boundaries + 1))


def calibrate(
    trace: Trace, scale: float = DEFAULT_SCALE
) -> CalibrationResult:
    """Fit the experiment-config knobs to an ingested trace.

    ``scale`` fixes the emitted scenario's server size (the traffic
    fractions are totals relative to it), so the replayed byte ratios match
    the log's at that scale.
    """
    queries = trace.queries()
    if not queries:
        raise IngestError("cannot calibrate a log with no queries")
    access_counts: Dict[int, int] = {}
    for query in queries:
        for object_id in query.object_ids:
            access_counts[object_id] = access_counts.get(object_id, 0) + 1
    for update in trace.updates():
        access_counts.setdefault(update.object_id, 0)
    server_size = PAPER_SERVER_SIZE_MB * scale
    tolerant = [q for q in queries if q.tolerance > 0]
    nonzero = sorted(q.tolerance for q in tolerant)
    if nonzero:
        tolerance_window = nonzero[len(nonzero) // 2]
    else:
        tolerance_window = 50.0
    return CalibrationResult(
        object_count=max(2, len(access_counts)),
        query_count=len(queries),
        update_count=trace.update_count,
        zipf_exponent=_fit_zipf_exponent(list(access_counts.values())),
        query_traffic_fraction=trace.total_query_cost() / server_size,
        update_traffic_fraction=trace.total_update_cost() / server_size,
        tolerant_fraction=len(tolerant) / len(queries),
        tolerance_window=tolerance_window,
        hotspot_phase_length=_fit_phase_length(trace),
    )
