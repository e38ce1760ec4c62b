"""Scenario compositions: chains of workload models as replayable data.

The scenario-diversity models (:mod:`repro.workload.scenarios`) each stress
one traffic shape.  Real query logs chain such shapes: a diurnal morning, a
flash crowd at noon, an update storm while the survey recalibrates.  This
module makes such chains first-class:

* :class:`SegmentSpec` / :class:`CompositionSpec` -- a composition as pure
  data: an ordered list of (model, counts, knob overrides) segments plus the
  catalogue knobs.  A spec is frozen, picklable, JSON round-trippable
  (:func:`save_composition` / :func:`load_composition`) and a
  :class:`~repro.workload.trace.ScenarioSource`, so the sweep runner and
  :func:`repro.api.run_scenario` replay it directly.
* :class:`ComposedScenarioStream` -- the built form: segment streams chained
  into one :class:`~repro.workload.trace.TraceStream` with globally
  consecutive timestamps and globally unique event ids, still lazy,
  restartable and constant-memory.

A composition file is outside input, so both specs check every value's
type and range when built and raise :class:`FuzzError` naming the key.
The search for compositions where one policy loses to another lives with
the tests (``tests/find_loss.py``, over the hypothesis strategy
``tests/strategies.composition_specs``), and so do the structural stream
invariants every composition is held to (``tests/invariants.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.repository.catalog import sdss_catalog
from repro.repository.objects import ObjectCatalog
from repro.workload.scenarios import (
    MODEL_NAMES,
    STREAM_CLASSES,
    ScenarioModelStream,
    model_knobs,
)
from repro.workload.trace import (
    QueryEvent,
    ScenarioSource,
    Trace,
    TraceEvent,
    TraceStream,
    UpdateEvent,
)


class FuzzError(ValueError):
    """A composition description is malformed (unknown model, bad knob...)."""


def _check_int(key: str, value: object, minimum: int = 0) -> None:
    """Reject a non-integer (a bool included) or an integer below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise FuzzError(f"{key!r} must be {kind}, got {value!r}")


def _check_positive(key: str, value: object) -> None:
    """Reject a non-number (a bool included), a NaN, an infinity or a value <= 0."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and value > 0)
    ):
        raise FuzzError(f"{key!r} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class SegmentSpec:
    """One composition segment: a model window with knob overrides.

    ``knobs`` is a sorted tuple of ``(name, value)`` pairs overriding the
    model stream's constructor defaults (e.g. ``crowd_count`` for
    ``flash_crowd``); the plumbing fields (catalogue, counts, mean costs,
    seed) are supplied by the composition and cannot be overridden here.
    """

    model: str
    query_count: int
    update_count: int
    knobs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or self.model not in STREAM_CLASSES:
            raise FuzzError(
                f"unknown segment model {self.model!r}; "
                f"known models: {', '.join(MODEL_NAMES)}"
            )
        _check_int("query_count", self.query_count)
        _check_int("update_count", self.update_count)
        if self.query_count + self.update_count == 0:
            raise FuzzError("a segment must hold at least one event")
        allowed = {row.name for row in model_knobs(STREAM_CLASSES[self.model])}
        for name, value in self.knobs:
            if name not in allowed:
                raise FuzzError(
                    f"unknown knob {name!r} for segment model {self.model!r}; "
                    f"valid knobs: {', '.join(sorted(allowed))}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FuzzError(
                    f"segment knob {name!r} must be a number, got {value!r}"
                )
            if not math.isfinite(value):
                raise FuzzError(f"segment knob {name!r} must be finite, got {value!r}")
        object.__setattr__(self, "knobs", tuple(sorted(self.knobs)))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (``from_dict`` round-trips it)."""
        return {
            "model": self.model,
            "query_count": self.query_count,
            "update_count": self.update_count,
            "knobs": dict(self.knobs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SegmentSpec":
        """Rebuild a segment from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise FuzzError(
                f"segment must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(
            set(data) - {"model", "query_count", "update_count", "knobs"}
        )
        if unknown:
            raise FuzzError(f"unknown segment key(s) {unknown}")
        knobs = data.get("knobs", {})
        if not isinstance(knobs, Mapping):
            raise FuzzError(
                f"segment 'knobs' must be a mapping, got {type(knobs).__name__}"
            )
        try:
            return cls(
                model=data["model"],
                query_count=data["query_count"],
                update_count=data["update_count"],
                knobs=tuple(sorted(knobs.items())),
            )
        except KeyError as exc:
            raise FuzzError(f"segment is missing required key {exc}") from exc


@dataclass(frozen=True)
class CompositionSpec(ScenarioSource):
    """A composed scenario as pure data: catalogue knobs + ordered segments.

    The spec is a :class:`~repro.workload.trace.ScenarioSource`: sweep workers
    rebuild the composition deterministically from the seeds (memoised via
    :meth:`cache_key`), and ``realise_stream`` hands back the lazy
    :class:`ComposedScenarioStream`, so streaming points replay
    compositions in constant memory with byte-identical results.
    """

    segments: Tuple[SegmentSpec, ...]
    object_count: int = 64
    scale: float = 0.001
    cache_fraction: float = 0.3
    #: Target query/update byte totals as multiples of the server size
    #: (matches the evolving model's calibration semantics).
    query_traffic_fraction: float = 1.5
    update_traffic_fraction: float = 1.5
    seed: int = 7
    name: str = "composition"

    def __post_init__(self) -> None:
        if not self.segments:
            raise FuzzError("a composition needs at least one segment")
        _check_int("object_count", self.object_count, minimum=2)
        _check_int("seed", self.seed)
        for key in (
            "scale",
            "cache_fraction",
            "query_traffic_fraction",
            "update_traffic_fraction",
        ):
            _check_positive(key, getattr(self, key))
        if not isinstance(self.name, str):
            raise FuzzError(f"'name' must be a string, got {self.name!r}")
        object.__setattr__(self, "segments", tuple(self.segments))

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        """Total queries across every segment."""
        return sum(segment.query_count for segment in self.segments)

    @property
    def update_count(self) -> int:
        """Total updates across every segment."""
        return sum(segment.update_count for segment in self.segments)

    def build_catalog(self) -> ObjectCatalog:
        """The SDSS-shaped catalogue the composition replays against."""
        return sdss_catalog(
            object_count=self.object_count, scale=self.scale, seed=self.seed
        )

    def build_stream(
        self, catalog: Optional[ObjectCatalog] = None
    ) -> "ComposedScenarioStream":
        """Build the composed stream (deterministic in the spec's seeds)."""
        catalog = catalog or self.build_catalog()
        server_size = catalog.total_size
        total_queries = max(1, self.query_count)
        total_updates = max(1, self.update_count)
        mean_query_cost = (
            server_size * self.query_traffic_fraction / total_queries
        )
        mean_update_cost = (
            server_size * self.update_traffic_fraction / total_updates
        )
        streams = []
        for index, segment in enumerate(self.segments):
            stream_class = STREAM_CLASSES[segment.model]
            knobs = dict(segment.knobs)
            for row in model_knobs(stream_class):
                if row.cache_multiple is not None:
                    # Sized against the cache unless the segment says otherwise
                    # (the adversary's working set: just past the capacity).
                    knobs.setdefault(
                        row.name, server_size * self.cache_fraction * row.cache_multiple
                    )
            try:
                streams.append(
                    stream_class(
                        catalog=catalog,
                        query_count=segment.query_count,
                        update_count=segment.update_count,
                        mean_query_cost=mean_query_cost,
                        mean_update_cost=mean_update_cost,
                        seed=self.seed + 101 * (index + 1),
                        **knobs,
                    )
                )
            except (TypeError, ValueError) as exc:
                raise FuzzError(
                    f"segment {index} ({segment.model!r}) rejected its "
                    f"knobs: {exc}"
                ) from exc
        return ComposedScenarioStream(catalog=catalog, streams=tuple(streams))

    # ------------------------------------------------------------------
    # ScenarioSource contract
    # ------------------------------------------------------------------
    def realise(self) -> Tuple[ObjectCatalog, Trace]:
        """The catalogue plus the fully-materialised composed trace."""
        catalog = self.build_catalog()
        return catalog, self.build_stream(catalog).materialise()

    def realise_stream(self) -> Tuple[ObjectCatalog, TraceStream]:
        """The catalogue plus the lazy composed stream (byte-identical)."""
        catalog = self.build_catalog()
        return catalog, self.build_stream(catalog)

    def cache_key(self) -> Tuple[object, ...]:
        """Hashable identity of the build recipe (name excluded: a label)."""
        return (
            "fuzz-composition",
            tuple(
                (s.model, s.query_count, s.update_count, s.knobs)
                for s in self.segments
            ),
            self.object_count,
            self.scale,
            self.cache_fraction,
            self.query_traffic_fraction,
            self.update_traffic_fraction,
            self.seed,
        )

    # ------------------------------------------------------------------
    # Serialisation (the composition file format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (``from_dict`` round-trips it)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "object_count": self.object_count,
            "scale": self.scale,
            "cache_fraction": self.cache_fraction,
            "query_traffic_fraction": self.query_traffic_fraction,
            "update_traffic_fraction": self.update_traffic_fraction,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CompositionSpec":
        """Rebuild a composition from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise FuzzError(
                f"composition must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        raw_segments = data.pop("segments", None)
        if not isinstance(raw_segments, Sequence) or isinstance(
            raw_segments, (str, bytes)
        ):
            raise FuzzError("composition needs a 'segments' list")
        known = {f.name for f in fields(cls)} - {"segments"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FuzzError(f"unknown composition key(s) {unknown}")
        return cls(
            segments=tuple(SegmentSpec.from_dict(s) for s in raw_segments),
            **data,
        )


def save_composition(spec: CompositionSpec, path: Union[str, Path]) -> Path:
    """Write a composition as a JSON file (:func:`load_composition` format)."""
    path = Path(path)
    path.write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def is_composition_file(path: Union[str, Path]) -> bool:
    """Whether ``path`` holds a :func:`save_composition` file: a JSON object with ``segments``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return isinstance(data, dict) and "segments" in data


def load_composition(path: Union[str, Path]) -> CompositionSpec:
    """Load a composition previously written with :func:`save_composition`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FuzzError(f"cannot read composition file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FuzzError(f"{path} is not valid JSON: {exc}") from exc
    return CompositionSpec.from_dict(data)


@dataclass(frozen=True)
class ComposedScenarioStream(TraceStream):
    """Segment streams chained into one stream with global ids/timestamps.

    Each segment keeps its own seeded generators (so a segment's events do
    not depend on what precedes it); the composition re-stamps timestamps to
    the global consecutive sequence ``1..len(self)`` and offsets query and
    update ids so they stay unique across segments.  The result satisfies
    the full :class:`~repro.workload.trace.TraceStream` contract: lazy,
    restartable, sized, picklable.
    """

    catalog: ObjectCatalog
    streams: Tuple[ScenarioModelStream, ...] = ()

    def __post_init__(self) -> None:
        if not self.streams:
            raise FuzzError("a composed stream needs at least one segment")

    def __len__(self) -> int:
        return sum(len(stream) for stream in self.streams)

    @property
    def query_count(self) -> int:
        """Total queries across every segment."""
        return sum(stream.query_count for stream in self.streams)

    @property
    def update_count(self) -> int:
        """Total updates across every segment."""
        return sum(stream.update_count for stream in self.streams)

    def iter_events(self) -> Iterator[TraceEvent]:
        position = 0
        query_offset = 0
        update_offset = 0
        for stream in self.streams:
            for event in stream.iter_events():
                timestamp = float(position + 1)
                position += 1
                if isinstance(event, UpdateEvent):
                    yield UpdateEvent(
                        replace(
                            event.update,
                            update_id=event.update.update_id + update_offset,
                            timestamp=timestamp,
                        )
                    )
                else:
                    yield QueryEvent(
                        replace(
                            event.query,
                            query_id=event.query.query_id + query_offset,
                            timestamp=timestamp,
                        )
                    )
            query_offset += stream.query_count
            update_offset += stream.update_count

    def update_region(self) -> List[int]:
        """Union of the segments' favoured regions (first-seen order)."""
        seen: Dict[int, None] = {}
        for stream in self.streams:
            for object_id in stream.update_region():
                seen.setdefault(object_id, None)
        return list(seen)
