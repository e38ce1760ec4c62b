"""Adversarial scenario fuzzer: randomised compositions of workload models.

The scenario-diversity models (:mod:`repro.workload.scenarios`) each stress
one traffic shape.  Real query logs chain such shapes: a diurnal morning, a
flash crowd at noon, an update storm while the survey recalibrates.  This
module makes such chains first-class and *drawable*:

* :class:`SegmentSpec` / :class:`CompositionSpec` -- a composition as pure
  data: an ordered list of (model, counts, knob overrides) segments plus the
  catalogue knobs.  A spec is frozen, picklable, JSON round-trippable and a
  :class:`~repro.sim.sweep.ScenarioSource`, so a drawn scenario can be
  replayed by the sweep runner directly or saved as a *minimal repro file*
  (:func:`save_regression`) when it exposes a policy regression.
* :class:`ComposedScenarioStream` -- the built form: segment streams chained
  into one :class:`~repro.workload.trace.TraceStream` with globally
  consecutive timestamps and globally unique event ids, still lazy,
  restartable and constant-memory.
* :func:`draw_composition_spec` -- the fuzzer's generator: a seeded draw of
  1-3 segments with randomised *valid* knobs (every draw respects the model
  validators), including the cache-adversary stream sized just past the
  cache capacity.
* :func:`check_stream_invariants` -- the structural invariants every
  composition must satisfy (the programmatic form of the assertions in
  ``tests/test_workload_scenarios.py``), raising
  :class:`StreamInvariantError` with the first violation.

The hypothesis property suite (``tests/test_fuzz.py``) drives
:func:`draw_composition_spec` across seeds and asserts the invariants hold
for every composition; the ``fuzzed`` experiment
(:mod:`repro.experiments.fuzzed`) replays drawn scenarios against the policy
roster and saves a repro file whenever VCover loses to the NoCache yardstick.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.repository.catalog import sdss_catalog
from repro.repository.objects import ObjectCatalog
from repro.sim.sweep import ScenarioSource
from repro.workload.scenarios import (
    MODEL_NAMES,
    STREAM_CLASSES,
    ScenarioModelStream,
    model_knobs,
)
from repro.workload.trace import (
    QueryEvent,
    Trace,
    TraceEvent,
    TraceStream,
    UpdateEvent,
)


class FuzzError(ValueError):
    """A composition description is malformed (unknown model, bad knob...)."""


class StreamInvariantError(AssertionError):
    """A composed stream violated one of the structural trace invariants."""


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
        if self.model not in STREAM_CLASSES:
            raise FuzzError(
                f"unknown segment model {self.model!r}; "
                f"known models: {', '.join(MODEL_NAMES)}"
            )
        if self.query_count < 0 or self.update_count < 0:
            raise FuzzError("segment event counts must be non-negative")
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
                query_count=int(data["query_count"]),
                update_count=int(data["update_count"]),
                knobs=tuple(sorted(knobs.items())),
            )
        except KeyError as exc:
            raise FuzzError(f"segment is missing required key {exc}") from exc


@dataclass(frozen=True)
class CompositionSpec(ScenarioSource):
    """A composed scenario as pure data: catalogue knobs + ordered segments.

    The spec is a :class:`~repro.sim.sweep.ScenarioSource`: sweep workers
    rebuild the composition deterministically from the seeds (memoised via
    :meth:`cache_key`), and ``realise_stream`` hands back the lazy
    :class:`ComposedScenarioStream`, so streaming points replay fuzzed
    scenarios in constant memory with byte-identical results.
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
        if self.object_count < 2:
            raise FuzzError("object_count must be at least 2")
        if self.scale <= 0 or self.cache_fraction <= 0:
            raise FuzzError("scale and cache_fraction must be positive")
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
    # Serialisation (the minimal-repro file format)
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


def save_regression(
    spec: CompositionSpec, directory: Union[str, Path]
) -> Path:
    """Save a failing composition as a minimal repro file under ``directory``.

    The file is the :func:`save_composition` JSON, named after the spec, so
    ``repro.workload.fuzz.load_composition`` (or the ``fuzzed`` experiment's
    docs walkthrough) replays the exact failing scenario.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return save_composition(spec, directory / f"{spec.name}.json")


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


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------
def check_stream_invariants(
    stream: TraceStream, catalog: ObjectCatalog
) -> None:
    """Assert the structural trace invariants every composition must hold.

    This is the programmatic form of the assertions the scenario-model test
    suite applies to each hand-built model, applied to arbitrary (fuzzed)
    compositions:

    * the stream is *sized*: iterating yields exactly ``len(stream)`` events;
    * timestamps are the consecutive integers ``1..len(stream)``;
    * query and update ids are unique within their kind;
    * every cost is positive and finite; every tolerance is non-negative;
    * every object id referenced exists in ``catalog``;
    * the stream is *restartable*: a second pass yields identical events.

    Raises :class:`StreamInvariantError` describing the first violation.
    """
    known_ids = set(catalog.object_ids)
    query_ids = set()
    update_ids = set()
    count = 0
    for event in stream.iter_events():
        count += 1
        if event.timestamp != float(count):
            raise StreamInvariantError(
                f"event {count} has timestamp {event.timestamp!r}; "
                f"expected consecutive {float(count)!r}"
            )
        if isinstance(event, UpdateEvent):
            update = event.update
            if update.update_id in update_ids:
                raise StreamInvariantError(
                    f"duplicate update id {update.update_id}"
                )
            update_ids.add(update.update_id)
            touched = [update.object_id]
            cost = update.cost
        else:
            query = event.query
            if query.query_id in query_ids:
                raise StreamInvariantError(
                    f"duplicate query id {query.query_id}"
                )
            query_ids.add(query.query_id)
            if not query.object_ids:
                raise StreamInvariantError(
                    f"query {query.query_id} has an empty footprint"
                )
            if query.tolerance < 0:
                raise StreamInvariantError(
                    f"query {query.query_id} has negative tolerance "
                    f"{query.tolerance!r}"
                )
            touched = list(query.object_ids)
            cost = query.cost
        if not (cost > 0 and math.isfinite(cost)):
            raise StreamInvariantError(
                f"event at timestamp {event.timestamp} has non-positive or "
                f"non-finite cost {cost!r}"
            )
        unknown = [oid for oid in touched if oid not in known_ids]
        if unknown:
            raise StreamInvariantError(
                f"event at timestamp {event.timestamp} references object "
                f"id(s) {unknown} missing from the catalogue"
            )
    if count != len(stream):
        raise StreamInvariantError(
            f"stream advertises {len(stream)} events but yielded {count}"
        )
    first = [
        (event.kind, event.timestamp) for event in stream.iter_events()
    ]
    second = [
        (event.kind, event.timestamp) for event in stream.iter_events()
    ]
    if first != second:
        raise StreamInvariantError(
            "stream is not restartable: two passes disagreed"
        )


# ----------------------------------------------------------------------
# The fuzzer's draw
# ----------------------------------------------------------------------
def _draw_segment_knobs(
    rng: np.random.Generator, model: str
) -> Tuple[Tuple[str, object], ...]:
    """Randomised *valid* knob overrides for one segment model.

    One draw per knob that declares a fuzz range, in field order: the draws
    are pinned (a seed names a scenario), so the order is part of the format.
    """
    drawn: List[Tuple[str, object]] = []
    for row in model_knobs(STREAM_CLASSES[model]):
        if row.fuzz is None:
            continue
        low, high = row.fuzz
        if row.is_int:
            drawn.append((row.name, int(rng.integers(low, high + 1))))
        else:
            drawn.append((row.name, round(float(rng.uniform(low, high)), 3)))
    return tuple(drawn)


def draw_composition_spec(
    seed: int,
    max_segments: int = 3,
    max_events_per_segment: int = 400,
    object_count: Optional[int] = None,
) -> CompositionSpec:
    """One seeded fuzzer draw: a random multi-segment composition.

    Every draw is *valid by construction* -- segment knobs are sampled
    inside the model validators' ranges -- and fully determined by ``seed``,
    so a failing scenario is reproduced by its seed alone (and can be
    pinned as a file via :func:`save_regression`).
    """
    if max_segments < 1:
        raise FuzzError("max_segments must be at least 1")
    rng = np.random.default_rng(seed)
    segment_count = int(rng.integers(1, max_segments + 1))
    floor = 50
    segments = []
    for _ in range(segment_count):
        model = MODEL_NAMES[int(rng.integers(0, len(MODEL_NAMES)))]
        segments.append(
            SegmentSpec(
                model=model,
                query_count=int(rng.integers(floor, max_events_per_segment)),
                update_count=int(rng.integers(floor, max_events_per_segment)),
                knobs=_draw_segment_knobs(rng, model),
            )
        )
    return CompositionSpec(
        segments=tuple(segments),
        object_count=(
            object_count
            if object_count is not None
            else int(rng.integers(24, 96))
        ),
        cache_fraction=round(float(rng.uniform(0.1, 0.5)), 3),
        seed=seed,
        name=f"fuzz-{seed}",
    )
