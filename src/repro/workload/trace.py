"""Trace model: interleaved sequences of query and update events.

A *trace* is the unit the simulator consumes: a time-ordered sequence of
events, each either a query arriving at the cache or an update arriving at
the repository.  Events wrap the :class:`repro.repository.queries.Query` and
:class:`repro.repository.updates.Update` domain objects and add nothing but a
uniform ``timestamp`` / ``kind`` accessor, so policies can iterate one stream.

Two kinds of event source live here:

* :class:`TraceStream` -- the source contract the simulation engines replay:
  a restartable, deterministic, time-ordered event sequence of known length.
  Streams never have to materialise their events, so workloads far larger
  than memory can be replayed in (near-)constant RSS; see
  :mod:`repro.workload.stream` and :mod:`repro.workload.scenarios` for the
  lazily-generated implementations.
* :class:`Trace` -- the concrete, fully-materialised source.  Its one
  per-event record is the ``(is_update, payload)`` list the replay loops
  dispatch on (:meth:`Trace.tagged_events` returns it as stored); the
  :class:`QueryEvent` / :class:`UpdateEvent` wrappers are made on demand,
  and compare by value.  It supports JSONL (one event per line) round-trips
  so that generated workloads can be persisted, diffed and replayed, plus
  the slicing/statistics helpers used throughout the experiments and
  reports.  :meth:`Trace.slice_events` returns a :class:`TraceView` -- a
  zero-copy window over the parent's list.

:class:`ScenarioSource` is what a sweep worker receives instead of a built
trace; :class:`InlineScenario` is the one that wraps an already-built one.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro._compat import SlottedFrozenPickle
from repro.repository.queries import Query
from repro.repository.updates import Update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (columns uses trace)
    from repro.repository.objects import ObjectCatalog
    from repro.workload.columns import TraceColumns


@dataclass(frozen=True, slots=True)
class QueryEvent(SlottedFrozenPickle):
    """A query arriving at the middleware cache."""

    query: Query

    @property
    def timestamp(self) -> float:
        """Arrival time in event-sequence units."""
        return self.query.timestamp

    @property
    def kind(self) -> str:
        """Always ``"query"``."""
        return "query"


@dataclass(frozen=True, slots=True)
class UpdateEvent(SlottedFrozenPickle):
    """An update arriving at the repository."""

    update: Update

    @property
    def timestamp(self) -> float:
        """Arrival time in event-sequence units."""
        return self.update.timestamp

    @property
    def kind(self) -> str:
        """Always ``"update"``."""
        return "update"


TraceEvent = Union[QueryEvent, UpdateEvent]

#: ``(is_update, payload)`` pair -- the engines' dispatch form of one event.
TaggedEvent = Tuple[bool, Union[Query, Update]]


def tag_event(event: TraceEvent) -> TaggedEvent:
    """The ``(is_update, payload)`` dispatch form of one event."""
    if isinstance(event, UpdateEvent):
        return (True, event.update)
    if isinstance(event, QueryEvent):
        return (False, event.query)
    raise TypeError(f"unknown event type {type(event)!r}")


def untag_event(tagged: TaggedEvent) -> TraceEvent:
    """The event an ``(is_update, payload)`` pair stands for (inverse of :func:`tag_event`)."""
    is_update, payload = tagged
    return UpdateEvent(payload) if is_update else QueryEvent(payload)  # type: ignore[arg-type]


class TraceStream(abc.ABC):
    """Contract every replayable event source satisfies.

    A stream is a *restartable*, deterministic, time-ordered sequence of
    :data:`TraceEvent` of known length: every call to :meth:`iter_events`
    (or :meth:`iter_tagged`) yields the same events in the same order, and
    ``len(stream)`` is known without a pass.  Implementations are free to
    generate events lazily -- the simulation engines only ever make forward
    passes, so a lazily-generated stream is replayed in constant memory.

    Some consumers make more than one pass (offline preparation reads the
    stream once before the replay; sweeps record
    :meth:`describe` statistics), which restartability makes safe: each pass
    simply regenerates the sequence.
    """

    @abc.abstractmethod
    def iter_events(self) -> Iterator[TraceEvent]:
        """Yield every event in timestamp order (restartable)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of events (known without iterating)."""

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.iter_events()

    def iter_tagged(self) -> Iterator[TaggedEvent]:
        """``(is_update, payload)`` pairs in event order (restartable).

        The engines' replay loops dispatch on the boolean tag instead of
        calling ``isinstance`` per event per policy run.
        """
        for event in self.iter_events():
            yield tag_event(event)

    def iter_chunks(self, size: int = 8192) -> Iterator[List[TaggedEvent]]:
        """``(is_update, payload)`` pairs in lists of at most ``size`` (batch consumers)."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        tagged = self.iter_tagged()
        while chunk := list(islice(tagged, size)):
            yield chunk

    def queries(self) -> Iterable[Query]:
        """All queries in order (lazy for generated streams)."""
        return (
            payload for is_update, payload in self.iter_tagged() if not is_update
        )

    def updates(self) -> Iterable[Update]:
        """All updates in order (lazy for generated streams)."""
        return (payload for is_update, payload in self.iter_tagged() if is_update)

    def total_query_cost(self) -> float:
        """Sum of query shipping costs (the NoCache total)."""
        return sum(query.cost for query in self.queries())

    def total_update_cost(self) -> float:
        """Sum of update shipping costs (the Replica total, ignoring loads)."""
        return sum(update.cost for update in self.updates())

    def describe(self) -> Dict[str, float]:
        """Summary statistics for reports, computed in one streaming pass."""
        queries = updates = 0
        query_cost = update_cost = 0.0
        for is_update, payload in self.iter_tagged():
            if is_update:
                updates += 1
                update_cost += payload.cost
            else:
                queries += 1
                query_cost += payload.cost
        return {
            "events": float(queries + updates),
            "queries": float(queries),
            "updates": float(updates),
            "total_query_cost": query_cost,
            "total_update_cost": update_cost,
        }

    def materialise(self) -> "Trace":
        """A fully-materialised :class:`Trace` holding this stream's events."""
        return Trace.from_tagged(list(self.iter_tagged()))


class Trace(TraceStream):
    """A time-ordered sequence of query and update events.

    Stored as one ``(is_update, payload)`` list; ``Trace(events)`` tags its
    events once (``TypeError`` on anything else), and every constructor
    rejects out-of-order timestamps with ``ValueError``.
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self._adopt([tag_event(event) for event in events])

    @classmethod
    def from_tagged(cls, tagged: List[TaggedEvent]) -> "Trace":
        """A trace that keeps ``tagged`` as its event list (not copied)."""
        trace = cls.__new__(cls)
        trace._adopt(tagged)
        return trace

    def _adopt(self, tagged: List[TaggedEvent]) -> None:
        stamps = [payload.timestamp for _, payload in tagged]
        for earlier, later in zip(stamps, stamps[1:], strict=False):
            if later < earlier - 1e-9:
                raise ValueError(
                    "trace events must be ordered by timestamp; "
                    f"{later!r} follows {earlier!r}"
                )
        self._tagged = tagged
        #: Lazily compiled columnar view used by the batched replay path.
        self._columns: Optional["TraceColumns"] = None

    # ------------------------------------------------------------------
    # Pickling (sweeps ship traces to worker processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, List[TaggedEvent]]:
        """Pickle only the event list; the columns are recompiled on demand."""
        return {"_tagged": self._tagged}

    def __setstate__(self, state: Dict[str, List[TaggedEvent]]) -> None:
        self._tagged = state["_tagged"]
        self._columns = None

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tagged)

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceEvent, "Trace"]:
        if isinstance(index, slice):
            return Trace.from_tagged(self._tagged[index])
        return untag_event(self._tagged[index])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def iter_events(self) -> Iterator[TraceEvent]:
        """The stream contract: one wrapper per stored pair, made as iterated."""
        return map(untag_event, self._tagged)

    def iter_tagged(self) -> Iterator[TaggedEvent]:
        """Iterate the stored ``(is_update, payload)`` list (hot path)."""
        return iter(self._tagged)

    def materialise(self) -> "Trace":
        """Already materialised: return self."""
        return self

    def tagged_events(self) -> List[TaggedEvent]:
        """``(is_update, payload)`` pairs in event order: the stored list itself.

        The simulation engines dispatch on the boolean tag instead of calling
        ``isinstance`` twice per event per policy run; every policy in a
        comparison replays the same list.
        """
        return self._tagged

    def columns(self) -> "TraceColumns":
        """The columnar (struct-of-arrays) compilation of this trace.

        Compiled once and cached -- every batched policy run in a comparison
        replays the same arrays (numpy's; see :mod:`repro.workload.columns`).
        """
        cols = self._columns
        if cols is None:
            from repro.workload.columns import TraceColumns

            cols = TraceColumns.from_tagged(self._tagged)
            self._columns = cols
        return cols

    def queries(self) -> List[Query]:
        """All queries in order."""
        return cast(List[Query], [payload for is_update, payload in self._tagged if not is_update])

    def updates(self) -> List[Update]:
        """All updates in order."""
        return cast(List[Update], [payload for is_update, payload in self._tagged if is_update])

    @property
    def query_count(self) -> int:
        """Number of query events."""
        return len(self._tagged) - self.update_count

    @property
    def update_count(self) -> int:
        """Number of update events."""
        return sum(is_update for is_update, _ in self._tagged)

    def slice_events(self, start: int, stop: Optional[int] = None) -> "TraceView":
        """Zero-copy sub-trace by event index (used to skip warm-up periods).

        Returns a :class:`TraceView` backed by this trace's list, so
        repeated warm-up splits in a sweep cost O(1) each instead of copying
        the tail of the trace every time (quadratic over a split grid).
        """
        return TraceView(self, start, stop)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_query_cost(self) -> float:
        """Sum of query shipping costs (the NoCache total)."""
        return sum(query.cost for query in self.queries())

    def total_update_cost(self) -> float:
        """Sum of update shipping costs (the Replica total, ignoring loads)."""
        return sum(update.cost for update in self.updates())

    def query_hotspots(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` most-queried object ids with their access counts."""
        counts: Dict[int, int] = {}
        for query in self.queries():
            for object_id in query.object_ids:
                counts[object_id] = counts.get(object_id, 0) + 1
        return sorted(counts.items(), key=lambda item: item[1], reverse=True)[:top]

    def update_hotspots(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` most-updated object ids with their update counts."""
        counts: Dict[int, int] = {}
        for update in self.updates():
            counts[update.object_id] = counts.get(update.object_id, 0) + 1
        return sorted(counts.items(), key=lambda item: item[1], reverse=True)[:top]

    def describe(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "events": float(len(self._tagged)),
            "queries": float(self.query_count),
            "updates": float(self.update_count),
            "total_query_cost": self.total_query_cost(),
            "total_update_cost": self.total_update_cost(),
        }

    # ------------------------------------------------------------------
    # Persistence (JSONL)
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace to a JSONL file, one event per line."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.iter_events():
                handle.write(json.dumps(event_to_dict(event)) + "\n")

    @staticmethod
    def from_jsonl(path: Union[str, Path]) -> "Trace":
        """Read a trace previously written with :meth:`to_jsonl`."""
        path = Path(path)
        events: List[TraceEvent] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                events.append(event_from_dict(json.loads(line)))
        return Trace(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(events={len(self)}, queries={self.query_count}, updates={self.update_count})"


class TraceView(TraceStream):
    """A zero-copy window over a :class:`Trace`'s ``(is_update, payload)`` list.

    The view holds only the parent trace and the resolved ``[start, stop)``
    index range, so slicing is O(1) regardless of the trace length.  It
    satisfies the full :class:`TraceStream` contract (iteration, statistics,
    ``materialise``); indexing is supported for spot checks, and nested
    slices stay views over the original list.
    """

    def __init__(self, parent: Trace, start: int, stop: Optional[int] = None) -> None:
        tagged = parent._tagged
        start, stop, _ = slice(start, stop).indices(len(tagged))
        self._parent = parent
        self._tagged = tagged
        self._start = start
        self._stop = max(start, stop)
        #: The window of the parent's columns, built by the first :meth:`columns`.
        self._columns: Optional["TraceColumns"] = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the columns; they are windowed again on demand."""
        return {**self.__dict__, "_columns": None}

    @property
    def parent(self) -> Trace:
        """The trace this view windows into."""
        return self._parent

    @property
    def start(self) -> int:
        """First event index of the window (resolved, inclusive)."""
        return self._start

    @property
    def stop(self) -> int:
        """Last event index of the window (resolved, exclusive)."""
        return self._stop

    def __len__(self) -> int:
        return self._stop - self._start

    def iter_events(self) -> Iterator[TraceEvent]:
        return map(untag_event, self.iter_tagged())

    def iter_tagged(self) -> Iterator[TaggedEvent]:
        """Window of the parent's ``(is_update, payload)`` list (hot path)."""
        return islice(self._tagged, self._start, self._stop)

    def columns(self) -> "TraceColumns":
        """This window of the parent's columnar compilation (near zero-copy, built once)."""
        if self._columns is None:
            self._columns = self._parent.columns().window(self._start, self._stop)
        return self._columns

    def __getitem__(self, index: int) -> TraceEvent:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("TraceView does not support extended slices")
            return TraceView(self._parent, self._start + start, self._start + stop)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace view index out of range")
        return untag_event(self._tagged[self._start + index])

    def slice_events(self, start: int, stop: Optional[int] = None) -> "TraceView":
        """A nested zero-copy view (indices relative to this view)."""
        start, stop, _ = slice(start, stop).indices(len(self))
        return TraceView(self._parent, self._start + start, self._start + stop)

    @property
    def query_count(self) -> int:
        """Number of query events in the window (one pass)."""
        return sum(1 for is_update, _ in self.iter_tagged() if not is_update)

    @property
    def update_count(self) -> int:
        """Number of update events in the window (one pass)."""
        return sum(1 for is_update, _ in self.iter_tagged() if is_update)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceView(events={len(self)}, start={self._start}, stop={self._stop})"


class ScenarioSource(abc.ABC):
    """Contract every sweep scenario source satisfies.

    A source must be picklable so it can cross the process boundary with the
    worker initialiser.  Workers call :meth:`realise` to obtain the catalogue
    and trace; :meth:`cache_key` lets a worker memoise the build so a source
    shared by many grid points is constructed at most once per process.
    """

    @abc.abstractmethod
    def realise(self) -> Tuple[ObjectCatalog, Trace]:
        """Build (or return) the scenario's catalogue and trace."""

    def realise_stream(self) -> Tuple[ObjectCatalog, TraceStream]:
        """The scenario as a (catalogue, lazy event source) pair.

        Sources that can generate events incrementally override this to
        return a constant-memory :class:`TraceStream`; the default falls back
        to the materialised :meth:`realise` (a :class:`Trace` satisfies the
        stream contract).
        """
        return self.realise()

    def cache_key(self) -> Optional[object]:
        """Hashable identity of the build recipe (``None`` = no memoisation)."""
        return None


@dataclass(frozen=True)
class InlineScenario(ScenarioSource):
    """A sweep scenario handed over as an already-built catalogue + trace.

    ``trace`` may also be any :class:`TraceStream` (e.g. a scenario model
    stream) when the caller wants streaming points without a declarative
    recipe; :meth:`realise` then hands the stream over as it is.
    """

    catalog: ObjectCatalog
    trace: TraceStream

    def realise(self) -> Tuple[ObjectCatalog, Trace]:
        """Return the prebuilt catalogue and trace."""
        return self.catalog, cast(Trace, self.trace)

    def cache_key(self) -> None:
        """No memoisation key: the scenario is already built."""
        return None


def event_to_dict(event: TraceEvent) -> Dict[str, object]:
    """Serialise one event to a plain JSON-compatible dict.

    This is the one event wire format: the JSONL trace files and the
    ``repro.serve`` NDJSON protocol both use it, so a persisted trace line
    and a served query frame payload can never drift apart.
    """
    if isinstance(event, QueryEvent):
        query = event.query
        return {
            "kind": "query",
            "query_id": query.query_id,
            "object_ids": sorted(query.object_ids),
            "cost": query.cost,
            "timestamp": query.timestamp,
            "tolerance": query.tolerance,
            "template": query.template,
        }
    update = event.update
    return {
        "kind": "update",
        "update_id": update.update_id,
        "object_id": update.object_id,
        "cost": update.cost,
        "timestamp": update.timestamp,
        "update_kind": update.kind,
        "rows": update.rows,
    }


_INF = float("inf")


def _integer(payload: Dict[str, Any], key: str, default: Optional[int] = None) -> int:
    """``payload[key]`` if it is an ``int`` (not a ``bool``); else ``ValueError``."""
    value: object = payload[key] if default is None else payload.get(key, default)
    if type(value) is int:
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _number(payload: Dict[str, Any], key: str, default: Optional[float] = None) -> float:
    """``payload[key]`` as a float if it is an ``int`` or ``float`` (not a ``bool`` or string)."""
    value: object = payload[key] if default is None else payload.get(key, default)
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _cost_and_timestamp(payload: Dict[str, Any]) -> Tuple[float, float]:
    """An event's ``cost`` (finite, >= 0) and ``timestamp`` (finite)."""
    cost = _number(payload, "cost")
    if not 0.0 <= cost < _INF:
        raise ValueError(f"cost must be finite and non-negative, got {cost!r}")
    timestamp = _number(payload, "timestamp")
    if not -_INF < timestamp < _INF:
        raise ValueError(f"timestamp must be finite, got {timestamp!r}")
    return cost, timestamp


def tagged_from_dict(payload: Dict[str, Any]) -> TaggedEvent:
    """The ``(is_update, payload)`` pair of one event dict (inverse of :func:`event_to_dict`).

    Every served frame and every JSONL line is decoded here, so a malformed
    field is a ``ValueError`` naming its key, never a silent conversion: ids
    and ``rows`` are ``int`` (``rows`` >= 0), ``object_ids`` a non-empty list
    of ints, ``cost`` finite and >= 0, ``timestamp`` finite, ``tolerance``
    >= 0 (``Infinity``, "any cached copy", is legal).
    """
    kind = payload.get("kind")
    if kind == "query":
        query_id = _integer(payload, "query_id")
        object_ids = payload["object_ids"]
        if type(object_ids) is not list or set(map(type, object_ids)) != {int}:
            raise ValueError(f"object_ids must be a non-empty list of integers, got {object_ids!r}")
        cost, timestamp = _cost_and_timestamp(payload)
        tolerance = _number(payload, "tolerance", 0.0)
        if not tolerance >= 0.0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
        template = payload.get("template", "selection")
        return False, Query(query_id, frozenset(object_ids), cost, timestamp, tolerance, template)
    if kind == "update":
        update_id = _integer(payload, "update_id")
        object_id = _integer(payload, "object_id")
        cost, timestamp = _cost_and_timestamp(payload)
        rows = _integer(payload, "rows", 0)
        if rows < 0:
            raise ValueError(f"rows must be non-negative, got {rows!r}")
        return True, Update(
            update_id, object_id, cost, timestamp, payload.get("update_kind", "insert"), rows
        )
    raise ValueError(f"unknown event kind {kind!r}")


def event_from_dict(payload: Dict[str, Any]) -> TraceEvent:
    """Deserialise one event from a plain dict (inverse of :func:`event_to_dict`)."""
    return untag_event(tagged_from_dict(payload))
