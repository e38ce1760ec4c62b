"""The server-side repository substrate.

:class:`Repository` is an in-memory stand-in for the SQL Server database of
the paper's prototype.  It stores per-object state (current version, row
count, growth since the initial snapshot), accepts the continuous update
stream from the telescope pipeline, and serves the two data-communication
mechanisms that read server state:

* **query shipping** -- answer a query directly (always possible, always
  up to date),
* **object loading** -- return a full, current snapshot of an object.

The third mechanism, **update shipping**, is charged by the policy: each
policy knows which updates its resident copies lack (VCover keeps its own
outstanding lists), so the repository keeps versions and totals, never a
per-object update history, and its memory stays constant however many
updates it ingests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query
from repro.repository.updates import Update


@dataclass(slots=True)
class ObjectState:
    """Mutable server-side state of one data object."""

    object_id: int
    #: Version counter; bumped once per applied update.
    version: int = 0
    #: Total rows currently in the object (bookkeeping only).
    rows: int = 0
    #: Cumulative bytes (MB) added by updates since the initial snapshot.
    grown_by: float = 0.0


@dataclass(frozen=True, slots=True)
class ObjectSnapshot:
    """An immutable snapshot handed to the cache when an object is loaded."""

    object_id: int
    version: int
    size: float
    #: Timestamp of the latest update included in this snapshot.
    as_of: float


class Repository:
    """In-memory scientific repository (the 'server').

    Parameters
    ----------
    catalog:
        The object catalogue defining identifiers and base sizes.
    """

    __slots__ = (
        "_catalog",
        "_states",
        "_ordered",
        "_updates_received",
        "_queries_answered",
    )

    def __init__(self, catalog: ObjectCatalog) -> None:
        self._catalog = catalog
        self._states: Dict[int, ObjectState] = {
            obj.object_id: ObjectState(object_id=obj.object_id) for obj in catalog
        }
        #: Each state with its base size, in catalogue-position order.
        self._ordered = [(self._states[oid], catalog.size_of(oid)) for oid in catalog.object_ids]
        self._updates_received = 0
        self._queries_answered = 0

    # ------------------------------------------------------------------
    # Catalogue access
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> ObjectCatalog:
        """The shared object catalogue."""
        return self._catalog

    @property
    def total_size(self) -> float:
        """Current total repository size in MB (base size plus growth)."""
        base = self._catalog.total_size
        growth = sum(state.grown_by for state in self._states.values())
        return base + growth

    def object_size(self, object_id: int) -> float:
        """Current size of one object (base size plus growth), in MB.

        This is the *load cost* a cache pays to pull the object right now.
        """
        state = self._states[object_id]
        return self._catalog.size_of(object_id) + state.grown_by

    def object_sizes(self) -> List[float]:
        """:meth:`object_size` of every object, in catalogue-position order."""
        return [size + state.grown_by for state, size in self._ordered]

    def object_version(self, object_id: int) -> int:
        """Current version counter of an object."""
        return self._states[object_id].version

    # ------------------------------------------------------------------
    # Update pipeline
    # ------------------------------------------------------------------
    def ingest_update(self, update: Update) -> None:
        """Apply one pipeline update to the repository.

        Raises ``KeyError`` if the update references an unknown object.
        """
        state = self._states[update.object_id]
        state.version += 1
        state.rows += update.rows
        state.grown_by += update.cost
        self._updates_received += 1

    def ingest_updates(self, updates: Iterable[Update]) -> None:
        """Apply a batch of updates in order."""
        for update in updates:
            self.ingest_update(update)

    def ingest_update_columns(self, object_ids, rows, costs) -> None:
        """Apply a batch of updates given as columnar numpy arrays.

        The vectorised twin of calling :meth:`ingest_update` once per event,
        folded per catalogue position (no sort): version counters and row
        totals advance by exact integer counts, and each object's
        ``grown_by`` accumulates its costs in event order via an unbuffered
        ``np.add.at``, which performs the same sequence of IEEE additions as
        the scalar path.

        Raises ``KeyError`` if any update references an unknown object.
        """
        count = len(object_ids)
        if count == 0:
            return
        import numpy

        positions = self._catalog.positions(object_ids)
        versions = numpy.bincount(positions, minlength=len(self._ordered) + 1)
        if versions[-1]:
            raise KeyError(int(object_ids[positions == len(self._ordered)].min()))
        rows_add = numpy.zeros(len(versions), dtype=numpy.int64)
        numpy.add.at(rows_add, positions, rows)
        grown = numpy.array([state.grown_by for state, _ in self._ordered] + [0.0])
        numpy.add.at(grown, positions, costs)
        for (state, _), version, row, size in zip(
            self._ordered, versions.tolist(), rows_add.tolist(), grown.tolist(), strict=False
        ):
            if version:
                state.version += version
                state.rows += row
                state.grown_by = size
        self._updates_received += count

    # ------------------------------------------------------------------
    # Data communication mechanisms
    # ------------------------------------------------------------------
    def answer_query(self, query: Query) -> float:
        """Ship a query: answer it at the server.

        Returns the network traffic cost of the result (``nu(q)``).  The
        repository always has the latest data, so every currency requirement
        is satisfied here.
        """
        if not self._states.keys() >= query.object_ids:
            unknown = next(oid for oid in query.object_ids if oid not in self._states)
            raise KeyError(f"query {query.query_id} touches unknown object {unknown}")
        self._queries_answered += 1
        return query.cost

    def answer_query_batch(self, touched_object_ids, count: int) -> None:
        """Book ``count`` shipped queries at once (the batched replay path).

        Raises ``KeyError`` (the smallest unknown id) if any id of the numpy
        array ``touched_object_ids`` is not in the catalogue, as
        :meth:`answer_query` does per query.  A batched replay passes every
        unknown-id touch of its trace once, when it is built, and no ids after.
        """
        unknown = [oid for oid in touched_object_ids.tolist() if oid not in self._states]
        if unknown:
            raise KeyError(f"query batch touches unknown object {min(unknown)}")
        self._queries_answered += count

    def load_object(self, object_id: int, timestamp: float) -> Tuple[ObjectSnapshot, float]:
        """Ship a full current snapshot of one object (object loading).

        Returns the snapshot and the load cost, which is the object's *current*
        size (base size plus all growth so far).
        """
        state = self._states[object_id]
        size = self.object_size(object_id)
        snapshot = ObjectSnapshot(
            object_id=object_id, version=state.version, size=size, as_of=timestamp
        )
        return snapshot, size

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for reports and tests."""
        return {
            "updates_received": float(self._updates_received),
            "queries_answered": float(self._queries_answered),
            "total_size": self.total_size,
            "object_count": float(len(self._catalog)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Repository(objects={len(self._catalog)}, "
            f"size={self.total_size:.1f}MB, updates={self._updates_received})"
        )
