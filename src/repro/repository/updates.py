"""Update specifications.

Updates in Delta are predominantly data *inserts* produced by the telescope
pipeline.  Each update affects exactly one data object (Section 3 of the
paper) and carries a network shipping cost proportional to the number of bytes
inserted.  Updates are the unit of invalidation: when an update arrives at the
server for an object that is cached, the cached copy becomes stale until that
update is shipped (or the object is reloaded).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro._compat import SlottedFrozenPickle


class UpdateKind:
    """Enumeration of update kinds.

    Scientific repositories are append-mostly; the decision framework does not
    care which kind an update is (Section 4, Discussion), but the repository
    substrate applies them differently.
    """

    __slots__ = ()

    INSERT = "insert"
    MODIFY = "modify"
    DELETE = "delete"

    ALL = (INSERT, MODIFY, DELETE)


@dataclass(frozen=True, slots=True, init=False)
class Update(SlottedFrozenPickle):
    """A single update event.

    Attributes
    ----------
    update_id:
        Monotonically increasing identifier, unique within a trace.
    object_id:
        The single data object this update affects (``o(u)`` in the paper).
    cost:
        Network traffic cost (MB) of shipping this update to the cache --
        proportional to the size of the inserted/modified data.
    timestamp:
        Event-sequence time at which the update arrives at the server.
    kind:
        One of :class:`UpdateKind`; defaults to ``insert``.
    rows:
        Number of rows inserted/affected (bookkeeping for the repository
        substrate; not used by the decision algorithms).
    """

    update_id: int
    object_id: int
    cost: float
    timestamp: float
    kind: str = UpdateKind.INSERT
    rows: int = 0

    def __init__(
        self,
        update_id: int,
        object_id: int,
        cost: float,
        timestamp: float,
        kind: str = UpdateKind.INSERT,
        rows: int = 0,
    ) -> None:
        if cost < 0:
            raise ValueError(f"update {update_id} has negative cost {cost!r}")
        if kind not in UpdateKind.ALL:
            raise ValueError(f"update {update_id} has unknown kind {kind!r}")
        _set_update_id(self, update_id)
        _set_object_id(self, object_id)
        _set_cost(self, cost)
        _set_timestamp(self, timestamp)
        _set_kind(self, kind)
        _set_rows(self, rows)

    @property
    def shipping_cost(self) -> float:
        """Alias for :attr:`cost` matching the paper's ``nu(u)`` notation."""
        return self.cost


_set_update_id, _set_object_id, _set_cost, _set_timestamp, _set_kind, _set_rows = (
    Update.__dict__[name].__set__ for name in Update.__dataclass_fields__
)


class UpdateIdAllocator:
    """Hands out unique update identifiers for trace generators."""

    __slots__ = ("_counter",)

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def next_id(self) -> int:
        """Return the next unused update id."""
        return next(self._counter)

    def __iter__(self) -> Iterator[int]:  # pragma: no cover - convenience
        return self._counter
