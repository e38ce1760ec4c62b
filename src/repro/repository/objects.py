"""Data objects and object catalogues.

A *data object* in Delta is a spatial partition of the repository's primary
table (``PhotoObj`` in the SDSS): a contiguous region of the sky holding all
rows whose position falls inside it.  The decision framework only ever needs
an object's identifier, its size in bytes (which doubles as its network-load
cost) and, for workload generation, its sky region and row density.

:class:`ObjectCatalog` is the authoritative listing of all objects on the
server; both the repository and the cache policies share a single catalogue so
sizes and identifiers stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro._compat import SlottedFrozenPickle

if TYPE_CHECKING:
    import numpy as np

#: Conversion helpers; costs in this library are expressed in megabytes (MB)
#: so the numbers stay human-readable at laptop scale.
GB = 1024.0
MB = 1.0


@dataclass(frozen=True, slots=True)
class DataObject(SlottedFrozenPickle):
    """A single cacheable data object (one spatial partition).

    Attributes
    ----------
    object_id:
        Integer identifier, unique within a catalogue (the paper numbers the
        68-object partitioning 1..68).
    size:
        Total size in MB.  This is also the object's *load cost*: loading it
        into the cache transfers the whole object.
    region_id:
        Identifier of the sky region (HTM trixel) this object corresponds to;
        ``None`` for synthetic catalogues built without a sky model.
    density:
        Relative row density of the region, used to scale update sizes (the
        paper sizes updates proportionally to the density of the object).
    level:
        HTM subdivision level the object was cut at, for provenance.
    """

    object_id: int
    size: float
    region_id: Optional[int] = None
    density: float = 1.0
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"object {self.object_id} has negative size {self.size!r}")
        if self.density < 0:
            raise ValueError(f"object {self.object_id} has negative density {self.density!r}")

    @property
    def load_cost(self) -> float:
        """Network traffic cost (MB) of loading this object into the cache."""
        return self.size


class ObjectCatalog:
    """An immutable-ish collection of :class:`DataObject` indexed by id.

    The catalogue is the shared vocabulary between the workload generators,
    the repository, the cache, and the decision algorithms.  It offers O(1)
    lookup by id plus convenience aggregates (total size, size vector).
    """

    __slots__ = ("_objects", "_object_ids", "_positions")

    def __init__(self, objects: Iterable[DataObject]) -> None:
        self._objects: Dict[int, DataObject] = {}
        for obj in objects:
            if obj.object_id in self._objects:
                raise ValueError(f"duplicate object id {obj.object_id}")
            self._objects[obj.object_id] = obj
        if not self._objects:
            raise ValueError("an ObjectCatalog requires at least one object")
        # Nothing adds or removes objects after construction: sort once.
        self._object_ids: List[int] = sorted(self._objects)
        self._positions: Optional[Tuple["np.ndarray", int, Optional["np.ndarray"]]] = None

    # ------------------------------------------------------------------
    # Mapping-style access
    # ------------------------------------------------------------------
    def __getitem__(self, object_id: int) -> DataObject:
        return self._objects[object_id]

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __iter__(self) -> Iterator[DataObject]:
        return iter(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def get(self, object_id: int) -> Optional[DataObject]:
        """Return the object with ``object_id`` or ``None``."""
        return self._objects.get(object_id)

    @property
    def object_ids(self) -> List[int]:
        """All object ids in ascending order (a fresh list per access)."""
        return list(self._object_ids)

    def positions(self, object_ids: "np.ndarray") -> "np.ndarray":
        """Each id's position in :attr:`object_ids` (``len(self)`` if unknown), unsorted."""
        import numpy as np

        if self._positions is None:  # a lookup table for compact ids, else a binary search
            ids, low = np.array(self._object_ids, dtype=np.int64), self._object_ids[0] - 1
            span = self._object_ids[-1] - low + 2  # the end slots catch every id outside
            table = np.full(span, len(ids)) if span <= 4 * len(ids) + 64 else None
            if table is not None:
                table[ids - low] = np.arange(len(ids))
            self._positions = (ids, low, table)
        ids, low, table = self._positions
        if table is not None:
            return table.take(object_ids - low, mode="clip")
        slot = np.minimum(np.searchsorted(ids, object_ids), len(ids) - 1)
        return np.where(ids[slot] == object_ids, slot, len(ids))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_size(self) -> float:
        """Combined size of every object (the 'server size'), in MB."""
        return sum(obj.size for obj in self._objects.values())

    def size_of(self, object_id: int) -> float:
        """Size (== load cost) of one object, in MB."""
        return self._objects[object_id].size

    def sizes(self) -> Dict[int, float]:
        """Mapping of object id to size."""
        return {object_id: obj.size for object_id, obj in self._objects.items()}

    def densities(self) -> Dict[int, float]:
        """Mapping of object id to relative density."""
        return {object_id: obj.density for object_id, obj in self._objects.items()}

    def largest(self, count: int = 1) -> List[DataObject]:
        """The ``count`` largest objects, descending by size."""
        return sorted(self._objects.values(), key=lambda obj: obj.size, reverse=True)[:count]

    def smallest(self, count: int = 1) -> List[DataObject]:
        """The ``count`` smallest objects, ascending by size."""
        return sorted(self._objects.values(), key=lambda obj: obj.size)[:count]

    def describe(self) -> Dict[str, float]:
        """Summary statistics used in reports and docs/experiments.md."""
        sizes = sorted(obj.size for obj in self._objects.values())
        total = sum(sizes)
        return {
            "count": float(len(sizes)),
            "total_size": total,
            "min_size": sizes[0],
            "max_size": sizes[-1],
            "mean_size": total / len(sizes),
            "median_size": sizes[len(sizes) // 2],
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def uniform(count: int, size: float, level: Optional[int] = None) -> "ObjectCatalog":
        """A catalogue of ``count`` equally sized objects (ids 1..count)."""
        if count <= 0:
            raise ValueError("count must be positive")
        return ObjectCatalog(
            DataObject(object_id=i, size=size, density=1.0, level=level)
            for i in range(1, count + 1)
        )

    @staticmethod
    def from_sizes(sizes: Mapping[int, float]) -> "ObjectCatalog":
        """Build a catalogue directly from an id -> size mapping."""
        return ObjectCatalog(
            DataObject(object_id=object_id, size=size) for object_id, size in sizes.items()
        )

    @staticmethod
    def heavy_tailed(
        count: int,
        total_size: float,
        alpha: float = 1.1,
        min_size: Optional[float] = None,
        seed: int = 7,
        level: Optional[int] = None,
    ) -> "ObjectCatalog":
        """A catalogue with a heavy-tailed (Zipf-like) size distribution.

        The paper reports object sizes between 50 MB and 90 GB for the
        68-object partitioning of an ~800 GB table: a few large objects and a
        long tail of small ones.  We draw sizes proportional to a Zipf law of
        exponent ``alpha`` (shuffled so size is not correlated with id) and
        rescale so the catalogue totals ``total_size``.

        Parameters
        ----------
        count:
            Number of objects.
        total_size:
            Desired total size of the catalogue, in MB.
        alpha:
            Zipf exponent; larger means more skew.
        min_size:
            Optional floor for the smallest object, applied before rescaling.
        seed:
            Seed for the shuffle, so catalogues are reproducible.
        level:
            Optional HTM level recorded on every object.
        """
        import random

        if count <= 0:
            raise ValueError("count must be positive")
        if total_size <= 0:
            raise ValueError("total_size must be positive")
        raw = [1.0 / (rank ** alpha) for rank in range(1, count + 1)]
        if min_size is not None:
            floor = min_size * sum(raw) / total_size
            raw = [max(value, floor) for value in raw]
        rng = random.Random(seed)
        rng.shuffle(raw)
        scale = total_size / sum(raw)
        densities = [value * scale for value in raw]
        mean = total_size / count
        return ObjectCatalog(
            DataObject(
                object_id=i + 1,
                size=densities[i],
                density=densities[i] / mean,
                level=level,
            )
            for i in range(count)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectCatalog(count={len(self)}, total_size={self.total_size:.1f}MB)"
