"""The space-constrained object store at the middleware cache.

:class:`CacheStore` tracks which data objects are resident, how much capacity
they occupy, which server version each resident copy corresponds to, and
whether the copy is currently marked stale (an update arrived at the server
that has not been shipped).  It enforces the capacity constraint but does not
*choose* what to evict -- that is the job of an
:class:`repro.cache.base.EvictionPolicy`.

All sizes and capacities are in MB, consistent with the rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Set


@dataclass(slots=True)
class CachedObject:
    """Book-keeping record for one resident data object."""

    object_id: int
    #: Size the object occupies in the cache (its size at load time).
    size: float
    #: Server version the resident copy corresponds to.
    version: int
    #: Event time at which the object was loaded.
    loaded_at: float
    #: Whether the server has updates this copy has not seen.
    stale: bool = False
    #: Number of queries answered (fully) from this resident copy.
    hits: int = 0
    #: Event time of the most recent hit.
    last_hit_at: Optional[float] = None


class CacheCapacityError(RuntimeError):
    """Raised when an insert would exceed capacity and no eviction freed room."""


class CacheStore:
    """Capacity-enforcing store of whole data objects.

    Parameters
    ----------
    capacity:
        Total capacity in MB.  ``float('inf')`` models the unbounded cache the
        Replica yardstick assumes.
    """

    __slots__ = ("_capacity", "_objects", "_used", "_loads", "_evictions")

    def __init__(self, capacity: float) -> None:
        if not capacity >= 0:  # NaN fails every comparison
            raise ValueError(f"capacity must be non-negative, got {capacity!r}")
        self._capacity = capacity
        self._objects: Dict[int, CachedObject] = {}
        self._used = 0.0
        self._loads = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Total capacity in MB."""
        return self._capacity

    @property
    def used(self) -> float:
        """Capacity currently occupied, in MB."""
        return self._used

    @property
    def free(self) -> float:
        """Remaining capacity, in MB."""
        return self._capacity - self._used

    def fits(self, size: float) -> bool:
        """Whether an object of ``size`` MB fits without any eviction."""
        return size <= self.free + 1e-9

    def can_ever_fit(self, size: float) -> bool:
        """Whether an object of ``size`` MB could fit even in an empty cache."""
        return size <= self._capacity + 1e-9

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[int]:
        return iter(self._objects)

    def get(self, object_id: int) -> Optional[CachedObject]:
        """Return the record for a resident object, or ``None``."""
        return self._objects.get(object_id)

    def resident_ids(self) -> Set[int]:
        """Identifiers of all resident objects."""
        return set(self._objects)

    def records(self) -> List[CachedObject]:
        """All residency records (no particular order)."""
        return list(self._objects.values())

    def contains_all(self, object_ids: AbstractSet[int]) -> bool:
        """Whether every object in the set ``object_ids`` is resident."""
        return self._objects.keys() >= object_ids

    def missing(self, object_ids: Iterable[int]) -> Set[int]:
        """The subset of ``object_ids`` that is not resident."""
        return set(object_ids).difference(self._objects)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, object_id: int, size: float, version: int, timestamp: float) -> CachedObject:
        """Insert (load) an object into the cache.

        The caller must have made room first; raises
        :class:`CacheCapacityError` if the object does not fit, and
        ``ValueError`` if it is already resident.
        """
        if object_id in self._objects:
            raise ValueError(f"object {object_id} is already resident")
        if not self.fits(size):
            raise CacheCapacityError(
                f"object {object_id} ({size:.1f}MB) does not fit in free {self.free:.1f}MB"
            )
        record = CachedObject(object_id, size, version, timestamp)
        self._objects[object_id] = record
        self._used += size
        self._loads += 1
        return record

    def evict(self, object_id: int) -> CachedObject:
        """Remove an object from the cache and return its record."""
        record = self._objects.pop(object_id, None)
        if record is None:
            raise KeyError(f"object {object_id} is not resident")
        self._used -= record.size
        if self._used < 1e-9:
            self._used = 0.0
        self._evictions += 1
        return record

    def mark_stale(self, object_id: int) -> bool:
        """Mark a resident object stale; returns ``False`` if not resident."""
        record = self._objects.get(object_id)
        if record is None:
            return False
        record.stale = True
        return True

    def mark_fresh(self, object_id: int, version: int) -> None:
        """Mark a resident object fresh at the given server version."""
        record = self._objects.get(object_id)
        if record is None:
            raise KeyError(f"object {object_id} is not resident")
        record.stale = False
        record.version = version

    def record_hit(self, object_id: int, timestamp: float) -> None:
        """Record that a query was answered from this object."""
        self.record_hits((object_id,), timestamp)

    def record_hits(self, object_ids: Iterable[int], timestamp: float) -> None:
        """Record that a query was answered from each of ``object_ids``."""
        objects = self._objects
        for object_id in object_ids:
            record = objects.get(object_id)
            if record is None:
                raise KeyError(f"object {object_id} is not resident")
            record.hits += 1
            record.last_hit_at = timestamp

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def load_count(self) -> int:
        """Number of inserts performed over the store's lifetime."""
        return self._loads

    @property
    def eviction_count(self) -> int:
        """Number of evictions performed over the store's lifetime."""
        return self._evictions

    def occupancy(self) -> float:
        """Fraction of capacity in use (0 for an unbounded empty cache)."""
        if self._capacity == 0 or self._capacity == float("inf"):
            return 0.0 if self._used == 0 else self._used / self._capacity
        return self._used / self._capacity

    def stats(self) -> Dict[str, float]:
        """Summary counters for reports and tests."""
        return {
            "capacity": self._capacity,
            "used": self._used,
            "resident_objects": float(len(self._objects)),
            "loads": float(self._loads),
            "evictions": float(self._evictions),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStore(used={self._used:.1f}/{self._capacity:.1f}MB, "
            f"objects={len(self._objects)})"
        )
