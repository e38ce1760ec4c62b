"""Eviction-policy interface.

The LoadManager in VCover delegates "which objects should be resident" to an
object caching algorithm (``A_obj`` in the pseudocode), which the paper
instantiates with Greedy-Dual-Size.  We define a small interface so that GDS,
LRU, LFU and Landlord are interchangeable (used by the ablation experiments);
the LoadManager admits candidates through whichever one is configured.

A policy never talks to the network; it only ranks resident objects for
eviction and is notified of loads, hits and evictions so it can maintain its
internal bookkeeping.  A cache answer reports its hits in one
:meth:`EvictionPolicy.on_hits` call, whatever the number of objects.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Optional


class PolicyIntrospectionError(KeyError):
    """An introspection query (e.g. :meth:`EvictionPolicy.priority`) failed.

    Raised when a policy is asked about an object it is not currently
    tracking.  Subclasses ``KeyError`` so existing ``except KeyError``
    call sites keep working.
    """


class EvictionPolicy(abc.ABC):
    """Ranks resident objects for eviction.

    Implementations keep whatever per-object metadata they need (GDS credits,
    LRU timestamps, LFU counters) keyed by object id.  All costs and sizes are
    in MB.
    """

    @abc.abstractmethod
    def on_load(self, object_id: int, size: float, cost: float, timestamp: float) -> None:
        """Notify the policy that an object was loaded into the cache.

        ``cost`` is the retrieval (load) cost of the object, which for Delta
        equals its size; the two are passed separately because Landlord-style
        policies distinguish them.
        """

    @abc.abstractmethod
    def on_hit(self, object_id: int, timestamp: float) -> None:
        """Notify the policy that a query was answered from this object."""

    def on_hits(self, object_ids: Iterable[int], timestamp: float) -> None:
        """Notify the policy that one query was answered from all of ``object_ids``.

        The same as :meth:`on_hit` on each object in iteration order (which
        the default does); a policy may fold the walk into one loop.
        """
        for object_id in object_ids:
            self.on_hit(object_id, timestamp)

    @abc.abstractmethod
    def on_evict(self, object_id: int) -> None:
        """Notify the policy that the object has been evicted."""

    @abc.abstractmethod
    def victim(self, resident: Iterable[int]) -> Optional[int]:
        """Choose the next eviction victim among ``resident`` object ids.

        Returns ``None`` when the policy has no opinion (e.g. nothing is
        resident).  The caller is responsible for actually evicting the object
        from the store and then calling :meth:`on_evict`.
        """

    def priority(self, object_id: int) -> float:
        """Current eviction priority of an object (lower = evicted sooner).

        Contract: every concrete policy implements this for the objects it
        tracks (GDS credits, LRU timestamps, LFU counters, Landlord
        effective credit) and raises :class:`PolicyIntrospectionError` for an
        object it is not tracking.  Exposed so tests and reports can inspect
        policy state; the returned scale is policy-specific and only
        comparable within one policy instance.
        """
        raise PolicyIntrospectionError(
            f"{type(self).__name__} does not implement priority introspection"
        )

    def reset(self) -> None:
        """Forget all per-object state (used between experiment repetitions)."""
        raise NotImplementedError


class PolicyRegistry:
    """Registry mapping policy names to factories, used by experiment configs."""

    def __init__(self) -> None:
        self._factories: Dict[str, type] = {}

    def register(self, name: str, factory: type) -> None:
        """Register a policy class under ``name``."""
        if name in self._factories:
            raise ValueError(f"policy {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, **kwargs: Any) -> EvictionPolicy:
        """Instantiate a registered policy."""
        try:
            factory = self._factories[name]
        except KeyError as exc:
            raise ValueError(
                f"unknown policy {name!r}; known: {sorted(self._factories)}"
            ) from exc
        return factory(**kwargs)

    def names(self) -> List[str]:
        """All registered policy names."""
        return sorted(self._factories)


#: Global registry populated by the concrete policy modules on import.
registry = PolicyRegistry()
