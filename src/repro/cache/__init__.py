"""Cache substrate: space-constrained object store and eviction policies.

The middleware cache in Delta holds whole data objects subject to a capacity
limit.  Which objects to keep is delegated to an *object caching algorithm*
(``A_obj`` in the paper's LoadManager pseudocode); the paper uses
Greedy-Dual-Size, admitted lazily by :class:`repro.core.load_manager.LoadManager`.
This package provides:

* :mod:`repro.cache.store` -- the capacity-enforcing object store with
  per-object freshness/version bookkeeping shared by every policy,
* :mod:`repro.cache.base` -- the eviction-policy interface,
* :mod:`repro.cache.gds` -- Greedy-Dual-Size (Cao & Irani 1997),
* :mod:`repro.cache.lru` / :mod:`repro.cache.lfu` -- classic baselines used
  in ablations,
* :mod:`repro.cache.landlord` -- the Landlord generalisation of GDS.
"""

from repro.cache.base import EvictionPolicy, PolicyIntrospectionError
from repro.cache.gds import GreedyDualSize
from repro.cache.landlord import Landlord
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.store import CacheStore, CachedObject

__all__ = [
    "EvictionPolicy",
    "PolicyIntrospectionError",
    "GreedyDualSize",
    "Landlord",
    "LFUPolicy",
    "LRUPolicy",
    "CacheStore",
    "CachedObject",
]
