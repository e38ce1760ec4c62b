"""Delta's core decision framework.

This package implements the paper's primary contribution:

* :mod:`repro.core.decoupling` -- the data decoupling problem: decision and
  outcome types shared by every algorithm,
* :mod:`repro.core.policy` -- the cache-policy interface and common
  freshness/residency bookkeeping,
* :mod:`repro.core.update_manager` / :mod:`repro.core.load_manager` -- the two
  modules of VCover; the UpdateManager keeps the query/update interaction
  graph, whose one record is its incremental max-flow object,
* :mod:`repro.core.vcover` -- the VCover online algorithm,
* :mod:`repro.core.benefit` -- the exponential-smoothing greedy baseline,
* :mod:`repro.core.yardsticks` -- NoCache, Replica and SOptimal,
* :mod:`repro.core.roster` -- the policy roster: the one name -> class table
  every policy name list is derived from,
* :mod:`repro.core.offline` -- the offline optimal decoupling of Section 3.1,
* :mod:`repro.core.delta` -- the user-facing Delta middleware facade.
"""

from repro.core.benefit import BenefitConfig, BenefitPolicy
from repro.core.decoupling import QueryAction, QueryOutcome
from repro.core.delta import Delta, DeltaConfig
from repro.core.offline import OfflineDecoupler, OfflineDecision
from repro.core.policy import BaseCachePolicy, CachePolicy
from repro.core.vcover import VCoverConfig, VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy

__all__ = [
    "BenefitConfig",
    "BenefitPolicy",
    "QueryAction",
    "QueryOutcome",
    "Delta",
    "DeltaConfig",
    "OfflineDecoupler",
    "OfflineDecision",
    "BaseCachePolicy",
    "CachePolicy",
    "VCoverConfig",
    "VCoverPolicy",
    "NoCachePolicy",
    "ReplicaPolicy",
    "SOptimalPolicy",
]
