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
* :mod:`repro.core.latency` -- the response-time model over query outcomes.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "BenefitConfig": "repro.core.benefit",
    "BenefitPolicy": "repro.core.benefit",
    "QueryAction": "repro.core.decoupling",
    "QueryOutcome": "repro.core.decoupling",
    "LatencyModel": "repro.core.latency",
    "ResponseTimeSummary": "repro.core.latency",
    "summarise_response_times": "repro.core.latency",
    "OfflineDecoupler": "repro.core.offline",
    "OfflineDecision": "repro.core.offline",
    "BaseCachePolicy": "repro.core.policy",
    "VCoverConfig": "repro.core.vcover",
    "VCoverPolicy": "repro.core.vcover",
    "NoCachePolicy": "repro.core.yardsticks",
    "ReplicaPolicy": "repro.core.yardsticks",
    "SOptimalPolicy": "repro.core.yardsticks",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
