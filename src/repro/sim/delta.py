"""Delta: the user-facing middleware cache facade.

:class:`Delta` wires together the pieces a deployment needs -- a repository,
a cache of a given size, a network-cost ledger and a decision policy -- behind
the small API a client application talks to:

* :meth:`Delta.ingest_update` -- the telescope pipeline delivers a new update
  to the repository,
* :meth:`Delta.submit_query` -- an astronomer submits a query at the cache,
* :meth:`Delta.traffic_report` -- the traffic ledger, broken down by
  data-communication mechanism.

A deployment is the one-site :class:`repro.sim.engine.ReplayKernel` of
:func:`repro.sim.runner.build_site`, stepped one event at a time, as the
served path's :class:`repro.serve.server.CacheServer` is, so the facade
applies events exactly as a simulated run does.  Only an online policy can
be deployed: nothing here sees the future trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.benefit import BenefitConfig
from repro.core.decoupling import QueryOutcome
from repro.core.policy import BaseCachePolicy
from repro.core.roster import POLICY_CLASSES
from repro.core.vcover import VCoverConfig
from repro.network.cost import TrafficCostModel
from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update
from repro.sim.runner import build_site, check_online, policy_spec


@dataclass
class DeltaConfig:
    """Configuration of a Delta deployment.

    Attributes
    ----------
    cache_fraction:
        Cache capacity as a fraction of the repository's total size (the
        paper's default is 0.3).  Ignored when ``cache_capacity`` is given.
    cache_capacity:
        Absolute cache capacity in MB (overrides ``cache_fraction``).
    policy:
        Name of the decision policy (a key of
        :data:`repro.core.roster.POLICY_CLASSES`; :class:`Delta` deploys
        only the online ones, :data:`repro.sim.runner.SERVABLE_POLICIES`).
    vcover / benefit:
        Policy-specific configuration blocks.
    """

    cache_fraction: float = 0.3
    cache_capacity: Optional[float] = None
    policy: str = "vcover"
    vcover: VCoverConfig = field(default_factory=VCoverConfig)
    benefit: BenefitConfig = field(default_factory=BenefitConfig)

    def __post_init__(self) -> None:
        if self.cache_capacity is None and not 0.0 <= self.cache_fraction:
            raise ValueError("cache_fraction must be non-negative")
        if self.cache_capacity is not None and not 0.0 <= self.cache_capacity:
            raise ValueError(f"cache_capacity must be non-negative MB, got {self.cache_capacity}")
        if self.policy not in POLICY_CLASSES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {sorted(POLICY_CLASSES)}"
            )


class Delta:
    """A Delta middleware-cache deployment.

    Parameters
    ----------
    catalog:
        The object catalogue describing the repository's data objects.
    config:
        Deployment configuration; defaults mirror the paper's setup
        (VCover policy, cache 30 % of the server).
    cost_model:
        Traffic cost model; defaults to the paper's linear model.
    """

    def __init__(
        self,
        catalog: ObjectCatalog,
        config: Optional[DeltaConfig] = None,
        cost_model: Optional[TrafficCostModel] = None,
    ) -> None:
        self._config = config or DeltaConfig()
        capacity = self._config.cache_capacity
        if capacity is None:
            capacity = catalog.total_size * self._config.cache_fraction
        name = self._config.policy
        configs = {"vcover": self._config.vcover, "benefit": self._config.benefit}
        spec = policy_spec(name, configs.get(name))
        self._kernel = build_site(catalog, spec, capacity, cost_model=cost_model)
        self._policy = self._kernel.policies[0]
        check_online(spec, self._policy)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def repository(self) -> Repository:
        """The server repository."""
        return self._policy.repository

    @property
    def policy(self) -> BaseCachePolicy:
        """The active decision policy."""
        return self._policy

    @property
    def link(self) -> NetworkLink:
        """The traffic ledger."""
        return self._policy.link

    @property
    def config(self) -> DeltaConfig:
        """The deployment configuration."""
        return self._config

    def ingest_update(self, update: Update) -> None:
        """Apply a pipeline update at the repository and notify the policy."""
        self._kernel.step(True, update)

    def submit_query(self, query: Query) -> QueryOutcome:
        """Submit a user query at the cache and return the audited outcome."""
        return self._kernel.step(False, query)

    def traffic_report(self) -> Dict[str, float]:
        """Total traffic and per-mechanism breakdown, in MB."""
        link = self._policy.link
        report = {"total": link.total_cost}
        report.update(link.total_by_mechanism())
        return report

    def cache_report(self) -> Dict[str, float]:
        """Cache occupancy and hit statistics."""
        counters = self._kernel.counters()
        queries = counters["queries_answered_at_cache"] + counters["queries_shipped"]
        stats = self._policy.stats()
        stats["queries_processed"] = float(queries)
        stats["updates_processed"] = float(counters["events_processed"] - queries)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Delta(policy={self._config.policy!r}, "
            f"traffic={self._policy.link.total_cost:.1f}MB)"
        )
