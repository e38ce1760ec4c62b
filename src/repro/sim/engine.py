"""The replay kernel: one per-event step, one sampling-grid walker.

Delta's evaluation is one decision framework fed one interleaved
query/update sequence, whether it is simulated or run as the prototype
middleware.  :class:`ReplayKernel` drives it over a list of cache *sites*
(one policy and one link each) sharing a repository:

* :meth:`ReplayKernel.step` applies one event: an update is ingested at the
  repository exactly once and broadcast to every site's policy (any site may
  hold a resident copy), a query goes to the one site the router names and is
  counted as answered at the cache or shipped.  Nothing else in
  :mod:`repro.sim`, :mod:`repro.serve` or :mod:`repro.experiments` calls a
  policy's per-event hooks.
* :meth:`ReplayKernel.run` replays a whole trace: offline preparation (a
  no-op on every online policy), the events in chunks cut at the sampling
  grid, at ``measure_from`` and at end-of-run, traffic and occupancy samples
  at every grid edge, ``finalize``, one end-of-run sample, then one
  :class:`repro.sim.results.RunResult` per site -- plus a fleet-wide
  aggregate exactly when the kernel has a router.  A chunk is one ``step``
  per event or, when :func:`repro.sim.batched.select_batched_executor`
  takes every site (eager policies; a partitioner or no router), one
  ``process`` call, cut also at its next Benefit window edge; there is no
  other sampling-grid walker.

Callers: :func:`repro.sim.runner.run_policy` (one site, no router),
:func:`repro.sim.multicache.run_topology` (a fleet routed by a trace
partitioner), :func:`repro.serve.equivalence.replay_with_log`, the writer
task of :class:`repro.serve.server.CacheServer` (one ``step`` per frame), and
the instrumented replays of :mod:`repro.experiments.warmup` and
:func:`repro.experiments.ablations.run_preship_ablation`.
``on_decision(payload, outcome)`` is the one observation seam, called after
every event; the sim-vs-served decision logs, the warm-up hit rate and the
preshipping outcome stream are recorded through it.

The *measurement window*: the paper excludes the ~250k-event warm-up period
from its plots, so ``run`` records the traffic accumulated before a
configurable ``measure_from`` event index and reports it separately.

``run`` makes one forward pass over ``iter_tagged()`` of any
:class:`repro.workload.trace.TraceStream` and never materialises the event
list, so a generated stream replays in constant memory.  Routing is a pure
function of the router, sites are visited in site order and each policy seeds
its own RNG, so the same inputs give byte-identical results in any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.decoupling import QueryOutcome
from repro.core.policy import CachePolicy
from repro.network.link import Mechanism, NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.repository.updates import Update
from repro.sim.metrics import CacheOccupancySeries, TrafficTimeSeries
from repro.sim.results import RunResult
from repro.workload.trace import TraceStream

#: ``on_decision(payload, outcome)``: ``outcome`` is ``None`` for an update.
DecisionHook = Callable[[Union[Query, Update], Optional[QueryOutcome]], None]


@dataclass(slots=True)
class EngineConfig:
    """Configuration of a simulation run."""

    #: Sample cumulative traffic every this many events.
    sample_every: int = 1000
    #: Event index at which the measurement window opens (0 = measure all).
    measure_from: int = 0


class _CombinedLink:
    """Read-only view summing several links (duck-types what sampling needs)."""

    __slots__ = ("_links",)

    def __init__(self, links: Sequence[NetworkLink]) -> None:
        self._links = list(links)

    @property
    def total_cost(self) -> float:
        return sum(link.total_cost for link in self._links)

    def total_by_mechanism(self) -> Dict[str, float]:
        totals = {mechanism: 0.0 for mechanism in Mechanism.ALL}
        for link in self._links:
            for mechanism, value in link.total_by_mechanism().items():
                totals[mechanism] += value
        return totals


class ReplayKernel:
    """Applies events to a list of cache sites sharing one repository.

    Parameters
    ----------
    policies / links:
        One decision policy and one traffic ledger per site, in site order
        (each policy's internal link must be the link at the same position).
    config:
        Sampling grid and measurement window of :meth:`run`.
    route:
        ``route(query) -> site index``; required for more than one site.  A
        kernel with a router is a fleet -- even a fleet of one.  Only a
        :class:`~repro.workload.partition.TracePartitioner` routes batches.
    on_decision:
        Called as ``on_decision(payload, outcome)`` after every event.
    """

    __slots__ = (
        "_repository",
        "_policies",
        "_links",
        "_config",
        "_route",
        "_on_decision",
        "_answered",
        "_shipped",
        "_events",
    )

    def __init__(
        self,
        repository: Repository,
        policies: Sequence[CachePolicy],
        links: Sequence[NetworkLink],
        config: Optional[EngineConfig] = None,
        route: Optional[Callable[[Query], int]] = None,
        on_decision: Optional[DecisionHook] = None,
    ) -> None:
        if not policies:
            raise ValueError("a replay needs at least one site")
        if len(policies) != len(links):
            raise ValueError(
                f"{len(policies)} policies but {len(links)} links: "
                "every site needs exactly one of each"
            )
        if len(policies) > 1 and route is None:
            raise ValueError(
                f"{len(policies)} sites need a router to say which one answers a query"
            )
        self._repository = repository
        self._policies = list(policies)
        self._links = list(links)
        self._config = config or EngineConfig()
        self._route = route
        self._on_decision = on_decision
        self._answered = [0] * len(self._policies)
        self._shipped = [0] * len(self._policies)
        self._events = 0

    def counters(self) -> Dict[str, int]:
        """Events applied and queries answered/shipped so far, over all sites."""
        return {
            "events_processed": self._events,
            "queries_answered_at_cache": sum(self._answered),
            "queries_shipped": sum(self._shipped),
        }

    def step(self, is_update: bool, payload: Union[Query, Update]) -> Optional[QueryOutcome]:
        """Apply one event; returns the query's audited outcome (updates: None).

        The repository ingests an update before any policy hears of it.  The
        counters move only once the event has been applied, so an event whose
        policy hook raises is not counted.
        """
        outcome: Optional[QueryOutcome] = None
        if is_update:
            self._repository.ingest_update(payload)
            for policy in self._policies:
                policy.on_update(payload)
        else:
            route = self._route
            site = 0 if route is None else route(payload)
            outcome = self._policies[site].on_query(payload)
            if outcome.answered_at_cache:
                self._answered[site] += 1
            else:
                self._shipped[site] += 1
        self._events += 1
        if self._on_decision is not None:
            self._on_decision(payload, outcome)
        return outcome

    def run(
        self,
        trace: TraceStream,
        progress: Optional[Callable[[int, int], None]] = None,
        name: str = "topology",
    ) -> Tuple[List[RunResult], Optional[RunResult]]:
        """Replay ``trace``; returns the per-site runs and the fleet aggregate.

        ``progress(events_done, events_total)`` is invoked at every sampling
        point, for long interactive runs.  The aggregate is ``None`` unless
        the kernel has a router; ``name`` is its ``policy_name``.
        """
        sample_every = self._config.sample_every
        measure_from = self._config.measure_from
        policies, links = self._policies, self._links
        answered, shipped = self._answered, self._shipped
        total_events = len(trace)

        series = [TrafficTimeSeries(link, sample_every=sample_every) for link in links]
        stores = [getattr(policy, "store", None) for policy in policies]
        occupancy = [
            CacheOccupancySeries(sample_every=sample_every) if store is not None else None
            for store in stores
        ]
        fleet_link = fleet_series = fleet_occupancy = None
        if self._route is not None:
            fleet_link = _CombinedLink(links)
            fleet_series = TrafficTimeSeries(fleet_link, sample_every=sample_every)
            if all(store is not None for store in stores):
                fleet_occupancy = CacheOccupancySeries(sample_every=sample_every)

        def sample(index: int) -> None:
            # Every series shares the one grid, so the store reads happen
            # only here, at a grid edge or at end-of-run.
            if fleet_series is not None:
                fleet_series.sample(index)
            used = capacity = 0.0
            resident = 0
            for site_series, site_occupancy, store in zip(series, occupancy, stores):
                site_series.sample(index)
                if site_occupancy is not None:
                    site_occupancy.sample(index, store.used, store.capacity, len(store))
                    used += store.used
                    capacity += store.capacity
                    resident += len(store)
            if fleet_occupancy is not None:
                fleet_occupancy.sample(index, used, capacity, resident)

        for policy in policies:
            policy.prepare(trace)

        # The batched executor replays every site between its decision points
        # and calls no per-event hook, so an observed run keeps the per-event
        # step, as does a run with a site or router the executor cannot replay.
        batched = None
        if self._on_decision is None:
            from repro.sim.batched import select_batched_executor

            batched = select_batched_executor(policies, trace, self._repository, links, self._route)
        events = trace.iter_tagged() if batched is None else None
        step = self.step

        # Hot loop: the trace is replayed once per policy per experiment, so
        # the per-event work is kept to the step itself -- type-tagged
        # dispatch instead of isinstance checks, and chunks cut at the edges
        # that need attention instead of index comparisons on every event.
        warmup = [0.0] * len(links)
        position = 0
        next_sample = sample_every
        while position < total_events:
            if position == measure_from:
                warmup = [link.total_cost for link in links]
            edge = min(next_sample, total_events)
            if position < measure_from < edge:
                edge = measure_from
            if batched is not None:
                edge = min(edge, batched.next_edge())
                counts = batched.process(position, edge)
                for site, (site_answered, site_shipped) in enumerate(counts):
                    answered[site] += site_answered
                    shipped[site] += site_shipped
                self._events += edge - position
            else:
                for is_update, payload in islice(events, edge - position):
                    step(is_update, payload)
            position = edge
            # The end-of-run boundary is sampled once in the epilogue below
            # (after finalize) -- sampling it here too used to record a
            # duplicate final TrafficSample whenever the trace length was a
            # multiple of sample_every.
            if position == next_sample and position < total_events:
                next_sample += sample_every
                sample(position)
                if progress is not None:
                    progress(position, total_events)

        for policy in policies:
            policy.finalize()
        # Occupancy mirrors the traffic series: every run ends with a sample
        # at total_events, so traces shorter than sample_every no longer
        # produce an empty occupancy series.
        sample(total_events)
        if measure_from <= 0:
            # The window is the whole run: there is no warm-up to report.
            warmup = [0.0] * len(links)
        elif measure_from >= total_events:
            warmup = [link.total_cost for link in links]
        if progress is not None:
            progress(total_events, total_events)

        updates_seen = self._events - sum(answered) - sum(shipped)
        site_runs: List[RunResult] = []
        for site, policy in enumerate(policies):
            site_runs.append(
                RunResult(
                    policy_name=policy.name,
                    total_traffic=links[site].total_cost,
                    traffic_by_mechanism=links[site].total_by_mechanism(),
                    time_series=series[site],
                    queries_answered_at_cache=answered[site],
                    queries_shipped=shipped[site],
                    events_processed=updates_seen + answered[site] + shipped[site],
                    policy_stats=policy.stats() if hasattr(policy, "stats") else {},
                    warmup_traffic=warmup[site],
                    occupancy=occupancy[site],
                )
            )
        if fleet_link is None:
            return site_runs, None
        aggregate = RunResult(
            policy_name=name,
            total_traffic=fleet_link.total_cost,
            traffic_by_mechanism=fleet_link.total_by_mechanism(),
            time_series=fleet_series,
            queries_answered_at_cache=sum(answered),
            queries_shipped=sum(shipped),
            events_processed=self._events,
            policy_stats=_fold_site_stats(site_runs),
            warmup_traffic=sum(warmup),
            occupancy=fleet_occupancy,
        )
        return site_runs, aggregate


def _fold_site_stats(site_runs: Sequence[RunResult]) -> Dict[str, float]:
    """Per-site headline figures as flat floats (survive sweep artifacts)."""
    stats: Dict[str, float] = {"site_count": float(len(site_runs))}
    for site, run in enumerate(site_runs):
        stats[f"site{site}_total_traffic"] = run.total_traffic
        stats[f"site{site}_measured_traffic"] = run.measured_traffic
        stats[f"site{site}_queries_answered_at_cache"] = float(
            run.queries_answered_at_cache
        )
        stats[f"site{site}_queries_shipped"] = float(run.queries_shipped)
        for mechanism, value in run.traffic_by_mechanism.items():
            stats[f"site{site}_traffic_{mechanism}"] = value
    return stats
