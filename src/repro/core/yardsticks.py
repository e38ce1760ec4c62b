"""The three yardstick policies of the evaluation (Section 6.1).

* **NoCache** -- no cache at all: every query is shipped to the server.  Any
  algorithm performing worse than NoCache is useless.
* **Replica** -- a cache as large as the server holding every object; all
  updates are shipped to it the moment they arrive.  Load costs and the cache
  size limit are ignored (as in the paper).  Beating Replica while respecting
  a real cache size is the bar for "good".
* **SOptimal** -- the best *static* set of objects chosen with hindsight over
  the full sequence (one Benefit decision with a window as large as the
  whole trace, folded as a batched Benefit window is,
  :func:`~repro.core.policy.fold_credit`): the chosen
  objects are loaded once at the start, never evicted, kept current by
  shipping their updates; queries fully covered are answered at the cache,
  the rest are shipped.  An online algorithm close to SOptimal is outstanding.

All three are eager: they inherit the base class's ship-on-arrival
:meth:`~repro.core.policy.BaseCachePolicy.on_update` (NoCache never holds a
copy, so it only observes).
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.core.decoupling import DecouplingDecision, QueryOutcome
from repro.core.policy import BaseCachePolicy, fold_credit
from repro.network.link import NetworkLink
from repro.repository.queries import Query
from repro.repository.server import Repository
from repro.workload.columns import TraceColumns
from repro.workload.trace import Trace, TraceStream, TraceView

#: Events per chunk SOptimal compiles of a stream it does not hold whole.
PREPARE_CHUNK_EVENTS = 8192


class NoCachePolicy(BaseCachePolicy):
    """Ship every query to the server; never cache anything."""

    name = "nocache"

    def __init__(self, repository: Repository, capacity: float, link: NetworkLink) -> None:
        # The capacity argument is accepted for interface uniformity but the
        # policy never loads anything.
        super().__init__(repository, 0.0, link)

    def on_query(self, query: Query) -> QueryOutcome:
        """Ship the query and charge its cost."""
        self.note_query(query)
        cost = self.ship_query(query)
        return QueryOutcome(query.query_id, False, cost)


class ReplicaPolicy(BaseCachePolicy):
    """A full replica of the repository kept current by shipping every update.

    The paper ignores the replica's load costs and cache-size limitation, so
    the policy pre-populates its (unbounded) store without charging and then
    simply pays for every update.
    """

    name = "replica"

    def __init__(self, repository: Repository, capacity: float, link: NetworkLink) -> None:
        super().__init__(repository, float("inf"), link)
        for obj in repository.catalog:
            self.load_object(obj.object_id, timestamp=0.0, charge=False)

    def on_query(self, query: Query) -> QueryOutcome:
        """Answer at the replica: it is always complete and current."""
        self.note_query(query)
        self.record_cache_answer(query)
        return QueryOutcome(query.query_id, True)


class SOptimalPolicy(BaseCachePolicy):
    """Best static cache contents chosen in hindsight (offline).

    :meth:`prepare` must be called with the full trace before the run; it
    ranks objects by their whole-trace benefit (query-share saved minus update
    traffic minus load cost, exactly one Benefit window spanning everything)
    and greedily fills the cache.  During the run the chosen objects are kept
    current by shipping their updates; queries fully covered by the static set
    are free, the rest are shipped.
    """

    name = "soptimal"

    def __init__(self, repository: Repository, capacity: float, link: NetworkLink) -> None:
        super().__init__(repository, capacity, link)
        self._decision: Optional[DecouplingDecision] = None

    @property
    def decision(self) -> Optional[DecouplingDecision]:
        """The static decoupling chosen by :meth:`prepare` (None before)."""
        return self._decision

    def prepare(self, trace: TraceStream) -> None:
        """Choose the static cached set with full knowledge of the trace.

        One pass over the trace's columns (any other stream's compiled chunk by
        chunk), at their catalogue positions: each object's shares and update
        costs add up in event order.
        """
        import numpy as np

        catalog = self._repository.catalog
        weights = self.share_weights()
        sums = np.zeros((2, len(weights)))
        if isinstance(trace, (Trace, TraceView)):
            chunks: Iterable[TraceColumns] = [trace.columns()]
        else:
            chunks = map(TraceColumns.from_tagged, trace.iter_chunks(PREPARE_CHUNK_EVENTS))
        for columns in chunks:
            update_positions, positions = columns.positions(catalog)
            fold_credit(
                sums, weights, update_positions, columns.update_costs, positions,
                columns.query_costs, columns.per_query(self.share_total),
                np.diff(columns.query_object_offsets),
            )  # fmt: skip
        net = (sums[0, :-1] - sums[1, :-1]).tolist()  # the last slot is unknown ids'
        benefits = {
            oid: share - catalog.size_of(oid)
            for oid, share in zip(catalog.object_ids, net, strict=True)
        }
        ranked = sorted(
            ((oid, benefit) for oid, benefit in benefits.items() if benefit > 0),
            key=lambda item: item[1],
            reverse=True,
        )
        chosen: Set[int] = set()
        used = 0.0
        estimated = 0.0
        for object_id, benefit in ranked:
            size = catalog.size_of(object_id)
            if used + size <= self.store.capacity + 1e-9:
                chosen.add(object_id)
                used += size
                estimated += benefit
        self._decision = DecouplingDecision(
            cached_objects=frozenset(chosen), estimated_cost=estimated
        )
        # Load the static set up front, paying the load costs.
        for object_id in sorted(chosen):
            self.load_object(object_id, timestamp=0.0)

    def on_query(self, query: Query) -> QueryOutcome:
        """Answer from the static set when it covers the query, else ship."""
        self.note_query(query)
        if self.cache_satisfies(query):
            self.record_cache_answer(query)
            return QueryOutcome(query.query_id, True)
        cost = self.ship_query(query)
        return QueryOutcome(query.query_id, False, cost)
