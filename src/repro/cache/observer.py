"""The observation half of the observe/decide policy contract.

A cache policy does two separable things on every event: it *observes* the
workload (queries seen, updates seen, cache answers, shipped queries) and it
*decides* (ship, load, evict).  Historically both lived tangled inside
:class:`repro.core.policy.BaseCachePolicy` as bare counters; this module
factors the observation half into an explicit :class:`PolicyObserver` so that

* concrete policies keep only decision logic (they report events through the
  base class, which forwards here),
* the batched replay path books a whole window of events at once
  (:meth:`PolicyObserver.note_batch`) without touching any decision code.

The observer is strictly passive: it never charges the link and never
influences a decision, so threading it through
:class:`~repro.core.policy.BaseCachePolicy` leaves every policy's behaviour
byte-identical (the determinism fixtures pin this).
"""

from __future__ import annotations

from repro.repository.queries import Query
from repro.repository.updates import Update

__all__ = ["PolicyObserver"]


class PolicyObserver:
    """Passive per-policy workload statistics (running totals)."""

    __slots__ = (
        "_queries_seen",
        "_updates_seen",
        "_cache_answers",
        "_shipped_queries",
    )

    def __init__(self) -> None:
        self._queries_seen = 0
        self._updates_seen = 0
        self._cache_answers = 0
        self._shipped_queries = 0

    # ------------------------------------------------------------------
    # Observation hooks (called by BaseCachePolicy)
    # ------------------------------------------------------------------
    def note_query(self, query: Query) -> None:
        """Record one query arrival."""
        self._queries_seen += 1

    def note_update(self, update: Update) -> None:
        """Record one update arrival."""
        self._updates_seen += 1

    def note_cache_answer(self, query: Query) -> None:
        """Record a query answered from the cache."""
        self._cache_answers += 1

    def note_shipped_query(self, query: Query) -> None:
        """Record a query shipped to the server."""
        self._shipped_queries += 1

    def note_batch(
        self,
        queries: int = 0,
        updates: int = 0,
        cache_answers: int = 0,
        shipped_queries: int = 0,
    ) -> None:
        """Record a whole event batch at once (the batched replay path).

        All counters are plain integers, so batch increments are exactly
        equivalent to the per-event hooks above.
        """
        self._queries_seen += queries
        self._updates_seen += updates
        self._cache_answers += cache_answers
        self._shipped_queries += shipped_queries

    # ------------------------------------------------------------------
    # Reading the totals
    # ------------------------------------------------------------------
    @property
    def queries_seen(self) -> int:
        """Total queries observed over the whole run."""
        return self._queries_seen

    @property
    def updates_seen(self) -> int:
        """Total updates observed over the whole run."""
        return self._updates_seen

    @property
    def cache_answers(self) -> int:
        """Total queries answered at the cache over the whole run."""
        return self._cache_answers

    @property
    def shipped_queries(self) -> int:
        """Total queries shipped to the server over the whole run."""
        return self._shipped_queries
