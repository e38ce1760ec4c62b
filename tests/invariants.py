"""The structural trace invariants every composed scenario must hold.

:func:`check_stream_invariants` is the programmatic form of the assertions
``tests/test_workload_scenarios.py`` applies to each hand-built model; the
composition properties in ``tests/test_fuzz.py`` and the per-model property
in ``tests/test_workload_scenarios.py`` run it over hypothesis-built
compositions and segments.
"""

from __future__ import annotations

import math

from repro.repository.objects import ObjectCatalog
from repro.workload.trace import TraceStream, UpdateEvent


class StreamInvariantError(AssertionError):
    """A composed stream violated one of the structural trace invariants."""


def check_stream_invariants(
    stream: TraceStream, catalog: ObjectCatalog
) -> None:
    """Assert the structural trace invariants every composition must hold.

    This is the programmatic form of the assertions the scenario-model test
    suite applies to each hand-built model, applied to arbitrary (fuzzed)
    compositions:

    * the stream is *sized*: iterating yields exactly ``len(stream)`` events;
    * timestamps are the consecutive integers ``1..len(stream)``;
    * query and update ids are unique within their kind;
    * every cost is positive and finite; every tolerance is non-negative;
    * every object id referenced exists in ``catalog``;
    * the stream is *restartable*: a second pass yields identical events.

    Raises :class:`StreamInvariantError` describing the first violation.
    """
    known_ids = set(catalog.object_ids)
    query_ids = set()
    update_ids = set()
    count = 0
    for event in stream.iter_events():
        count += 1
        if event.timestamp != float(count):
            raise StreamInvariantError(
                f"event {count} has timestamp {event.timestamp!r}; "
                f"expected consecutive {float(count)!r}"
            )
        if isinstance(event, UpdateEvent):
            update = event.update
            if update.update_id in update_ids:
                raise StreamInvariantError(
                    f"duplicate update id {update.update_id}"
                )
            update_ids.add(update.update_id)
            touched = [update.object_id]
            cost = update.cost
        else:
            query = event.query
            if query.query_id in query_ids:
                raise StreamInvariantError(
                    f"duplicate query id {query.query_id}"
                )
            query_ids.add(query.query_id)
            if not query.object_ids:
                raise StreamInvariantError(
                    f"query {query.query_id} has an empty footprint"
                )
            if query.tolerance < 0:
                raise StreamInvariantError(
                    f"query {query.query_id} has negative tolerance "
                    f"{query.tolerance!r}"
                )
            touched = list(query.object_ids)
            cost = query.cost
        if not (cost > 0 and math.isfinite(cost)):
            raise StreamInvariantError(
                f"event at timestamp {event.timestamp} has non-positive or "
                f"non-finite cost {cost!r}"
            )
        unknown = [oid for oid in touched if oid not in known_ids]
        if unknown:
            raise StreamInvariantError(
                f"event at timestamp {event.timestamp} references object "
                f"id(s) {unknown} missing from the catalogue"
            )
    if count != len(stream):
        raise StreamInvariantError(
            f"stream advertises {len(stream)} events but yielded {count}"
        )
    first = [
        (event.kind, event.timestamp) for event in stream.iter_events()
    ]
    second = [
        (event.kind, event.timestamp) for event in stream.iter_events()
    ]
    if first != second:
        raise StreamInvariantError(
            "stream is not restartable: two passes disagreed"
        )
