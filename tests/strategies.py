"""Shared hypothesis strategies for the property-based test suites.

One home for the random-structure generators that several test modules
drive: the flow-layer instances (``tests/test_flow_properties.py``), the
raw event streams of the cross-module properties
(``tests/test_properties.py``), and the scenario compositions
(``tests/test_fuzz.py``, the loss search ``tests/find_loss.py``, and the
model-invariant property in ``tests/test_workload_scenarios.py``).  Keeping
them here means a widened generator immediately widens every suite that
uses it.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.flow.graph import FlowNetwork
from repro.flow.vertex_cover import BipartiteCoverInstance
from repro.repository.queries import Query
from repro.repository.updates import Update
from repro.workload.fuzz import CompositionSpec, SegmentSpec
from repro.workload.scenarios import MODEL_NAMES, STREAM_CLASSES, model_knobs
from repro.workload.trace import QueryEvent, Trace, UpdateEvent

# ----------------------------------------------------------------------
# Flow layer
# ----------------------------------------------------------------------
#: Weights on a 0.25 quantum: exactly representable, so optimal covers are
#: separated by at least 0.25 and never decided by float noise.
weight = st.integers(min_value=1, max_value=64).map(lambda n: n / 4.0)


@st.composite
def cover_instances(draw):
    """A small random weighted bipartite cover instance."""
    left_count = draw(st.integers(min_value=1, max_value=5))
    right_count = draw(st.integers(min_value=1, max_value=5))
    left_weights = {f"q{i}": draw(weight) for i in range(left_count)}
    right_weights = {f"u{j}": draw(weight) for j in range(right_count)}
    all_edges = [(left, right) for left in left_weights for right in right_weights]
    chosen = draw(
        st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges))
    )
    return BipartiteCoverInstance.from_iterables(left_weights, right_weights, chosen)


@st.composite
def flow_networks(draw):
    """A small random capacitated digraph with designated source and sink."""
    vertex_count = draw(st.integers(min_value=2, max_value=7))
    pairs = [
        (tail, head)
        for tail in range(vertex_count)
        for head in range(vertex_count)
        if tail != head
    ]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=14)
    )
    network = FlowNetwork()
    for vertex in range(vertex_count):
        network.add_vertex(vertex)
    for tail, head in edges:
        network.add_edge(tail, head, draw(weight))
    return network, 0, vertex_count - 1


def _graph_ops(kinds):
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            weight,
            st.lists(st.integers(min_value=0, max_value=30), max_size=4),
            st.lists(st.integers(min_value=0, max_value=5), max_size=3),
        ),
        min_size=1,
        max_size=40,
    )


#: One random operation sequence for the interaction-graph driver
#: (``tests/test_flow_properties.py::_apply`` gives the tuples their meaning):
#: ``(kind, cost, picks, cuts)``.  An update lands on one of three objects; a
#: query with ``cuts`` asks each of its first ``len(cuts)`` objects for a
#: time-prefix of the outstanding list, ``cuts[i]`` short of all of it -- what a
#: staleness tolerance does -- so bundles are reused, chained and minted
#: between two chain members; a query without ``cuts`` asks for the arbitrary,
#: possibly repeating subset ``picks`` names, which no chain can stand for.
#: Costs sit on the 0.25 quantum, so two managers that find different
#: augmenting paths still hold exactly equal flows' worth of capacity.
graph_ops = _graph_ops(["query", "query", "update", "update", "drop"])
#: The same without drops: nothing is ever retired outside a closed set.
graph_ops_without_drops = _graph_ops(["query", "update"])


# ----------------------------------------------------------------------
# Raw event streams (cross-module properties)
# ----------------------------------------------------------------------
def event_stream(max_objects: int = 4, max_events: int = 40):
    """A random interleaved stream of (kind, object ids, cost) tuples."""
    event = st.tuples(
        st.sampled_from(["query", "update"]),
        st.lists(st.integers(min_value=1, max_value=max_objects), min_size=1, max_size=3),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.sampled_from([0.0, 0.0, 5.0]),  # tolerance (mostly strict)
    )
    return st.lists(event, min_size=1, max_size=max_events)


def build_trace(raw_events):
    """Convert a raw :func:`event_stream` output into a Trace."""
    events = []
    for index, (kind, object_ids, cost, tolerance) in enumerate(raw_events):
        timestamp = float(index + 1)
        if kind == "query":
            events.append(
                QueryEvent(
                    Query(
                        query_id=index,
                        object_ids=frozenset(object_ids),
                        cost=cost,
                        timestamp=timestamp,
                        tolerance=tolerance,
                    )
                )
            )
        else:
            events.append(
                UpdateEvent(
                    Update(
                        update_id=index,
                        object_id=object_ids[0],
                        cost=cost,
                        timestamp=timestamp,
                    )
                )
            )
    return Trace(events)


# ----------------------------------------------------------------------
# Scenario compositions
# ----------------------------------------------------------------------
#: A bounded float strategy (no NaN/inf): every knob range below uses it.
def _unit(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


def knob_strategies(model: str):
    """Knob name -> strategy over the fuzz range the model's knob table declares."""
    return {
        row.name: (
            st.integers(min_value=row.fuzz[0], max_value=row.fuzz[1])
            if row.is_int
            else _unit(*row.fuzz)
        )
        for row in model_knobs(STREAM_CLASSES[model])
        if row.fuzz is not None
    }


@st.composite
def segment_specs(draw, max_events: int = 120):
    """One valid composition segment with a random subset of knob overrides."""
    model = draw(st.sampled_from(MODEL_NAMES))
    knob_pool = knob_strategies(model)
    chosen = draw(
        st.lists(st.sampled_from(sorted(knob_pool)), unique=True, max_size=len(knob_pool))
    )
    knobs = tuple((name, draw(knob_pool[name])) for name in chosen)
    return SegmentSpec(
        model=model,
        query_count=draw(st.integers(min_value=5, max_value=max_events)),
        update_count=draw(st.integers(min_value=5, max_value=max_events)),
        knobs=knobs,
    )


@st.composite
def composition_specs(
    draw, max_segments: int = 3, max_events: int = 120, max_objects: int = 64
):
    """A valid multi-segment composition, small enough to replay in-test.

    ``max_events`` bounds each side (queries, updates) of each segment.
    """
    segments = draw(
        st.lists(
            segment_specs(max_events=max_events),
            min_size=1,
            max_size=max_segments,
        )
    )
    return CompositionSpec(
        segments=tuple(segments),
        object_count=draw(st.integers(min_value=16, max_value=max_objects)),
        cache_fraction=draw(_unit(0.1, 0.5)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        name="hypothesis-composition",
    )
