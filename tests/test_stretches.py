"""The batched replay computes each site's decision stretch once, whatever the grid.

A site's *stretch* runs from one of its decision points (run start, or its
own Benefit window edge) to its next one or to end-of-run.  The executor
replays a site's stretch once when the kernel's first chunk enters it;
every later grid chunk only advances the link totals and counters.  The
repository ingests only where some site's stretch ends: once per window edge
of any site, and at end-of-run.  At ``sample_every=1`` the kernel cuts a
chunk at every event, so these tests count the replays per site
(``_BatchedExecutor._replay``) and the ``Repository.ingest_update_columns``
calls, and check the same runs' traffic series, occupancy series and warm-up
total against the per-event path bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.yardsticks import ReplicaPolicy
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.batched import _BatchedExecutor
from tests.test_batched import (
    STATIC_POLICIES,
    benefit_at,
    mixed_trace,
    nocache,
    run_fleet,
    run_once,
    shifting_trace,
    soptimal_at,
    window_edges,
)

numpy = pytest.importorskip("numpy")


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 21)})


@pytest.fixture
def ingest_calls(monkeypatch):
    """Every ``ingest_update_columns`` call of the test, as its batch length."""
    calls = []
    ingest = Repository.ingest_update_columns

    def counting(self, object_ids, rows, costs):
        calls.append(len(object_ids))
        return ingest(self, object_ids, rows, costs)

    monkeypatch.setattr(Repository, "ingest_update_columns", counting)
    return calls


@pytest.fixture
def replays(monkeypatch):
    """Every ``_BatchedExecutor._replay`` call of the test, as (site, start, stop)."""
    calls = []
    replay = _BatchedExecutor._replay

    def counting(self, site, start, stop):
        calls.append((self._sites.index(site), start, stop))
        return replay(self, site, start, stop)

    monkeypatch.setattr(_BatchedExecutor, "_replay", counting)
    return calls


def stretches(edges, events):
    """The (start, stop) stretches of a site whose windows close at ``edges``."""
    stops = edges if edges and edges[-1] == events else [*edges, events]
    return list(zip([0, *stops], stops, strict=False))


def observed(result):
    """What the grid records of a run: traffic, occupancy and warm-up, as reprs."""
    return (
        [(sample.event_index, repr(sample.total), sorted(
            (mechanism, repr(value)) for mechanism, value in sample.by_mechanism.items()
        )) for sample in result.time_series.samples],
        result.occupancy.event_indices,
        [repr(value) for value in result.occupancy.occupancy],
        result.occupancy.resident_objects,
        repr(result.warmup_traffic),
    )  # fmt: skip


@pytest.mark.parametrize("make_policy", STATIC_POLICIES)
def test_static_decoupling_is_one_stretch(catalog, ingest_calls, make_policy):
    trace = mixed_trace(120)
    batched, _, _ = run_once(catalog, trace, make_policy, sample_every=1, measure_from=41)
    assert ingest_calls == [trace.update_count]
    scalar, _, _ = run_once(
        catalog, trace, make_policy, scalar=True, sample_every=1, measure_from=41
    )
    assert observed(batched) == observed(scalar)


@pytest.mark.parametrize("window", (6, 8))
def test_benefit_ingests_once_per_window(catalog, ingest_calls, replays, window):
    # An update every fourth event: each window of 6 or 8 events holds one.
    trace = mixed_trace(120)
    batched, _, policy = run_once(
        catalog, trace, benefit_at(0.3, window), sample_every=1, measure_from=41
    )
    windows = -(-len(trace) // window)
    assert [(start, stop) for _, start, stop in replays] == stretches(
        list(range(window, len(trace) + 1, window)), len(trace)
    )
    assert len(replays) == len(ingest_calls) == windows
    assert sum(ingest_calls) == trace.update_count
    assert policy.window_index == len(trace) // window
    scalar, _, _ = run_once(
        catalog, trace, benefit_at(0.3, window), scalar=True, sample_every=1, measure_from=41
    )
    assert observed(batched) == observed(scalar)


def test_fleet_ingests_at_most_once_per_stretch_boundary(catalog, ingest_calls, replays):
    trace = shifting_trace(240)
    windows = (5, 7)
    factories = [benefit_at(0.3, window) for window in windows]
    batched = run_fleet(catalog, trace, factories, sample_every=1, measure_from=73)

    # Each site replays once per window of its own (every broadcast update
    # plus the queries routed to it), the trailing partial window included;
    # the repository ingests at most once per window edge of any site.
    edges = window_edges(catalog, trace, windows)
    for site, site_edges in enumerate(edges):
        mine = [(start, stop) for replayed, start, stop in replays if replayed == site]
        assert mine == stretches(site_edges, len(trace))
    union = {edge for site_edges in edges for edge in site_edges} | {len(trace)}
    assert 1 < len(ingest_calls) <= len(union)
    assert sum(ingest_calls) == trace.update_count

    scalar = run_fleet(
        catalog, trace, factories, scalar=True, sample_every=1, measure_from=73
    )
    assert [observed(run) for run in batched[0]] == [observed(run) for run in scalar[0]]
    assert observed(batched[1]) == observed(scalar[1])


def test_rows_map_the_trace_once_and_no_stretch_sorts(catalog, ingest_calls, monkeypatch):
    """Every eager row and a Benefit fleet over one trace: one id-to-position
    mapping of the whole trace, and no ``unique`` / ``sort`` / ``argsort``
    while a stretch replays."""
    trace = shifting_trace(240)
    columns = trace.columns()
    mapped = []
    positions = ObjectCatalog.positions

    def mapping(self, object_ids):
        mapped.append(object_ids)
        return positions(self, object_ids)

    monkeypatch.setattr(ObjectCatalog, "positions", mapping)
    replaying, sorts = [False], []
    for name in ("unique", "sort", "argsort"):

        def counting(*args, _name=name, _function=getattr(numpy, name), **kwargs):
            if replaying[0]:
                sorts.append(_name)
            return _function(*args, **kwargs)

        monkeypatch.setattr(numpy, name, counting)
    process = _BatchedExecutor.process

    def replay(self, start, stop):
        replaying[0] = True
        try:
            return process(self, start, stop)
        finally:
            replaying[0] = False

    monkeypatch.setattr(_BatchedExecutor, "process", replay)
    rows = {
        "nocache": (nocache, 1),
        "replica": (lambda repository, link: ReplicaPolicy(repository, 0.0, link), 1),
        "benefit": (benefit_at(0.3, 6), len(trace) // 6),
        "soptimal": (soptimal_at(0.3), 1),
    }
    for make_policy, stretches in rows.values():
        ingest_calls.clear()
        run_once(catalog, trace, make_policy, sample_every=7, measure_from=41)
        assert len(ingest_calls) == stretches
    run_fleet(catalog, trace, (benefit_at(0.3, 6),) * 2, sample_every=7)

    assert sum(object_ids is columns.query_object_ids for object_ids in mapped) == 1
    assert sum(object_ids is columns.update_object_ids for object_ids in mapped) == 1
    assert sorts == []
