"""Tests for the columnar trace compilation and the batched replay executor.

Three layers:

* :class:`repro.workload.columns.TraceColumns` -- the compiled layout and
  its zero-copy windows,
* byte-equivalence -- the batched executor must produce payloads, server
  counters and store records identical to the scalar loop's for every static
  decoupling and any resident set, for Benefit across its window edges, and
  for routed fleets of those sites (the load-bearing guarantee behind the
  determinism fixtures),
* eligibility -- every gating condition in ``select_batched_executor`` must
  actually fall back to the scalar loop.
"""

from __future__ import annotations

import json

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.benefit import BenefitConfig, BenefitPolicy
from repro.core.vcover import VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.cost import AffineCostModel, LinearCostModel, TrafficCostModel
from repro.network.link import Mechanism, NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.batched import select_batched_executor
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.sim.multicache import TopologySpec, run_topology
from repro.sim.runner import benefit_spec, build_site, policy_spec
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.workload.columns import TraceColumns
from repro.workload.partition import TracePartitioner
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import (
    EQUAL_FOOTPRINT_SIZES,
    equal_footprints_trace,
    make_query,
    make_update,
)
from tests.strategies import build_trace, event_stream

numpy = pytest.importorskip("numpy")


@pytest.fixture
def catalog():
    return ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 21)})


def mixed_trace(events: int = 200) -> Trace:
    """Deterministic trace with multi-object queries and repeated updates."""
    items = []
    for index in range(events):
        timestamp = float(index + 1)
        if index % 4 == 3:
            items.append(
                UpdateEvent(
                    make_update(
                        index, object_id=1 + index % 20, cost=1.5, timestamp=timestamp
                    )
                )
            )
        else:
            ids = [1 + index % 20, 1 + (index * 7) % 20]
            items.append(
                QueryEvent(
                    make_query(index, object_ids=ids, cost=2.5, timestamp=timestamp)
                )
            )
    return Trace(items)


def shifting_trace(events: int = 200, phase: int = 40) -> Trace:
    """A hot spot that moves every ``phase`` events, with updates everywhere.

    Benefit loads the hot objects, pays their updates and evicts them once
    the spot moves on, so its windows re-plan the cache for real.
    """
    items = []
    for index in range(events):
        timestamp = float(index + 1)
        hot = 1 + (index // phase) * 4 % 17
        if index % 4 == 3:
            update = make_update(index, object_id=1 + index * 3 % 20, cost=2.0, timestamp=timestamp)
            items.append(UpdateEvent(update))
        else:
            ids = [hot + index % 3, hot + (index * 7) % 4] if index % 5 else [1 + index * 11 % 20]
            query = make_query(index, object_ids=ids, cost=15.0, timestamp=timestamp)
            items.append(QueryEvent(query))
    return Trace(items)


class TestTraceColumns:
    def test_layout_matches_trace(self):
        trace = mixed_trace(40)
        columns = trace.columns()
        assert len(columns) == 40
        assert columns.update_count == trace.update_count
        assert columns.query_count == trace.query_count
        # prefix[i] counts updates among events [0, i).
        assert int(columns.update_prefix[0]) == 0
        assert int(columns.update_prefix[-1]) == trace.update_count
        running = 0
        for index, (is_update, payload) in enumerate(trace.iter_tagged()):
            assert int(columns.update_prefix[index]) == running
            assert columns.timestamps[index] == payload.timestamp
            assert columns.costs[index] == payload.cost
            assert bool(columns.is_update[index]) == is_update
            if is_update:
                running += 1

    def test_query_csr_is_sorted_per_query(self):
        trace = mixed_trace(40)
        columns = trace.columns()
        offsets = columns.query_object_offsets
        for position, query in enumerate(trace.queries()):
            flat = columns.query_object_ids[
                int(offsets[position]) : int(offsets[position + 1])
            ]
            assert flat.tolist() == sorted(query.object_ids)

    def test_columns_cached_on_trace(self):
        trace = mixed_trace(10)
        assert trace.columns() is trace.columns()

    def test_columns_windowed_once_per_view(self):
        import pickle

        view = mixed_trace(40).slice_events(5, 30)
        assert view.columns() is view.columns()
        assert len(pickle.loads(pickle.dumps(view)).columns()) == 25

    def test_positions_memoised_per_catalogue_and_sliced_by_windows(self, catalog):
        columns = mixed_trace(60).columns()
        updates, touches = columns.positions(catalog)
        assert columns.positions(catalog)[1] is touches
        ids = numpy.array(catalog.object_ids)
        assert ids[touches].tolist() == columns.query_object_ids.tolist()
        assert ids[updates].tolist() == columns.update_object_ids.tolist()
        window = columns.window(13, 47)
        assert numpy.shares_memory(window.positions(catalog)[1], touches)
        assert window.positions(catalog)[0].tolist() == catalog.positions(
            window.update_object_ids
        ).tolist()
        other = ObjectCatalog.from_sizes({oid: 1.0 for oid in range(1, 11)})
        assert columns.positions(other)[1].max() == len(other)  # ids above 10: unknown

    def test_window_matches_sliced_trace(self):
        trace = mixed_trace(60)
        window = trace.columns().window(13, 47)
        sliced = Trace(list(trace.iter_events())[13:47]).columns()
        for name in set(TraceColumns.__slots__) - {"footprints", "query_footprints"}:
            numpy.testing.assert_array_equal(
                getattr(window, name), getattr(sliced, name), err_msg=name
            )
        # A window keeps its parent's footprint table: compare the objects
        # each query holds, not their indices.
        assert window.footprints is trace.columns().footprints
        held = [window.footprints[index] for index in window.query_footprints.tolist()]
        expected = [sliced.footprints[index] for index in sliced.query_footprints.tolist()]
        assert len(held) == len(expected) == window.query_count
        assert all(ours is theirs for ours, theirs in zip(held, expected, strict=True))

    def test_footprint_table_holds_each_object_once_and_totals_are_exact(self):
        trace = equal_footprints_trace()
        queries = trace.queries()
        columns = trace.columns()
        # Each distinct object once, in first-seen order (equal values twice).
        assert [id(footprint) for footprint in columns.footprints] == list(
            dict.fromkeys(id(query.object_ids) for query in queries)
        )
        assert len(columns.footprints) == 2
        for query, index in zip(queries, columns.query_footprints.tolist(), strict=True):
            assert columns.footprints[index] is query.object_ids
        # The batched Benefit totals: one share_total per query, bit for bit.
        catalog = ObjectCatalog.from_sizes(EQUAL_FOOTPRINT_SIZES)
        repository = Repository(catalog)
        link = NetworkLink()
        policy = BenefitPolicy(repository, 2.0, link, BenefitConfig(window_size=2))
        executor = select_batched_executor([policy], trace, repository, [link])
        executor._shares(*executor._sites)  # a Benefit site's first close builds them
        assert [repr(total) for total in executor._totals.tolist()] == [
            repr(policy.share_total(query.object_ids)) for query in queries
        ]
        for fraction in (0.0, 1.0):
            assert_same_replay(
                run_once(catalog, trace, benefit_at(fraction, 2), sample_every=2),
                run_once(catalog, trace, benefit_at(fraction, 2), scalar=True, sample_every=2),
            )

    def test_window_of_view(self):
        trace = mixed_trace(60)
        view = trace.slice_events(10, 50)
        columns = view.columns()
        assert len(columns) == 40
        assert columns.update_count == view.update_count

    def test_window_bounds_checked(self):
        columns = mixed_trace(10).columns()
        with pytest.raises(ValueError):
            columns.window(5, 12)
        with pytest.raises(ValueError):
            columns.window(-1, 5)

    def test_pickled_trace_recompiles(self):
        import pickle

        trace = mixed_trace(10)
        trace.columns()
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone.columns()) == 10


def soptimal_at(fraction):
    """SOptimal at ``fraction`` of the catalogue (the kernel prepares it)."""

    def build(repository, link):
        return SOptimalPolicy(repository, repository.catalog.total_size * fraction, link)

    return build


#: Every static decoupling the batched path replays; SOptimal with an empty,
#: a partial and a whole-catalogue capacity.
STATIC_POLICIES = (
    pytest.param(lambda repository, link: NoCachePolicy(repository, 0.0, link),
                 id="NoCachePolicy"),
    pytest.param(lambda repository, link: ReplicaPolicy(repository, float("inf"), link),
                 id="ReplicaPolicy"),
    pytest.param(soptimal_at(0.0), id="SOptimalPolicy-empty"),
    pytest.param(soptimal_at(0.3), id="SOptimalPolicy-partial"),
    pytest.param(soptimal_at(1.0), id="SOptimalPolicy-whole"),
)


def run_once(catalog, trace, make_policy, *, scalar=False, measure_from=0,
             sample_every=25):
    """One single-site replay; ``scalar`` forces the per-event step.

    An ``on_decision`` observer is what keeps the kernel off the batched path.
    """
    repository = Repository(catalog)
    link = NetworkLink()
    policy = make_policy(repository, link)
    engine = ReplayKernel(
        repository, [policy], [link],
        EngineConfig(sample_every=sample_every, measure_from=measure_from),
        on_decision=(lambda payload, outcome: None) if scalar else None,
    )
    (result,), _ = engine.run(trace)
    if not scalar:
        assert select_batched_executor([policy], trace, repository, [link]) is not None
    return result, repository, policy


def canonical(result) -> str:
    return json.dumps(result.as_payload(), sort_keys=True, separators=(",", ":"))


def store_state(policy):
    return {
        record.object_id: (record.version, record.stale, record.hits, record.last_hit_at)
        for record in policy.store.records()
    }


def benefit_at(fraction, window):
    """Benefit at ``fraction`` of the catalogue with ``window_size`` ``window``."""

    def build(repository, link):
        capacity = repository.catalog.total_size * fraction
        return BenefitPolicy(repository, capacity, link, BenefitConfig(window_size=window))

    return build


def nocache(repository, link):
    return NoCachePolicy(repository, 0.0, link)


def policy_state(policy):
    """Everything a site's policy reports after a run, window progress included."""
    return (
        store_state(policy), policy.stats(), getattr(policy, "window_index", None),
        policy.observer.cache_answers, policy.observer.shipped_queries,
    )  # fmt: skip


def assert_same_replay(batched, scalar):
    """Two ``run_once`` results: payload, server counters and policy state."""
    (batched_result, batched_repo, batched_policy) = batched
    (scalar_result, scalar_repo, scalar_policy) = scalar
    assert canonical(batched_result) == canonical(scalar_result)
    assert batched_repo.stats() == scalar_repo.stats()
    assert policy_state(batched_policy) == policy_state(scalar_policy)


def run_fleet(catalog, trace, factories, strategy="region", *, scalar=False,
              sample_every=25, measure_from=0):
    """One fleet replay routed by a partitioner; ``scalar`` forces the per-event step."""
    repository = Repository(catalog)
    links = [NetworkLink() for _ in factories]
    policies = [make(repository, link) for make, link in zip(factories, links)]
    partitioner = TracePartitioner.for_trace(
        catalog.object_ids, len(factories), trace, strategy=strategy
    )
    kernel = ReplayKernel(
        repository, policies, links,
        EngineConfig(sample_every=sample_every, measure_from=measure_from),
        route=partitioner,
        on_decision=(lambda payload, outcome: None) if scalar else None,
    )
    site_runs, aggregate = kernel.run(trace)
    if not scalar:
        assert select_batched_executor(
            policies, trace, repository, links, partitioner
        ) is not None
    return site_runs, aggregate, repository, policies


def assert_same_fleet(batched, scalar):
    """Two ``run_fleet`` results: every site, the aggregate, the server, the policies."""
    assert [canonical(run) for run in batched[0]] == [canonical(run) for run in scalar[0]]
    assert canonical(batched[1]) == canonical(scalar[1])
    assert batched[2].stats() == scalar[2].stats()
    assert [policy_state(p) for p in batched[3]] == [policy_state(p) for p in scalar[3]]


def window_edges(catalog, trace, windows, strategy="region"):
    """Each Benefit site's window edges in a fleet of ``len(windows)`` sites.

    A site's window closes after every ``window`` of its own events: every
    broadcast update plus the queries routed to it.
    """
    columns = trace.columns()
    routes = TracePartitioner.for_trace(
        catalog.object_ids, len(windows), trace, strategy=strategy
    ).sites_of_queries(columns, catalog).tolist()
    edges = []
    for site, window in enumerate(windows):
        own, query = [], 0
        for index, is_update in enumerate(columns.is_update.tolist()):
            if is_update or routes[query] == site:
                own.append(index)
            query += not is_update
        edges.append([index + 1 for index in own[window - 1 :: window]])
    return edges


class TestByteEquivalence:
    @pytest.mark.parametrize("make_policy", STATIC_POLICIES)
    @pytest.mark.parametrize("measure_from", (0, 60, 75))
    def test_batched_matches_scalar(self, catalog, make_policy, measure_from):
        trace = mixed_trace(200)
        batched, batched_repo, _ = run_once(
            catalog, trace, make_policy, measure_from=measure_from
        )
        scalar, scalar_repo, _ = run_once(
            catalog, trace, make_policy, scalar=True, measure_from=measure_from
        )
        assert canonical(batched) == canonical(scalar)
        assert batched_repo.stats() == scalar_repo.stats()

    @pytest.mark.parametrize("make_policy", STATIC_POLICIES)
    def test_batched_matches_scalar_on_generated_workload(self, make_policy):
        scenario = build_scenario(
            ExperimentConfig(object_count=50, query_count=400, update_count=400, seed=3)
        )
        catalog, trace = scenario.catalog, scenario.trace
        batched, batched_repo, _ = run_once(catalog, trace, make_policy, sample_every=100)
        scalar, scalar_repo, _ = run_once(
            catalog, trace, make_policy, scalar=True, sample_every=100
        )
        assert canonical(batched) == canonical(scalar)
        assert batched_repo.stats() == scalar_repo.stats()

    @pytest.mark.parametrize("make_policy", STATIC_POLICIES)
    def test_batched_matches_scalar_on_trace_view(self, catalog, make_policy):
        view = mixed_trace(200).slice_events(37, 163)
        batched, batched_repo, _ = run_once(catalog, view, make_policy)
        scalar, scalar_repo, _ = run_once(catalog, view, make_policy, scalar=True)
        assert canonical(batched) == canonical(scalar)
        assert batched_repo.stats() == scalar_repo.stats()

    @pytest.mark.parametrize("make_policy", STATIC_POLICIES[1:])
    def test_store_state_matches(self, catalog, make_policy):
        trace = mixed_trace(200)
        _, _, batched = run_once(catalog, trace, make_policy, sample_every=50)
        _, _, scalar = run_once(catalog, trace, make_policy, scalar=True, sample_every=50)
        assert store_state(batched) == store_state(scalar)

    def test_partial_soptimal_answers_ships_and_receives_updates(self):
        """The generated case above exercises every branch of the executor."""
        scenario = build_scenario(
            ExperimentConfig(object_count=50, query_count=400, update_count=400, seed=3)
        )
        result, _, policy = run_once(
            scenario.catalog, scenario.trace, soptimal_at(0.3), sample_every=100
        )
        assert 0 < len(policy.store) < len(scenario.catalog)
        assert result.queries_answered_at_cache > 0
        assert result.queries_shipped > 0
        assert result.traffic_by_mechanism[Mechanism.UPDATE_SHIPPING] > 0

    # Benefit: an empty, a partial and a whole-catalogue cache; a window that
    # divides sample_every (25) and one that does not; measure_from on a
    # window edge and mid-window.
    @pytest.mark.parametrize("fraction", (0.0, 0.3, 1.0))
    @pytest.mark.parametrize("window", (5, 7))
    @pytest.mark.parametrize("measure_from", (0, 35, 73))
    def test_benefit_matches_scalar(self, catalog, fraction, window, measure_from):
        trace = shifting_trace(200)
        make_policy = benefit_at(fraction, window)
        batched = run_once(catalog, trace, make_policy, measure_from=measure_from)
        assert_same_replay(
            batched,
            run_once(catalog, trace, make_policy, scalar=True, measure_from=measure_from),
        )
        _, _, policy = batched
        assert policy.window_index == len(trace) // window
        assert (policy.store.eviction_count > 0) == (fraction > 0)

    @pytest.mark.parametrize("window", (5, 7))
    def test_benefit_matches_scalar_on_trace_view(self, catalog, window):
        view = shifting_trace(200).slice_events(37, 163)
        make_policy = benefit_at(0.3, window)
        assert_same_replay(
            run_once(catalog, view, make_policy),
            run_once(catalog, view, make_policy, scalar=True),
        )

    @pytest.mark.parametrize("window", (50, 70))
    def test_benefit_matches_scalar_on_generated_workload(self, window):
        scenario = build_scenario(
            ExperimentConfig(object_count=50, query_count=400, update_count=400, seed=5,
                             workload_model="flash_crowd")
        )
        catalog, trace = scenario.catalog, scenario.trace
        make_policy = benefit_at(0.3, window)
        batched = run_once(catalog, trace, make_policy, sample_every=100)
        assert_same_replay(
            batched, run_once(catalog, trace, make_policy, scalar=True, sample_every=100)
        )
        # Every branch ran: windows re-planned the cache, which answered,
        # shipped, loaded, evicted and received updates.
        result, _, policy = batched
        assert policy.window_index == len(trace) // window
        assert result.queries_answered_at_cache > 0 and result.queries_shipped > 0
        assert policy.store.eviction_count > 0
        for mechanism in Mechanism.ALL:
            assert result.traffic_by_mechanism[mechanism] > 0

    @pytest.mark.parametrize("window", (1, 3, 50))
    @pytest.mark.parametrize("ids", ("compact", "scattered"))
    def test_benefit_forecasts_match_scalar(self, catalog, window, ids):
        trace = shifting_trace(200)
        if ids == "scattered":  # the same workload, its ids spread over twelve decades
            scatter = {oid: oid + 10 ** (oid % 13) for oid in catalog.object_ids}
            catalog = ObjectCatalog.from_sizes(
                {scatter[oid]: catalog.size_of(oid) for oid in catalog.object_ids}
            )
            trace = Trace(
                UpdateEvent(make_update(
                    payload.update_id, scatter[payload.object_id], payload.cost,
                    payload.timestamp,
                )) if is_update else QueryEvent(make_query(
                    payload.query_id, [scatter[oid] for oid in payload.object_ids],
                    payload.cost, payload.timestamp,
                ))
                for is_update, payload in trace.iter_tagged()
            )  # fmt: skip
        batched = run_once(catalog, trace, benefit_at(0.3, window))
        scalar = run_once(catalog, trace, benefit_at(0.3, window), scalar=True)
        assert_same_replay(batched, scalar)
        forecasts = [
            [repr(policy.forecast_of(oid)) for oid in catalog.object_ids]
            for _, _, policy in (batched, scalar)
        ]
        assert forecasts[0] == forecasts[1]
        assert any(value != "0.0" for value in forecasts[0])

    @pytest.mark.parametrize(
        "factories, strategy",
        [
            pytest.param((benefit_at(0.3, 6),) * 2, "region", id="benefit-x2-region"),
            pytest.param((benefit_at(0.3, 6),) * 2, "affinity", id="benefit-x2-affinity"),
            pytest.param((benefit_at(0.3, 5), nocache, soptimal_at(0.3)), "region",
                         id="mixed-x3-region"),
            pytest.param((soptimal_at(0.3), benefit_at(0.5, 7), nocache), "affinity",
                         id="mixed-x3-affinity"),
            pytest.param((nocache,) * 2, "region", id="nocache-x2-region"),
            pytest.param((benefit_at(0.3, 4),) * 3, "affinity", id="benefit-x3-affinity"),
        ],
    )
    @pytest.mark.parametrize("measure_from", (0, 73))
    def test_fleet_matches_scalar(self, catalog, factories, strategy, measure_from):
        trace = shifting_trace(240)
        assert_same_fleet(
            run_fleet(catalog, trace, factories, strategy, measure_from=measure_from),
            run_fleet(catalog, trace, factories, strategy, scalar=True,
                      measure_from=measure_from),
        )

    @pytest.mark.parametrize("strategy", ("region", "affinity"))
    def test_benefit_fleet_matches_scalar_on_generated_workload(self, strategy):
        scenario = build_scenario(
            ExperimentConfig(object_count=50, query_count=400, update_count=400, seed=5,
                             workload_model="flash_crowd")
        )
        factories = (benefit_at(0.3, 40), benefit_at(0.3, 40))
        catalog, trace = scenario.catalog, scenario.trace
        batched = run_fleet(catalog, trace, factories, strategy, sample_every=100)
        assert_same_fleet(
            batched, run_fleet(catalog, trace, factories, strategy, scalar=True,
                               sample_every=100),
        )
        site_runs = batched[0]
        assert all(run.queries_answered_at_cache > 0 for run in site_runs)


#: Traces at the edges of the batched path: no queries, no updates, one event.
EDGE_TRACES = {
    "update-only": [("update", [1 + index % 5], 2.0 + index % 3, 0.0) for index in range(23)],
    "query-only": [
        ("query", [1 + index % 5, 1 + index * 3 % 6], 4.0, 0.0) for index in range(23)
    ],
    "one-update": [("update", [2], 3.0, 0.0)],
    "one-query": [("query", [2, 5], 3.0, 0.0)],
}

#: Every one-site batched row: each static decoupling, and Benefit.
EDGE_ROWS = (*STATIC_POLICIES, pytest.param(benefit_at(0.5, 4), id="Benefit"))


@pytest.mark.parametrize("kind", sorted(EDGE_TRACES))
class TestEdgeTraces:
    @pytest.mark.parametrize("make_policy", EDGE_ROWS)
    def test_single_site_matches_scalar(self, catalog, kind, make_policy):
        trace = build_trace(EDGE_TRACES[kind])
        assert_same_replay(
            run_once(catalog, trace, make_policy, sample_every=5, measure_from=3),
            run_once(catalog, trace, make_policy, scalar=True, sample_every=5, measure_from=3),
        )

    @pytest.mark.parametrize("strategy", ("region", "affinity"))
    @pytest.mark.parametrize(
        "factories",
        [
            pytest.param((benefit_at(0.5, 4), benefit_at(0.5, 3)), id="benefit-x2"),
            pytest.param((nocache, soptimal_at(0.5), benefit_at(0.5, 2)), id="mixed-x3"),
        ],
    )
    def test_fleet_matches_scalar(self, catalog, kind, strategy, factories):
        trace = build_trace(EDGE_TRACES[kind])
        assert_same_fleet(
            run_fleet(catalog, trace, factories, strategy, sample_every=5, measure_from=3),
            run_fleet(
                catalog, trace, factories, strategy, scalar=True, sample_every=5, measure_from=3
            ),
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=event_stream(max_objects=6),
    resident=st.sets(st.integers(min_value=1, max_value=6)),
    sample_every=st.integers(min_value=1, max_value=12),
    measure_from=st.integers(min_value=0, max_value=40),
)
def test_property_any_resident_set_batched_matches_scalar(
    raw, resident, sample_every, measure_from
):
    """For any fixed resident set, the batched replay is the scalar one."""
    trace = build_trace(raw)
    catalog = ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 7)})

    def drawn_set(repository, link):
        policy = SOptimalPolicy(repository, float("inf"), link)
        for object_id in sorted(resident):
            policy.load_object(object_id, timestamp=0.0)
        policy.prepare = lambda trace: None  # the drawn set is the decision
        return policy

    runs = [
        run_once(catalog, trace, drawn_set, scalar=scalar, sample_every=sample_every,
                 measure_from=measure_from)
        for scalar in (False, True)
    ]
    (batched, batched_repo, batched_policy), (scalar, scalar_repo, scalar_policy) = runs
    assert canonical(batched) == canonical(scalar)
    assert batched_repo.stats() == scalar_repo.stats()
    assert store_state(batched_policy) == store_state(scalar_policy)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=event_stream(max_objects=6),
    windows=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    routed=st.booleans(),
    fraction=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
    sample_every=st.integers(min_value=1, max_value=12),
    measure_from=st.integers(min_value=0, max_value=40),
)
def test_property_benefit_sites_batched_match_scalar(
    raw, windows, routed, fraction, sample_every, measure_from
):
    """Benefit alone or as a routed fleet, any window sizes: batched is scalar."""
    trace = build_trace(raw)
    catalog = ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 7)})
    factories = [benefit_at(fraction, window) for window in windows]
    grid = dict(sample_every=sample_every, measure_from=measure_from)
    if routed or len(factories) > 1:
        assert_same_fleet(
            run_fleet(catalog, trace, factories, **grid),
            run_fleet(catalog, trace, factories, scalar=True, **grid),
        )
    else:
        assert_same_replay(
            run_once(catalog, trace, factories[0], **grid),
            run_once(catalog, trace, factories[0], scalar=True, **grid),
        )


class TestEligibility:
    def select(self, catalog, *, policy=None, trace=None, link=None,
               repository=None):
        repository = repository or Repository(catalog)
        link = link if link is not None else NetworkLink()
        policy = policy or NoCachePolicy(repository, 0.0, link)
        trace = trace if trace is not None else mixed_trace(20)
        return select_batched_executor([policy], trace, repository, [link])

    def test_yardsticks_selected(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        assert self.select(
            catalog, policy=NoCachePolicy(repository, 0.0, link),
            repository=repository, link=link,
        ) is not None
        assert self.select(
            catalog, policy=ReplicaPolicy(repository, float("inf"), link),
            repository=repository, link=link,
        ) is not None
        assert self.select(
            catalog, policy=SOptimalPolicy(repository, 30.0, link),
            repository=repository, link=link,
        ) is not None

    @pytest.mark.parametrize("name", ["nocache", "replica", "soptimal", "benefit"])
    def test_built_site_selected(self, catalog, name):
        # Every site build_site makes has a plain repository and link, so only
        # the policy type decides eligibility.
        (policy,) = build_site(catalog, policy_spec(name), 30.0).policies
        assert select_batched_executor(
            [policy], mixed_trace(20), policy.repository, [policy.link]
        ) is not None

    def test_subclass_falls_back(self, catalog):
        class AuditedNoCache(NoCachePolicy):
            pass

        class AuditedSOptimal(SOptimalPolicy):
            pass

        repository = Repository(catalog)
        link = NetworkLink()
        assert self.select(
            catalog, policy=AuditedNoCache(repository, 0.0, link),
            repository=repository, link=link,
        ) is None
        assert self.select(
            catalog, policy=AuditedSOptimal(repository, 30.0, link),
            repository=repository, link=link,
        ) is None

    def test_benefit_selected_and_its_subclass_falls_back(self, catalog):
        class AuditedBenefit(BenefitPolicy):
            pass

        repository = Repository(catalog)
        link = NetworkLink()
        assert self.select(
            catalog, policy=BenefitPolicy(repository, 30.0, link),
            repository=repository, link=link,
        ) is not None
        assert self.select(
            catalog, policy=AuditedBenefit(repository, 30.0, link),
            repository=repository, link=link,
        ) is None

    def select_fleet(self, catalog, factories, route=None):
        repository = Repository(catalog)
        links = [NetworkLink() for _ in factories]
        policies = [make(repository, link) for make, link in zip(factories, links)]
        trace = mixed_trace(20)
        if route is None:
            route = TracePartitioner.for_trace(catalog.object_ids, len(factories), trace)
        return select_batched_executor(policies, trace, repository, links, route)

    def test_uniform_benefit_fleet_selected(self, catalog):
        assert self.select_fleet(catalog, [benefit_at(0.3, 5)] * 2) is not None

    def test_fleet_with_a_vcover_site_falls_back(self, catalog):
        def vcover(repository, link):
            return VCoverPolicy(repository, 30.0, link)

        assert self.select_fleet(catalog, [benefit_at(0.3, 5), vcover]) is None

    def test_fleet_with_a_plain_callable_router_falls_back(self, catalog):
        factories = [benefit_at(0.3, 5)] * 2
        assert self.select_fleet(
            catalog, factories, route=lambda query: query.query_id % 2
        ) is None

    def test_benefit_fleet_runs_without_per_event_hooks(self, catalog, monkeypatch):
        """run_topology's uniform Benefit fleet takes the batched path."""

        def refuse(self, payload):
            raise AssertionError("a per-event hook ran")

        monkeypatch.setattr(BenefitPolicy, "on_query", refuse)
        monkeypatch.setattr(BenefitPolicy, "on_update", refuse)
        spec = TopologySpec.uniform(
            benefit_spec(BenefitConfig(window_size=6)), 2, cache_fraction=0.3
        )
        result = run_topology(spec, catalog, mixed_trace(120), EngineConfig(sample_every=25))
        assert result.aggregate.events_processed == 120
        assert [run.policy_stats["windows_completed"] for run in result.site_runs] == [
            float(run.events_processed // 6) for run in result.site_runs
        ]

    #: Catalogue positions come from a lookup table (compact ids) or a binary
    #: search (scattered ids): either replays as the scalar loop does.
    CATALOGUES = {
        "compact": {oid: float(oid) for oid in range(1, 31, 2)},
        "scattered": {1: 4.0, 3: 6.0, 10**6 + 1: 2.0, 10**12 + 1: 5.0},
    }

    @pytest.mark.parametrize("ids", sorted(CATALOGUES))
    def test_catalogue_ids_compact_or_scattered_match_scalar(self, ids):
        sizes = self.CATALOGUES[ids]
        catalog = ObjectCatalog.from_sizes(sizes)
        object_ids = sorted(sizes)
        raw = [
            ("update" if index % 3 == 2 else "query",
             [object_ids[index % 4], object_ids[index * 3 % 4]], 3.0 + index % 5, 0.0)
            for index in range(120)
        ]  # fmt: skip
        trace = build_trace(raw)
        for make_policy in (benefit_at(0.5, 4), soptimal_at(0.5)):
            assert_same_replay(
                run_once(catalog, trace, make_policy, sample_every=10),
                run_once(catalog, trace, make_policy, scalar=True, sample_every=10),
            )

    @pytest.mark.parametrize("ids", sorted(CATALOGUES))
    @pytest.mark.parametrize("make_policy", (nocache, benefit_at(1.0, 3)))
    @pytest.mark.parametrize("unknown", (0, 16, 99))  # below, inside, above compact ids
    def test_unknown_object_raises_like_scalar(self, ids, make_policy, unknown):
        sparse = ObjectCatalog.from_sizes(self.CATALOGUES[ids])
        trace = Trace([
            QueryEvent(make_query(0, object_ids=[1, 3], cost=2.0, timestamp=1.0)),
            QueryEvent(make_query(1, object_ids=[3, unknown], cost=2.0, timestamp=2.0)),
        ])  # fmt: skip
        for scalar in (False, True):
            with pytest.raises(KeyError):
                run_once(sparse, trace, make_policy, scalar=scalar)

    def test_unprepared_soptimal_replays_like_nocache(self, catalog):
        trace = mixed_trace(40)

        def replay(policy_type):
            repository = Repository(catalog)
            link = NetworkLink()
            policy = policy_type(repository, 30.0, link)
            executor = self.select(catalog, policy=policy, trace=trace,
                                   repository=repository, link=link)
            assert executor.process(0, len(trace)) == [(0, trace.query_count)]
            observer = policy.observer
            return (
                link.total_by_mechanism(), link.count_by_mechanism(), repository.stats(),
                len(policy.store), observer.queries_seen, observer.updates_seen,
                observer.cache_answers, observer.shipped_queries,
            )

        assert replay(SOptimalPolicy) == replay(NoCachePolicy)

    def test_streaming_trace_falls_back(self, catalog):
        trace = mixed_trace(20)

        class StreamOnly:
            def __len__(self):
                return len(trace)

            def iter_tagged(self):
                return trace.iter_tagged()

        assert self.select(catalog, trace=StreamOnly()) is None

    def test_unvectorised_cost_model_falls_back(self, catalog):
        class OpaqueModel(TrafficCostModel):
            def cost(self, size: float) -> float:
                return size

        link = NetworkLink(cost_model=OpaqueModel())
        assert self.select(catalog, link=link) is None


class TestBatchedPrimitives:
    def test_charge_batch_matches_scalar_fold(self):
        costs = numpy.array([0.1, 0.2, 0.3, 1e-9, 7.7], dtype=numpy.float64)
        batched = NetworkLink()
        batched.ship_query(100.0)
        batched.charge_batch(
            Mechanism.QUERY_SHIPPING, batched.cost_model.cost_array(costs)
        )
        scalar = NetworkLink()
        scalar.ship_query(100.0)
        for cost in costs.tolist():
            scalar.ship_query(cost)
        assert batched.total_cost == scalar.total_cost
        assert batched.total_by_mechanism() == scalar.total_by_mechanism()

    def test_cost_array_matches_scalar_models(self):
        sizes = numpy.array([0.0, 0.5, 1.0, 3.25], dtype=numpy.float64)
        for model in (LinearCostModel(2.0), AffineCostModel(0.25, 2.0)):
            expected = [model.cost(float(size)) for size in sizes]
            assert model.cost_array(sizes).tolist() == expected

    def test_ingest_update_columns_matches_scalar(self, catalog):
        updates = [
            make_update(index, object_id=1 + index % 5, cost=0.1 * index,
                        timestamp=float(index))
            for index in range(30)
        ]
        batched = Repository(catalog)
        batched.ingest_update_columns(
            numpy.array([update.object_id for update in updates], dtype=numpy.int64),
            numpy.array([update.rows for update in updates], dtype=numpy.int64),
            numpy.array([update.cost for update in updates], dtype=numpy.float64),
        )
        scalar = Repository(catalog)
        for update in updates:
            scalar.ingest_update(update)
        assert batched.stats() == scalar.stats()
        # load_object hands out the post-ingest snapshot (version, size,
        # as_of); calling it symmetrically keeps the comparison fair.
        for oid in catalog.object_ids:
            batched_snapshot, _ = batched.load_object(oid, timestamp=999.0)
            scalar_snapshot, _ = scalar.load_object(oid, timestamp=999.0)
            assert batched_snapshot == scalar_snapshot

    def test_unknown_object_rejected(self, catalog):
        repository = Repository(catalog)
        with pytest.raises(KeyError):
            repository.ingest_update_columns(
                numpy.array([999], dtype=numpy.int64),
                numpy.array([1], dtype=numpy.int64),
                numpy.array([1.0], dtype=numpy.float64),
            )
        with pytest.raises(KeyError):
            repository.answer_query_batch(numpy.array([999], dtype=numpy.int64), 1)

    def test_note_batch_matches_per_event_hooks(self, catalog):
        repository = Repository(catalog)
        link = NetworkLink()
        reference = NoCachePolicy(repository, 0.0, link)
        query = make_query(1, object_ids=[1], cost=1.0, timestamp=1.0)
        update = make_update(1, object_id=1, cost=1.0, timestamp=1.0)
        for _ in range(3):
            reference.observer.note_query(query)
            reference.observer.note_shipped_query(query)
        for _ in range(2):
            reference.observer.note_update(update)
        reference.observer.note_cache_answer(query)
        batched = NoCachePolicy(repository, 0.0, link)
        batched.observer.note_batch(
            queries=3, updates=2, cache_answers=1, shipped_queries=3
        )
        for attribute in (
            "queries_seen", "updates_seen", "cache_answers", "shipped_queries"
        ):
            assert getattr(batched.observer, attribute) == getattr(
                reference.observer, attribute
            )


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=event_stream(max_objects=6, max_events=60),
    windows=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=3, unique=True),
    strategy=st.sampled_from(("region", "affinity")),
    fraction=st.sampled_from((0.2, 0.5, 1.0)),
    sample_every=st.integers(min_value=1, max_value=7),
    measure_from=st.integers(min_value=1, max_value=58),
)
def test_property_interleaved_fleet_windows_match_scalar(
    raw, windows, strategy, fraction, sample_every, measure_from
):
    """Benefit sites whose windows close at different events, measured from
    inside a window of every site: the batched fleet is the scalar one."""
    assume(len(raw) >= 2)
    trace = build_trace(raw)
    catalog = ObjectCatalog.from_sizes({oid: float(oid) for oid in range(1, 7)})
    measure_from = 1 + measure_from % (len(trace) - 1)
    edges = window_edges(catalog, trace, windows, strategy)
    assume(all(measure_from not in site_edges for site_edges in edges))
    factories = [benefit_at(fraction, window) for window in windows]
    grid = {"sample_every": sample_every, "measure_from": measure_from}
    assert_same_fleet(
        run_fleet(catalog, trace, factories, strategy, **grid),
        run_fleet(catalog, trace, factories, strategy, scalar=True, **grid),
    )
