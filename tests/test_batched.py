"""Tests for the columnar trace compilation and the batched replay executor.

Three layers:

* :class:`repro.workload.columns.TraceColumns` -- the compiled layout and
  its zero-copy windows,
* byte-equivalence -- the batched executor must produce payloads, server
  counters and store records identical to the scalar loop's for every static
  decoupling and any resident set (the load-bearing guarantee behind the
  determinism fixtures),
* eligibility -- every gating condition in ``select_batched_executor`` must
  actually fall back to the scalar loop.
"""

from __future__ import annotations

import json

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy
from repro.network.cost import AffineCostModel, LinearCostModel, TrafficCostModel
from repro.network.link import Mechanism, NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim.batched import select_batched_executor
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.workload.columns import COLUMNS_AVAILABLE, TraceColumns
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update
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


class TestTraceColumns:
    def test_columns_available(self):
        assert COLUMNS_AVAILABLE

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

    def test_window_matches_sliced_trace(self):
        trace = mixed_trace(60)
        window = trace.columns().window(13, 47)
        sliced = Trace(list(trace.iter_events())[13:47]).columns()
        for name in TraceColumns.__slots__:
            numpy.testing.assert_array_equal(
                getattr(window, name), getattr(sliced, name), err_msg=name
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
    repository = Repository(catalog, keep_update_log=False)
    link = NetworkLink()
    policy = make_policy(repository, link)
    engine = ReplayKernel(
        repository, [policy], [link],
        EngineConfig(sample_every=sample_every, measure_from=measure_from),
        on_decision=(lambda payload, outcome: None) if scalar else None,
    )
    (result,), _ = engine.run(trace)
    if not scalar:
        assert select_batched_executor(policy, trace, repository, link) is not None
    return result, repository, policy


def canonical(result) -> str:
    return json.dumps(result.as_payload(), sort_keys=True, separators=(",", ":"))


def store_state(policy):
    return {
        record.object_id: (record.version, record.stale, record.hits, record.last_hit_at)
        for record in policy.store.records()
    }


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


class TestEligibility:
    def select(self, catalog, *, policy=None, trace=None, link=None,
               repository=None):
        repository = repository or Repository(catalog, keep_update_log=False)
        link = link if link is not None else NetworkLink()
        policy = policy or NoCachePolicy(repository, 0.0, link)
        trace = trace if trace is not None else mixed_trace(20)
        return select_batched_executor(policy, trace, repository, link)

    def test_yardsticks_selected(self, catalog):
        repository = Repository(catalog, keep_update_log=False)
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

    def test_subclass_falls_back(self, catalog):
        class AuditedNoCache(NoCachePolicy):
            pass

        class AuditedSOptimal(SOptimalPolicy):
            pass

        repository = Repository(catalog, keep_update_log=False)
        link = NetworkLink()
        assert self.select(
            catalog, policy=AuditedNoCache(repository, 0.0, link),
            repository=repository, link=link,
        ) is None
        assert self.select(
            catalog, policy=AuditedSOptimal(repository, 30.0, link),
            repository=repository, link=link,
        ) is None

    def test_unprepared_soptimal_replays_like_nocache(self, catalog):
        trace = mixed_trace(40)

        def replay(policy_type):
            repository = Repository(catalog, keep_update_log=False)
            link = NetworkLink()
            policy = policy_type(repository, 30.0, link)
            executor = self.select(catalog, policy=policy, trace=trace,
                                   repository=repository, link=link)
            assert executor.process(0, len(trace)) == (0, trace.query_count)
            observer = policy.observer
            return (
                link.total_by_mechanism(), link.count_by_mechanism(), repository.stats(),
                len(policy.store), observer.queries_seen, observer.updates_seen,
                observer.cache_answers, observer.shipped_queries,
            )

        assert replay(SOptimalPolicy) == replay(NoCachePolicy)

    def test_record_keeping_link_falls_back(self, catalog):
        assert self.select(catalog, link=NetworkLink(keep_records=True)) is None

    def test_update_log_repository_falls_back(self, catalog):
        assert self.select(
            catalog, repository=Repository(catalog, keep_update_log=True)
        ) is None

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
        batched.ship_query(100.0, timestamp=0.0)
        batched.charge_batch(
            Mechanism.QUERY_SHIPPING, batched.cost_model.cost_array(costs)
        )
        scalar = NetworkLink()
        scalar.ship_query(100.0, timestamp=0.0)
        for cost in costs.tolist():
            scalar.ship_query(cost, timestamp=0.0)
        assert batched.total_cost == scalar.total_cost
        assert batched.total_by_mechanism() == scalar.total_by_mechanism()

    def test_charge_batch_refuses_record_keeping(self):
        link = NetworkLink(keep_records=True)
        with pytest.raises(RuntimeError):
            link.charge_batch(Mechanism.QUERY_SHIPPING, numpy.array([1.0]))

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
        batched = Repository(catalog, keep_update_log=False)
        batched.ingest_update_columns(
            numpy.array([update.object_id for update in updates], dtype=numpy.int64),
            numpy.array([update.rows for update in updates], dtype=numpy.int64),
            numpy.array([update.cost for update in updates], dtype=numpy.float64),
        )
        scalar = Repository(catalog, keep_update_log=False)
        for update in updates:
            scalar.ingest_update(update)
        assert batched.stats() == scalar.stats()
        # load_object hands out the post-ingest snapshot (version, size,
        # as_of); calling it symmetrically keeps the comparison fair.
        for oid in catalog.object_ids:
            batched_snapshot, _ = batched.load_object(oid, timestamp=999.0)
            scalar_snapshot, _ = scalar.load_object(oid, timestamp=999.0)
            assert batched_snapshot == scalar_snapshot

    def test_ingest_update_columns_refuses_update_log(self, catalog):
        repository = Repository(catalog, keep_update_log=True)
        with pytest.raises(RuntimeError):
            repository.ingest_update_columns(
                numpy.array([1], dtype=numpy.int64),
                numpy.array([1], dtype=numpy.int64),
                numpy.array([1.0], dtype=numpy.float64),
            )

    def test_unknown_object_rejected(self, catalog):
        repository = Repository(catalog, keep_update_log=False)
        with pytest.raises(KeyError):
            repository.ingest_update_columns(
                numpy.array([999], dtype=numpy.int64),
                numpy.array([1], dtype=numpy.int64),
                numpy.array([1.0], dtype=numpy.float64),
            )
        with pytest.raises(KeyError):
            repository.answer_query_batch(numpy.array([999], dtype=numpy.int64), 1)

    def test_note_batch_matches_per_event_hooks(self, catalog):
        repository = Repository(catalog, keep_update_log=False)
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
