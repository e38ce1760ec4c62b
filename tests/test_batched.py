"""Tests for the columnar trace compilation and batched replay executors.

Three layers:

* :class:`repro.workload.columns.TraceColumns` -- the compiled layout and
  its zero-copy windows,
* byte-equivalence -- the batched executors must produce payloads identical
  to the scalar loop's for the same run (the load-bearing guarantee behind
  the determinism fixtures),
* eligibility -- every gating condition in ``select_batched_executor`` must
  actually fall back to the scalar loop.
"""

from __future__ import annotations

import json

import pytest

from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy
from repro.network.cost import AffineCostModel, LinearCostModel, TrafficCostModel
from repro.network.link import Mechanism, NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.sim import engine as engine_module
from repro.sim.batched import select_batched_executor
from repro.sim.engine import EngineConfig, ReplayKernel
from repro.experiments.config import ExperimentConfig, build_scenario
from repro.workload.columns import COLUMNS_AVAILABLE, TraceColumns
from repro.workload.trace import QueryEvent, Trace, UpdateEvent
from tests.conftest import make_query, make_update

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


def run_once(catalog, trace, policy_type, *, scalar=False, monkeypatch=None,
             measure_from=0, sample_every=25):
    repository = Repository(catalog, keep_update_log=False)
    link = NetworkLink()
    if policy_type is NoCachePolicy:
        policy = NoCachePolicy(repository, 0.0, link)
    else:
        policy = ReplicaPolicy(repository, float("inf"), link)
    engine = ReplayKernel(
        repository, [policy], [link],
        EngineConfig(sample_every=sample_every, measure_from=measure_from),
    )
    if scalar:
        monkeypatch.setattr(
            engine_module, "select_batched_executor", lambda *args: None
        )
    (result,), _ = engine.run(trace)
    return result, repository


def canonical(result) -> str:
    return json.dumps(result.as_payload(), sort_keys=True, separators=(",", ":"))


class TestByteEquivalence:
    @pytest.mark.parametrize("policy_type", (NoCachePolicy, ReplicaPolicy))
    @pytest.mark.parametrize("measure_from", (0, 60, 75))
    def test_batched_matches_scalar(self, catalog, monkeypatch, policy_type,
                                    measure_from):
        trace = mixed_trace(200)
        batched, batched_repo = run_once(
            catalog, trace, policy_type, measure_from=measure_from
        )
        scalar, scalar_repo = run_once(
            catalog, trace, policy_type, scalar=True, monkeypatch=monkeypatch,
            measure_from=measure_from,
        )
        assert canonical(batched) == canonical(scalar)
        assert batched_repo.stats() == scalar_repo.stats()

    @pytest.mark.parametrize("policy_type", (NoCachePolicy, ReplicaPolicy))
    def test_batched_matches_scalar_on_generated_workload(
        self, monkeypatch, policy_type
    ):
        scenario = build_scenario(
            ExperimentConfig(object_count=50, query_count=400, update_count=400, seed=3)
        )
        catalog, trace = scenario.catalog, scenario.trace
        batched, _ = run_once(catalog, trace, policy_type, sample_every=100)
        scalar, _ = run_once(
            catalog, trace, policy_type, scalar=True, monkeypatch=monkeypatch,
            sample_every=100,
        )
        assert canonical(batched) == canonical(scalar)

    def test_batched_matches_scalar_on_trace_view(self, catalog, monkeypatch):
        view = mixed_trace(200).slice_events(37, 163)
        batched, _ = run_once(catalog, view, ReplicaPolicy)
        scalar, _ = run_once(
            catalog, view, ReplicaPolicy, scalar=True, monkeypatch=monkeypatch
        )
        assert canonical(batched) == canonical(scalar)

    def test_replica_store_state_matches(self, catalog, monkeypatch):
        trace = mixed_trace(200)

        def store_state(policy_type, scalar):
            repository = Repository(catalog, keep_update_log=False)
            link = NetworkLink()
            policy = ReplicaPolicy(repository, float("inf"), link)
            engine = ReplayKernel(
                repository, [policy], [link], EngineConfig(sample_every=50)
            )
            if scalar:
                monkeypatch.setattr(
                    engine_module, "select_batched_executor", lambda *args: None
                )
            engine.run(trace)
            return {
                oid: (record.version, record.hits, record.last_hit_at)
                for oid in catalog.object_ids
                for record in [policy.store.get(oid)]
            }

        assert store_state(ReplicaPolicy, scalar=False) == store_state(
            ReplicaPolicy, scalar=True
        )


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

    def test_subclass_falls_back(self, catalog):
        class AuditedNoCache(NoCachePolicy):
            pass

        repository = Repository(catalog, keep_update_log=False)
        link = NetworkLink()
        assert self.select(
            catalog, policy=AuditedNoCache(repository, 0.0, link),
            repository=repository, link=link,
        ) is None

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
