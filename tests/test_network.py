"""Tests for the network cost models and the traffic ledger."""

from __future__ import annotations

import numpy
import pytest

from repro.network.cost import AffineCostModel, LinearCostModel
from repro.network.link import Mechanism, NetworkLink


class TestCostModels:
    def test_linear_cost_is_proportional(self):
        model = LinearCostModel()
        assert model.cost(10.0) == pytest.approx(10.0)
        assert model.cost(0.0) == pytest.approx(0.0)

    def test_linear_cost_with_factor(self):
        model = LinearCostModel(factor=2.0)
        assert model.cost(10.0) == pytest.approx(20.0)

    def test_linear_rejects_negative_size(self):
        with pytest.raises(ValueError):
            LinearCostModel().cost(-1.0)

    def test_affine_adds_overhead_except_for_empty_transfers(self):
        model = AffineCostModel(factor=1.0, overhead=0.5)
        assert model.cost(10.0) == pytest.approx(10.5)
        assert model.cost(0.0) == pytest.approx(0.0)

    def test_cost_of_many(self):
        model = LinearCostModel()
        assert model.cost_of_many([1.0, 2.0, 3.0]) == pytest.approx(6.0)


class TestNetworkLink:
    def test_charges_accumulate_by_mechanism(self):
        link = NetworkLink()
        link.ship_query(5.0)
        link.ship_update(2.0)
        link.load_object(10.0)
        totals = link.total_by_mechanism()
        assert totals[Mechanism.QUERY_SHIPPING] == pytest.approx(5.0)
        assert totals[Mechanism.UPDATE_SHIPPING] == pytest.approx(2.0)
        assert totals[Mechanism.OBJECT_LOADING] == pytest.approx(10.0)
        assert link.total_cost == pytest.approx(17.0)

    def test_counts_by_mechanism(self):
        link = NetworkLink()
        link.ship_query(1.0)
        link.ship_query(1.0)
        assert link.count_by_mechanism()[Mechanism.QUERY_SHIPPING] == 2

    def test_unknown_mechanism_rejected(self):
        link = NetworkLink()
        with pytest.raises(ValueError):
            link.charge("teleport", 1.0)

    def test_ledger_keeps_totals_not_history(self):
        link = NetworkLink()
        for _ in range(1000):
            link.ship_query(1.0)
        assert link.count_by_mechanism()[Mechanism.QUERY_SHIPPING] == 1000
        assert link.total_cost == pytest.approx(1000.0)
        # Nothing per transfer: the cost model plus one total and one count per mechanism.
        assert set(vars(link)) == {"_cost_model", "_totals", "_counts"}

    def test_reset_clears_everything(self):
        link = NetworkLink()
        link.load_object(4.0)
        link.reset()
        assert link.total_cost == pytest.approx(0.0)
        assert link.count_by_mechanism() == {mechanism: 0 for mechanism in Mechanism.ALL}

    def test_custom_cost_model_applies(self):
        link = NetworkLink(cost_model=LinearCostModel(factor=3.0))
        link.ship_query(2.0)
        assert link.total_cost == pytest.approx(6.0)

    def test_charge_returns_priced_cost(self):
        link = NetworkLink(cost_model=AffineCostModel(overhead=0.25, factor=2.0))
        assert link.ship_update(3.0) == pytest.approx(6.25)
        assert link.load_object(0.0) == 0.0
        assert link.count_by_mechanism() == {
            Mechanism.QUERY_SHIPPING: 0, Mechanism.UPDATE_SHIPPING: 1, Mechanism.OBJECT_LOADING: 1,
        }
        assert link.total_cost == pytest.approx(6.25)

    def test_charge_batch_unknown_mechanism_rejected(self):
        link = NetworkLink()
        with pytest.raises(ValueError):
            link.charge_batch("teleport", numpy.array([1.0]))
        assert link.total_cost == 0.0

    def test_fold_charges_nothing_until_a_prefix_is_charged(self):
        costs = numpy.array([0.1, 0.2, 0.3], dtype=numpy.float64)
        link = NetworkLink()
        link.load_object(1.0)
        folded = link.fold(Mechanism.OBJECT_LOADING, costs)
        assert link.count_by_mechanism()[Mechanism.OBJECT_LOADING] == 1
        link.charge_folded(Mechanism.OBJECT_LOADING, folded, 0, 2)
        scalar = NetworkLink()
        for cost in (1.0, 0.1, 0.2):
            scalar.load_object(cost)
        assert link.total_by_mechanism() == scalar.total_by_mechanism()
        assert link.count_by_mechanism() == scalar.count_by_mechanism()
