"""The (simulated) network link between repository and cache.

:class:`NetworkLink` is the single place where traffic costs are charged.
Every policy routes its query shipping, update shipping and object loading
through a link, so the simulator and the experiment harness can read one
ledger to produce the paper's cumulative-traffic curves and per-mechanism
breakdowns.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.network.cost import LinearCostModel, TrafficCostModel


class Mechanism:
    """The three data-communication mechanisms of Section 3."""

    QUERY_SHIPPING = "query_shipping"
    UPDATE_SHIPPING = "update_shipping"
    OBJECT_LOADING = "object_loading"

    ALL = (QUERY_SHIPPING, UPDATE_SHIPPING, OBJECT_LOADING)


class NetworkLink:
    """Traffic ledger for one policy run: a total and a count per mechanism.

    The ledger keeps totals, not history: a charge adds its priced cost to
    its mechanism's total and bumps its count, and nothing per transfer is
    retained, so a long-running deployment's ledger never grows.  The three
    totals are all the paper's cost model reports; per-object detail (what
    was loaded or evicted, which updates were shipped) lives in the policy's
    :class:`~repro.cache.store.CacheStore` and in each query's
    :class:`~repro.core.decoupling.QueryOutcome`.

    Parameters
    ----------
    cost_model:
        Traffic cost model; defaults to the paper's linear model.
    """

    def __init__(self, cost_model: Optional[TrafficCostModel] = None) -> None:
        self._cost_model = cost_model or LinearCostModel()
        self._totals: Dict[str, float] = {mechanism: 0.0 for mechanism in Mechanism.ALL}
        self._counts: Dict[str, int] = {mechanism: 0 for mechanism in Mechanism.ALL}

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, mechanism: str, size: float) -> float:
        """Charge one transfer and return its cost."""
        if mechanism not in Mechanism.ALL:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        cost = self._cost_model.cost(size)
        self._totals[mechanism] += cost
        self._counts[mechanism] += 1
        return cost

    def ship_query(self, size: float) -> float:
        """Charge a query-shipping transfer."""
        # :meth:`charge` inlined: the hottest charge needs no mechanism check.
        cost = self._cost_model.cost(size)
        self._totals[Mechanism.QUERY_SHIPPING] += cost
        self._counts[Mechanism.QUERY_SHIPPING] += 1
        return cost

    def ship_update(self, size: float) -> float:
        """Charge an update-shipping transfer."""
        return self.charge(Mechanism.UPDATE_SHIPPING, size)

    def load_object(self, size: float) -> float:
        """Charge an object-loading transfer."""
        return self.charge(Mechanism.OBJECT_LOADING, size)

    def charge_batch(self, mechanism: str, priced_costs) -> None:
        """Charge a batch of already-priced same-mechanism transfers.

        ``priced_costs`` is a numpy array of per-transfer costs (the caller
        applies the cost model vectorised, see
        :meth:`repro.network.cost.LinearCostModel.cost_array`); the running
        total is :meth:`fold`-ed over it.
        """
        self.charge_folded(mechanism, self.fold(mechanism, priced_costs), 0, len(priced_costs))

    def fold(self, mechanism: str, priced_costs):
        """The running totals of ``mechanism`` over a batch, charging nothing.

        Entry ``k`` is the total once the first ``k`` of ``priced_costs`` are
        charged (entry 0: the total now).  The fold runs left-to-right via
        ``cumsum``, which performs exactly the same sequence of IEEE additions
        as charging each transfer individually -- the batched replay path
        depends on that, for every prefix, to stay byte-identical to the
        scalar path.
        """
        if mechanism not in Mechanism.ALL:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        import numpy

        folded = numpy.empty(len(priced_costs) + 1, dtype=numpy.float64)
        folded[0] = self._totals[mechanism]
        folded[1:] = priced_costs
        return numpy.cumsum(folded)

    def charge_folded(self, mechanism: str, folded, start: int, stop: int) -> None:
        """Charge transfers ``[start, stop)`` of a :meth:`fold`-ed batch, those before charged."""
        self._totals[mechanism] = float(folded[stop])
        self._counts[mechanism] += stop - start

    # ------------------------------------------------------------------
    # Reading the ledger
    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> TrafficCostModel:
        """The traffic cost model pricing every transfer."""
        return self._cost_model

    @property
    def total_cost(self) -> float:
        """Total traffic cost charged so far, in MB."""
        return sum(self._totals.values())

    def total_by_mechanism(self) -> Dict[str, float]:
        """Traffic cost per mechanism."""
        return dict(self._totals)

    def count_by_mechanism(self) -> Dict[str, int]:
        """Number of transfers per mechanism."""
        return dict(self._counts)

    def reset(self) -> None:
        """Clear the ledger."""
        self._totals = {mechanism: 0.0 for mechanism in Mechanism.ALL}
        self._counts = {mechanism: 0 for mechanism in Mechanism.ALL}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkLink(total={self.total_cost:.1f}MB)"
