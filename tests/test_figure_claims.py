"""The paper's claims, gated: every claim of every figure row, at its scale.

Each :class:`~repro.experiments.figures.Figure` row declares the overrides
its claims are gated at (``tier1``) and, per claim, the band the measurement
must fall in (``gate``).  Each row runs once; there is one test per claim, so
a failure names the claim that stopped holding.  The gates are single-seed:
a claim that holds at seed 7 may still fail at another.
"""

from __future__ import annotations

import re
from typing import Dict

import pytest

from repro import api
from repro.experiments.figures import FIGURES, FigureResult

CLAIMS = [(row.name, claim) for row in FIGURES.values() for claim in row.claims]


def _claim_id(name: str, label: str) -> str:
    return f"{name}-" + re.sub(r"\W+", "_", label).strip("_").lower()


@pytest.fixture(scope="module")
def results() -> Dict[str, FigureResult]:
    """Each row's result at its tier-1 scale, run on first use."""
    return {}


@pytest.mark.parametrize(
    "name, claim", CLAIMS, ids=[_claim_id(name, claim.label) for name, claim in CLAIMS]
)
def test_claim_holds_at_its_gate(name, claim, results):
    if name not in results:
        results[name] = api.run_experiment(name, overrides=FIGURES[name].tier1)
    value = claim.measure(results[name])
    assert value is not None, f"{name}: {claim.label} is not on the tier-1 grid"
    assert value in claim.gate, (
        f"{name}: {claim.label} = {value:{claim.fmt}}, "
        f"outside the gate {claim.gate.describe(claim.fmt)}"
    )
