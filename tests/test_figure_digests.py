"""The paper's figure experiments, pinned: SHA-256 over every grid point.

``headline``, ``cache_size``, ``fig7b``, ``fig8a`` and ``fig8b`` each run a
sweep grid through :func:`repro.api.run_experiment`.  This file captures the
:class:`~repro.sim.sweep.SweepResult` every run produces and hashes, in grid
order, each point's ``RunResult.as_payload()`` together with the description
of the trace it ran on (canonical JSON).  How an experiment declares or
summarises its grid may change; these bytes may not.  Each experiment runs
serially and over two workers, and both must give the recorded digest.

Change a digest only for a change that is *meant* to alter what the
experiments compute, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

import pytest

from repro import api
from repro.sim.sweep import SweepResult, SweepRunner

#: A scenario small enough to run every default grid in seconds.
TINY = {
    "object_count": 24,
    "query_count": 500,
    "update_count": 500,
    "sample_every": 125,
    "benefit_window": 250,
}

DIGESTS = {
    "cache_size": "53aeb09a529d296dfef589e8bf525209ac635a760a5967d9b62efc247b90ab91",
    "fig7b": "4f1a15eb70ec738fc0560678ab42b629db3ee977d70b5bc0a27643c30c39e1f1",
    "fig8a": "721f9a25fdfc3fa4d2befe6462f8364a1fc0a08060c5dcae07b5fef5515ec3f3",
    "fig8b": "78d9976b908950150de7cc3bdb7adf5f209adf0d45e1fed5ab18ec62710ca646",
    "headline": "db418554a447c2453af95ba4b7b32bc8c855df812517c14aa7537682e47beb37",
}


def grid_digest(sweeps: List[SweepResult]) -> str:
    sha = hashlib.sha256()
    for sweep in sweeps:
        for point in sweep.points:
            record = {"result": point.run.as_payload(), "trace": point.trace_description}
            sha.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
            sha.update(b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_experiment_grid_bytes(name, jobs, monkeypatch):
    sweeps: List[SweepResult] = []
    run = SweepRunner.run

    def recording_run(self, points, scenarios):
        sweeps.append(run(self, points, scenarios))
        return sweeps[-1]

    monkeypatch.setattr(SweepRunner, "run", recording_run)
    api.run_experiment(name, overrides=TINY, jobs=jobs)
    assert sweeps, f"{name} ran no sweep"
    assert grid_digest(sweeps) == DIGESTS[name]
