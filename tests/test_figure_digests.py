"""Every registered experiment, pinned: SHA-256 over what it computes.

Eleven of the thirteen experiments run a sweep grid through
:func:`repro.api.run_experiment`.  For those this file captures the
:class:`~repro.sim.sweep.SweepResult` every run produces and hashes, in grid
order, each point's ``RunResult.as_payload()`` together with the description
of the trace it ran on (canonical JSON).  ``fig7a`` and ``warmup`` run no
sweep points, so their digest is the canonical JSON of the result dataclass
itself.  How an experiment declares or summarises its grid may change; these
bytes may not.  Each experiment runs serially and over two workers, and both
must give the recorded digest.

Change a digest only for a change that is *meant* to alter what the
experiments compute, and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
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

#: Experiments that run no sweep points: their result is what is hashed.
RESULT_HASHED = ("fig7a", "warmup")

DIGESTS = {
    "ablations": "bc36683e65197fb163aef6a963bf52aab2c1b779db3eb918833018c4432c58a6",
    "cache_adversary": "531e949e7484a9b671e65f1f2653616321045570e763da16aa0e91121bb3e18f",
    "cache_size": "53aeb09a529d296dfef589e8bf525209ac635a760a5967d9b62efc247b90ab91",
    "diurnal": "3175d24bba0aa86f0a66641eccd675a57e8be87cf1e1b6dd0d2a68ebaca31815",
    "fig7a": "0ae642e98ba7e4bfa26b4b606349a61ae3c77d59e2883d6669252ac2e084d42e",
    "fig7b": "4f1a15eb70ec738fc0560678ab42b629db3ee977d70b5bc0a27643c30c39e1f1",
    "fig8a": "721f9a25fdfc3fa4d2befe6462f8364a1fc0a08060c5dcae07b5fef5515ec3f3",
    "fig8b": "78d9976b908950150de7cc3bdb7adf5f209adf0d45e1fed5ab18ec62710ca646",
    "flash_crowd": "87b19666fa86e7bbc64d97e0da285609351d1acb9625b222010a678c1368f4d8",
    "headline": "db418554a447c2453af95ba4b7b32bc8c855df812517c14aa7537682e47beb37",
    "multisite": "6469983296acae8fc249947e05646acc04e935517d5bdde88038d5c338f724e7",
    "update_storm": "eebd6383ec3ec6a2b36fe77a8a23605598f1536c4e8527194e214e5d38e68694",
    "warmup": "402960ea668553e5367ea6d636eaf456ed88ff655102b3adc292f6890ef6e1f3",
}


def _canonical(record: object) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def grid_digest(sweeps: List[SweepResult]) -> str:
    sha = hashlib.sha256()
    for sweep in sweeps:
        for point in sweep.points:
            record = {"result": point.run.as_payload(), "trace": point.trace_description}
            sha.update(_canonical(record))
            sha.update(b"\n")
    return sha.hexdigest()


def result_digest(result: object) -> str:
    return hashlib.sha256(_canonical(dataclasses.asdict(result))).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_experiment_grid_bytes(name, jobs, monkeypatch):
    sweeps: List[SweepResult] = []
    run = SweepRunner.run

    def recording_run(self, points, scenarios):
        sweeps.append(run(self, points, scenarios))
        return sweeps[-1]

    monkeypatch.setattr(SweepRunner, "run", recording_run)
    result = api.run_experiment(name, overrides=TINY, jobs=jobs)
    if name in RESULT_HASHED:
        assert result_digest(result) == DIGESTS[name]
    else:
        assert any(sweep.points for sweep in sweeps), f"{name} ran no sweep"
        assert grid_digest(sweeps) == DIGESTS[name]
