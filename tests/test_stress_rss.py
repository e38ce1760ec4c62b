"""Peak-RSS guard for the streaming trace pipeline.

The contract is that a streaming flash-crowd replay runs in (near-)constant
memory: a 10x longer trace must stay under twice the peak RSS of the shorter
one.  This test measures exactly that, at a pytest-friendly scale, by
replaying in fresh subprocesses (RSS high-water marks are process-wide, so
each measurement needs its own process).

Marked ``slow``: CI runs it only in the main-branch job (see the
``-m "not slow"`` split in ``.github/workflows/ci.yml``).  Skipped on
platforms without the POSIX :mod:`resource` module.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource  # noqa: F401  (availability probe)
except ImportError:  # pragma: no cover - Windows
    resource = None

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        resource is None, reason="peak-RSS measurement needs the POSIX resource module"
    ),
]

#: Script run in the child: streaming flash-crowd replay, then print peak RSS.
_CHILD_SCRIPT = """
import resource, sys
from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.sim.engine import EngineConfig
from repro.sim.runner import nocache_spec, run_policy

events = int(sys.argv[1])
config = ExperimentConfig(
    workload_model="flash_crowd",
    query_count=events // 2,
    update_count=events // 2,
    sample_every=5_000,
)
catalog, stream = build_scenario_stream(config)
run = run_policy(
    nocache_spec(), catalog, stream, catalog.total_size * 0.3,
    EngineConfig(sample_every=config.sample_every),
)
assert run.events_processed == events
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak_kb /= 1024.0
print(f"PEAK_RSS_KB={peak_kb:.0f}")
"""


def _peak_rss_kb(events: int) -> float:
    src = str(Path(__file__).resolve().parent.parent / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(events)],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    for line in completed.stdout.splitlines():
        if line.startswith("PEAK_RSS_KB="):
            return float(line.partition("=")[2])
    raise AssertionError(f"no RSS line in child output: {completed.stdout!r}")


def test_streaming_replay_rss_is_bounded():
    """A 10x longer streaming replay stays under 2x the peak RSS."""
    small = _peak_rss_kb(60_000)
    large = _peak_rss_kb(600_000)
    assert small > 0
    # The constant-memory claim of the streaming pipeline: trace length must
    # not show up in the footprint (interpreter + catalogue dominate both).
    assert large < 2.0 * small, (
        f"streaming replay RSS grew with trace length: "
        f"{small:.0f} KB @ 60k events vs {large:.0f} KB @ 600k events"
    )
