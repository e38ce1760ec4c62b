"""A deterministic work count for VCover's per-event path.

Wall-clock on a shared box drifts by tens of percent between identical runs,
so a slower hot path hides in it.  The number of Python calls the replay
makes inside ``repro`` does not drift: it is a function of the trace and the
decisions alone.  This test replays the default shape at 1 500 + 1 500
events (seed 7) with VCover under ``sys.setprofile`` and holds

* the calls per event to a budget -- a change that adds per-event work
  raises the budget here, in the open, with its reason;
* the count to one value under three string-hash seeds: the in-cache fast
  path rests on set relations (``isdisjoint``, ``>=``), so neither they nor
  anything else on the path may make the work follow hash order.

Each seed runs in its own interpreter (the hash seed is fixed at start-up),
all three at once.  Each replays the trace once untimed first, so the modules
the replay imports lazily are loaded before the count starts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

#: Calls into ``repro`` per replayed event: 34 792 over the 3 000 events when
#: recorded.
CALLS_PER_EVENT_BUDGET = 11.6

_SCRIPT = textwrap.dedent(
    """
    import os
    import sys

    import repro
    from repro.experiments.config import ExperimentConfig, build_scenario
    from repro.sim.runner import policy_spec, run_policy

    config = ExperimentConfig(seed=7).scaled(query_count=1500, update_count=1500)
    scenario = build_scenario(config)
    args = (
        policy_spec("vcover"),
        scenario.catalog,
        scenario.trace,
        scenario.catalog.total_size * config.cache_fraction,
        config.engine_config(),
    )
    run_policy(*args)

    root = os.path.dirname(repro.__file__) + os.sep
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[0] += 1

    sys.setprofile(count)
    run = run_policy(*args)
    sys.setprofile(None)
    stats = run.policy_stats
    print(
        calls[0],
        len(scenario.trace),
        int(stats["update_manager_decisions"]),
        int(stats["update_manager_covers_computed"]),
        repr(run.total_traffic),
    )
    """
)


def _count_under_hash_seeds(seeds):
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        )
        for seed in seeds
    ]
    lines = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        lines.append(out.split())
    return lines


def test_vcover_calls_per_event_within_budget_under_every_hash_seed():
    lines = _count_under_hash_seeds(("0", "1", "2"))
    # The same work, decision for decision, whatever the string-hash seed.
    assert lines[0] == lines[1] == lines[2]
    calls, events, decisions, covers, _ = lines[0]
    assert int(events) == 3000
    # The replay did decide: in-cache queries reached the UpdateManager and
    # some computed a cover, so the count covers the whole per-event path.
    assert int(decisions) > 0 and int(covers) > 0
    per_event = int(calls) / int(events)
    assert per_event <= CALLS_PER_EVENT_BUDGET, (
        f"{per_event:.2f} calls into repro per event, budget {CALLS_PER_EVENT_BUDGET}"
    )
