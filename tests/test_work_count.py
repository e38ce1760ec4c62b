"""A deterministic work count for VCover's per-event path and batched Benefit.

Wall-clock on a shared box drifts by tens of percent between identical runs,
so a slower hot path hides in it.  The number of Python calls the replay
makes inside ``repro`` does not drift: it is a function of the trace and the
decisions alone.  These tests replay the default shape at 1 500 + 1 500
events (seed 7) under ``sys.setprofile`` -- VCover per event, and the batched
Benefit rows (one cache, and a two-site fleet) at ``benefit_window=100`` --
and hold

* the calls to a budget -- a change that adds work raises the budget here,
  in the open, with its reason;
* the count to one value under three string-hash seeds: the in-cache fast
  path rests on set relations (``isdisjoint``, ``>=``), so neither they nor
  anything else on the path may make the work follow hash order.

A batched row's work is a few numpy calls per decision stretch, so its count
is Python calls into ``repro`` plus the C calls (numpy, builtins) made from
``repro`` frames.

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


#: The batched Benefit rows' (Python calls into ``repro``, C calls from
#: ``repro`` frames): the one cache closes 30 windows, the fleet sites 27 and 17.
#: The same rows took 2 680 + 2 696 and 4 372 + 4 942 calls when every
#: window edge of either site re-replayed both fleet sites.  Which numpy
#: functions are C calls depends on the numpy release (recorded with 2.4 on
#: CPython 3.11): an upgrade that moves the count re-records it here.
BENEFIT_CALL_BUDGETS = {"single": (1_787, 1_885), "fleet": (2_749, 2_997)}

_BENEFIT_SCRIPT = textwrap.dedent(
    """
    import os
    import sys

    import repro
    from repro.core.benefit import BenefitConfig
    from repro.experiments.config import ExperimentConfig, build_scenario
    from repro.sim.multicache import TopologySpec, run_topology
    from repro.sim.runner import benefit_spec, run_policy

    config = ExperimentConfig(seed=7).scaled(
        query_count=1500, update_count=1500, benefit_window=100
    )
    scenario = build_scenario(config)
    catalog, trace, engine = scenario.catalog, scenario.trace, config.engine_config()
    spec = benefit_spec(BenefitConfig(window_size=config.benefit_window))
    fleet = TopologySpec.uniform(spec, 2, cache_fraction=config.cache_fraction)
    rows = {
        "single": lambda: [run_policy(
            spec, catalog, trace, catalog.total_size * config.cache_fraction, engine
        )],
        "fleet": lambda: run_topology(fleet, catalog, trace, engine).site_runs,
    }

    root = os.path.dirname(repro.__file__) + os.sep
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in calls and frame.f_code.co_filename.startswith(root):
            calls[event] += 1

    for name, row in rows.items():
        row()
        calls.update(call=0, c_call=0)
        sys.setprofile(count)
        runs = row()
        sys.setprofile(None)
        windows = [int(run.policy_stats["windows_completed"]) for run in runs]
        print(name, calls["call"], calls["c_call"], *windows)
    """
)


def _count_under_hash_seeds(seeds, script=_SCRIPT):
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
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


def test_batched_benefit_calls_within_budget_under_every_hash_seed():
    lines = _count_under_hash_seeds(("0", "1", "2"), _BENEFIT_SCRIPT)
    # The same work, window for window, whatever the string-hash seed.
    assert lines[0] == lines[1] == lines[2]
    single, fleet = lines[0][:4], lines[0][4:]
    # Every row closed windows, so the count covers the window path.
    assert single[0] == "single" and int(single[3]) == 30
    assert fleet[0] == "fleet" and all(int(windows) > 0 for windows in fleet[3:])
    for name, python_calls, c_calls, *_ in (single, fleet):
        counted, budget = (int(python_calls), int(c_calls)), BENEFIT_CALL_BUDGETS[name]
        assert all(map(int.__le__, counted, budget)), (
            f"{name}: {counted} calls (Python, C), budget {budget}"
        )
