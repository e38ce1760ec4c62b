"""Named benchmark suites: declarative scenarios with timing targets.

A :class:`BenchCase` is a frozen, picklable recipe -- scenario config
overrides on top of the standard :class:`~repro.experiments.config.ExperimentConfig`
defaults, the policies to replay, and (optionally) a multi-site topology.
Cases reuse the declarative scenario machinery
(:class:`~repro.experiments.spec.ScenarioSpec`), so a benchmark measures
exactly what the experiments run, never a parallel hand-rolled setup.

Three suites ship by default:

* ``quick`` -- small enough for every CI run (tens of seconds on a shared
  runner), covering the single-cache engine across all five policies, a
  VCover-heavy decision workload on a sparse interaction graph and one on a
  dense graph (update bursts, ~80 edges per update vertex), and the
  multi-cache engine;
* ``full`` -- the paper-scale defaults, for tracking real machines over
  time;
* ``stress`` -- the constant-memory guard: flash-crowd workloads replayed
  through the streaming trace pipeline at 500k and 5M events.  The trace is
  never materialised, so the 5M-event case must finish with a peak RSS
  below twice the 500k-event case's (the slow-marked peak-RSS test and
  ``docs/workloads.md`` document the bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.sim.runner import DEFAULT_POLICIES


@dataclass(frozen=True)
class BenchCase:
    """One timed scenario of a suite.

    Parameters
    ----------
    name:
        Stable identifier; baselines are matched case-by-case on it.
    description:
        One line for reports.
    overrides:
        ``ExperimentConfig`` fields overriding the defaults (kept as a tuple
        of pairs so the case is hashable and picklable).
    policies:
        Policies replayed (each timed separately).
    cache_fraction:
        Cache size override for the runs (None = the config's own).
    sites:
        Number of cache sites; 1 uses the single-cache engine, >1 replays
        the trace against a uniform fleet via the multi-cache engine.
    repeats:
        How many times each policy run is repeated; the *best* wall-clock is
        recorded (standard practice to suppress scheduler noise).
    streaming:
        When ``True`` the case replays the scenario's lazily-generated
        :class:`~repro.workload.trace.TraceStream` instead of materialising
        the trace first; generation is then part of the timed replay (an
        honest events/sec for the streaming pipeline) and memory stays
        constant in the trace length.
    """

    name: str
    description: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    cache_fraction: Optional[float] = None
    sites: int = 1
    repeats: int = 1
    streaming: bool = False

    def config(self) -> ExperimentConfig:
        """The scenario config the case replays."""
        return ExperimentConfig().scaled(**dict(self.overrides))


def _case(name: str, description: str, /, **kwargs: Any) -> BenchCase:
    overrides = tuple(sorted(kwargs.pop("overrides", {}).items()))
    return BenchCase(name=name, description=description, overrides=overrides, **kwargs)


#: The named suites. Keep case names stable: the committed CI baseline and
#: any locally saved baselines are matched on them.
SUITES: Dict[str, Tuple[BenchCase, ...]] = {
    "quick": (
        # best-of-3 keeps CI timings stable enough to gate on: the quick
        # cases are fast, so single runs are dominated by scheduler noise.
        _case(
            "headline-quick",
            "all five policies over a 4k-event headline-shaped trace",
            overrides={"query_count": 2000, "update_count": 2000},
            repeats=3,
        ),
        _case(
            "vcover-deep-quick",
            "VCover alone over a 6k-event trace (decision-loop stress)",
            overrides={"query_count": 3000, "update_count": 3000},
            policies=("vcover",),
            repeats=3,
        ),
        _case(
            "vcover-dense-quick",
            "VCover alone over a 1.2k-event update storm, streamed (dense interaction graph)",
            overrides={
                "workload_model": "update_storm",
                "query_count": 600,
                "update_count": 600,
            },
            policies=("vcover",),
            repeats=3,
            streaming=True,
        ),
        _case(
            "multisite-quick",
            "two-site vcover fleet over a 3k-event trace (multi-cache engine)",
            overrides={"query_count": 1500, "update_count": 1500},
            policies=("vcover",),
            sites=2,
            repeats=3,
        ),
        _case(
            "adaptive-quick",
            "adaptive meta-policy (regret-tracked) vs vcover over 3k events",
            overrides={"query_count": 1500, "update_count": 1500},
            policies=("adaptive", "vcover"),
            repeats=3,
        ),
        _case(
            "columnar-quick",
            "batched static-decoupling replay over a 40k-event trace (columnar core)",
            overrides={
                "query_count": 20_000,
                "update_count": 20_000,
                "sample_every": 2_000,
            },
            policies=("nocache", "replica", "soptimal"),
            repeats=3,
        ),
    ),
    "full": (
        _case(
            "headline-full",
            "all five policies over the paper-scale 12k-event default trace",
        ),
        _case(
            "vcover-deep-full",
            "VCover alone over a 16k-event trace (decision-loop stress)",
            overrides={"query_count": 8000, "update_count": 8000},
            policies=("vcover",),
        ),
        _case(
            "cache-sweep-full",
            "vcover/nocache at a tight 10% cache (eviction-heavy)",
            overrides={"query_count": 4000, "update_count": 4000},
            policies=("vcover", "nocache"),
            cache_fraction=0.1,
        ),
        _case(
            "multisite-full",
            "four-site vcover fleet over the 12k-event default trace",
            policies=("vcover",),
            sites=4,
        ),
    ),
    "stress": (
        # The 500k-event case runs first so its per-case peak RSS (a
        # process-wide high-water mark) is not inflated by the 5M-event run;
        # the constant-memory claim is "5M peak < 2x 500k peak".
        _case(
            "flash-crowd-500k",
            "streaming flash-crowd replay, 500k events (RSS baseline)",
            overrides={
                "workload_model": "flash_crowd",
                "query_count": 250_000,
                "update_count": 250_000,
                "sample_every": 5_000,
            },
            policies=("nocache", "replica"),
            streaming=True,
        ),
        _case(
            "flash-crowd-5m",
            "streaming flash-crowd replay, 5M events in bounded RSS",
            overrides={
                "workload_model": "flash_crowd",
                "query_count": 2_500_000,
                "update_count": 2_500_000,
                "sample_every": 50_000,
            },
            policies=("nocache", "replica"),
            streaming=True,
        ),
        _case(
            "cache-adversary-500k",
            "streaming eviction-busting adversary replay at a tight cache",
            overrides={
                "workload_model": "cache_adversary",
                "query_count": 250_000,
                "update_count": 250_000,
                "sample_every": 5_000,
            },
            policies=("vcover", "nocache"),
            cache_fraction=0.1,
            streaming=True,
        ),
    ),
}


def get_suite(name: str) -> Tuple[BenchCase, ...]:
    """Look up a suite by name (raises ``KeyError`` with the known names)."""
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown bench suite {name!r}; known suites: {sorted(SUITES)}"
        ) from None
