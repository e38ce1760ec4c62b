"""Experiment E7 -- warm-up behaviour (supporting, Section 6.1).

The paper reports an unusually long warm-up (roughly 250k of 500k events,
and 150k-300k on comparable traces): early queries in the SDSS trace are
cheap, so no object accumulates enough attributed shipping cost to justify a
load, and the cache stays nearly empty while almost all queries are shipped.

This experiment replays the default scenario with VCover and records cache
occupancy and the cache-answer rate over the event sequence, so the warm-up
knee is visible: occupancy stays near zero during the cheap-query prefix and
climbs only once full-cost queries start arriving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Mapping, Optional, Tuple

from repro.core.decoupling import QueryOutcome
from repro.experiments.config import ExperimentConfig, Scenario
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    execute,
    register_experiment,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim.engine import EngineConfig
from repro.sim.runner import build_site, vcover_spec


@dataclass
class WarmupResult:
    """Occupancy and hit-rate trajectories for a VCover run."""

    #: (event index, fraction of cache capacity in use).
    occupancy: List[Tuple[int, float]]
    #: (event index, cache-answer rate over the trailing window).
    hit_rate: List[Tuple[int, float]]
    #: Event index at which occupancy first exceeds 50 % of its final value.
    warmup_knee: int
    #: The configured warm-up boundary (end of the cheap-query prefix).
    configured_warmup_end: int


def run(
    config: Optional[ExperimentConfig] = None,
    sample_every: int = 250,
    window: int = 500,
) -> WarmupResult:
    """Replay the scenario with VCover, sampling occupancy and hit rate."""
    return execute(
        "warmup",
        config=config,
        knobs={"occupancy_sample_every": sample_every, "hit_rate_window": window},
    )


def _replay(
    scenario: Scenario,
    config: ExperimentConfig,
    sample_every: int,
    window: int,
) -> WarmupResult:
    """The instrumented serial replay behind the experiment.

    The kernel reports progress at every ``sample_every`` edge and once at
    the end of the trace, so the last sample is the final occupancy.
    """
    occupancy: List[Tuple[int, float]] = []
    hit_rate: List[Tuple[int, float]] = []
    recent_outcomes: Deque[bool] = deque(maxlen=window)

    def record(payload: object, outcome: Optional[QueryOutcome]) -> None:
        if outcome is not None:
            recent_outcomes.append(outcome.answered_at_cache)

    kernel = build_site(
        scenario.catalog,
        vcover_spec(),
        scenario.cache_capacity,
        EngineConfig(sample_every=sample_every),
        on_decision=record,
    )
    store = kernel.policies[0].store

    def sample(index: int, total: int) -> None:
        occupancy.append((index, store.used / store.capacity if store.capacity else 0.0))
        rate = sum(recent_outcomes) / len(recent_outcomes) if recent_outcomes else 0.0
        hit_rate.append((index, rate))

    kernel.run(scenario.trace, progress=sample)

    final_occupancy = occupancy[-1][1]
    knee = 0
    for event_index, used_fraction in occupancy:
        if final_occupancy > 0 and used_fraction >= 0.5 * final_occupancy:
            knee = event_index
            break

    return WarmupResult(
        occupancy=occupancy,
        hit_rate=hit_rate,
        warmup_knee=knee,
        configured_warmup_end=config.measure_from,
    )


def format_report(result: WarmupResult) -> str:
    """Readable summary of the warm-up trajectory."""
    lines = ["Warm-up behaviour (VCover)"]
    lines.append(f"configured cheap-query prefix ends at event {result.configured_warmup_end}")
    lines.append(f"occupancy reaches half its final level at event {result.warmup_knee}")
    for (event_index, used), (_, rate) in zip(result.occupancy[::4], result.hit_rate[::4], strict=False):
        lines.append(f"event {event_index:>8}: occupancy {used:>6.1%}, hit rate {rate:>6.1%}")
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> WarmupResult:
    return _replay(
        context.extras["scenario"],
        context.config,
        sample_every=context.knobs["occupancy_sample_every"],
        window=context.knobs["hit_rate_window"],
    )


@register_experiment(
    name="warmup",
    title="Warm-up trajectory of cache occupancy and hit rate",
    paper_ref="Section 6.1",
    description=(
        "Replays the default scenario with VCover, sampling cache occupancy "
        "and the trailing-window cache-answer rate so the warm-up knee after "
        "the cheap-query prefix is visible."
    ),
    # Named distinctly from ExperimentConfig.sample_every (the engine's
    # traffic-sampling grid): these control the warm-up replay's own
    # occupancy sampling and trailing hit-rate window.
    knobs={"occupancy_sample_every": 250, "hit_rate_window": 500},
    summarise=_summarise,
    format_result=format_report,
)
def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
    # Serial instrumented replay: per-event occupancy sampling cannot be
    # expressed as sweep points, so the scenario rides in the context.
    return ExperimentGrid(context={"scenario": ScenarioSpec(config).build()})
