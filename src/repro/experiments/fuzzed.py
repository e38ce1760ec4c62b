"""Experiment E13 -- fuzzed scenario compositions (beyond the paper).

The ``fuzzed`` experiment turns the adversarial scenario fuzzer
(:mod:`repro.workload.fuzz`) into a registry citizen: one run draws a
multi-segment composition from the config seed (so ``repro experiment run
fuzzed --set seed=K`` replays draw ``K`` exactly), checks the structural
stream invariants, replays the composition against the policy roster
through the streaming pipeline, and -- the fuzzer's whole point -- *flags*
any draw where VCover loses to the NoCache yardstick by saving the
composition as a minimal repro file (:func:`repro.workload.fuzz.save_regression`)
under the ``repro_dir`` knob.  A saved file replays with
``repro.workload.fuzz.load_composition`` or the docs walkthrough, so a
policy regression found by fuzzing is pinned as data, not as a seed that a
refactor may silently remap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentGrid,
    register_experiment,
)
from repro.sim.engine import EngineConfig
from repro.sim.results import ComparisonResult
from repro.sim.runner import DEFAULT_POLICIES
from repro.sim.sweep import DEFAULT_SCENARIO, SweepPoint
from repro.workload.fuzz import (
    CompositionSpec,
    check_stream_invariants,
    draw_composition_spec,
    save_regression,
)


@dataclass
class FuzzedScenarioResult:
    """Policy comparison under one fuzzed scenario composition."""

    spec: CompositionSpec
    comparison: ComparisonResult
    streaming: bool
    #: Minimal repro file saved because VCover lost to NoCache (else None).
    regression_path: Optional[Path] = None

    @property
    def vcover_over_nocache(self) -> float:
        """VCover traffic relative to NoCache (< 1 means caching wins)."""
        return self.comparison.ratio("vcover", "nocache")

    @property
    def models(self) -> str:
        """The drawn segment chain, e.g. ``diurnal+update_storm``."""
        return "+".join(segment.model for segment in self.spec.segments)


def maybe_save_regression(
    spec: CompositionSpec,
    comparison: ComparisonResult,
    directory: Optional[Path],
) -> Optional[Path]:
    """Save ``spec`` as a repro file iff VCover lost to NoCache.

    The comparison only needs ``traffic_of``, so tests can drive this with a
    stub.  Returns the saved path, or ``None`` when VCover held up (or when
    either policy is missing from the comparison, or saving is disabled).
    """
    try:
        vcover = comparison.traffic_of("vcover")
        nocache = comparison.traffic_of("nocache")
    except KeyError:
        return None
    if vcover <= nocache or directory is None:
        return None
    return save_regression(spec, directory)


def format_report(result: FuzzedScenarioResult) -> str:
    """Comparison table plus the drawn composition and the regression flag."""
    replay = "streaming" if result.streaming else "materialised"
    lines = [
        f"Fuzzed composition: {result.spec.name} "
        f"[{result.models}] ({replay} replay)",
        f"  seed={result.spec.seed} object_count={result.spec.object_count} "
        f"cache_fraction={result.spec.cache_fraction} "
        f"events={result.spec.query_count}q/{result.spec.update_count}u",
        result.comparison.as_table(),
        f"vcover / nocache traffic: {result.vcover_over_nocache:.2f}x",
    ]
    if result.regression_path is not None:
        lines.append(
            f"REGRESSION: vcover lost to nocache; minimal repro saved to "
            f"{result.regression_path}"
        )
    return "\n".join(lines)


def _summarise(context: ExperimentContext) -> FuzzedScenarioResult:
    spec: CompositionSpec = context.extras["composition"]
    comparison = context.sweep.comparison()
    repro_dir = context.knobs["repro_dir"]
    return FuzzedScenarioResult(
        spec=spec,
        comparison=comparison,
        streaming=bool(context.knobs["streaming"]),
        regression_path=maybe_save_regression(
            spec, comparison, Path(repro_dir) if repro_dir else None
        ),
    )


@register_experiment(
    name="fuzzed",
    title="Fuzzed workload: random multi-model compositions",
    paper_ref="beyond the paper",
    description=(
        "Draws a random multi-segment composition of the scenario models "
        "(flash crowd, diurnal, update storm, cache adversary) from the "
        "config seed, verifies the structural stream invariants, and "
        "compares the policy set over it; draws where VCover loses to the "
        "NoCache yardstick are saved as minimal repro files."
    ),
    knobs={
        "policies": DEFAULT_POLICIES,
        "streaming": True,
        "max_segments": 3,
        #: Directory regression repro files are saved into ("" disables).
        "repro_dir": "fuzz-repros",
    },
    summarise=_summarise,
    format_result=format_report,
)
def _fuzzed_grid(
    config: ExperimentConfig, knobs: Mapping[str, object]
) -> ExperimentGrid:
    """One point per policy over the composition drawn from the config seed."""
    composition = draw_composition_spec(
        config.seed, max_segments=int(knobs["max_segments"])
    )
    # Every draw must be structurally sound before any policy sees it; a
    # violation here is a fuzzer bug, not a policy regression.
    catalog, stream = composition.realise_stream()
    check_stream_invariants(stream, catalog)
    specs = config.policy_specs(include=knobs["policies"])
    engine = EngineConfig(sample_every=config.sample_every)
    points = tuple(
        SweepPoint(
            key=spec.name,
            spec=spec,
            cache_fraction=composition.cache_fraction,
            engine=engine,
            seed=composition.seed,
            streaming=bool(knobs["streaming"]),
        )
        for spec in specs
    )
    return ExperimentGrid(
        points=points,
        scenarios={DEFAULT_SCENARIO: composition},
        context={"composition": composition},
    )
