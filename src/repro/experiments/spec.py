"""Declarative scenario specification.

A :class:`ScenarioSpec` is the one representation of "a workload scenario"
shared by the experiment registry, the sweep runner, the CLI and config
files.  It serves both ways a scenario reaches a sweep worker:

* the *recipe* path: only the small, picklable spec crosses a process
  boundary and each worker rebuilds the catalogue + trace deterministically
  from its seeds, memoised per process;
* the *prebuilt* path (:class:`repro.workload.trace.InlineScenario`): when the
  caller already holds a built scenario, :meth:`ScenarioSpec.inline` derives
  the inline form from the same spec in one place, so the two paths can
  never drift apart (a regression test asserts they build byte-identical
  traces for the same knobs).

Because the spec is pure data, scenarios can also live in JSON or TOML
files: :func:`load_scenario` reads one back, validating every knob against
:class:`repro.experiments.config.ExperimentConfig` and raising
:class:`ScenarioError` with the offending key on any mismatch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.experiments.config import (
    WORKLOAD_MODELS,
    ExperimentConfig,
    Scenario,
    build_scenario,
    build_scenario_stream,
)
from repro.repository.catalog import DEFAULT_SCALE
from repro.repository.objects import ObjectCatalog
from repro.workload.ingest import CalibrationResult, IngestError, calibrate, ingest_trace
from repro.workload.trace import InlineScenario, ScenarioSource, Trace, TraceStream

#: Name used when a spec (or scenario file) does not set one.
DEFAULT_SCENARIO_NAME = "default"

#: Field names an ExperimentConfig accepts (the valid scenario knobs).
CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))

#: Declared annotation per config field ("int" or "float"; the module uses
#: postponed evaluation, so dataclass field types are strings).
_CONFIG_FIELD_TYPES = {f.name: str(f.type) for f in fields(ExperimentConfig)}


class ScenarioError(ValueError):
    """A scenario description is malformed (unknown knob, bad value, ...)."""


@dataclass(frozen=True)
class ScenarioSpec(ScenarioSource):
    """A scenario as pure data: a name plus the :class:`ExperimentConfig` knobs.

    The spec is frozen and picklable, so it can be a sweep scenario source
    directly (workers rebuild it via :meth:`realise`, memoised through
    :meth:`cache_key`), round-trip through :meth:`to_dict`/:meth:`from_dict`,
    and live in JSON/TOML files (see :func:`load_scenario`).
    """

    config: ExperimentConfig
    name: str = DEFAULT_SCENARIO_NAME

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_knobs(cls, name: str = DEFAULT_SCENARIO_NAME, **knobs: Any) -> "ScenarioSpec":
        """A spec from individual config knobs (defaults for the rest)."""
        return cls(config=config_from_mapping(knobs), name=name)

    def scaled(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given config knobs replaced."""
        return replace(self, config=self.config.scaled(**overrides))

    # ------------------------------------------------------------------
    # ScenarioSource contract
    # ------------------------------------------------------------------
    def realise(self) -> Tuple[ObjectCatalog, Trace]:
        """Build the catalogue and trace (deterministic in the config seeds)."""
        scenario = self.build()
        return scenario.catalog, scenario.trace

    def realise_stream(self) -> Tuple[ObjectCatalog, TraceStream]:
        """The catalogue plus a lazy event source for the same scenario.

        The stream generates the byte-identical event sequence
        :meth:`realise` would materialise (see
        :func:`repro.experiments.config.build_scenario_stream`), so sweep
        points flagged ``streaming=True`` replay it in constant memory with
        identical results.
        """
        return build_scenario_stream(self.config)

    def cache_key(self) -> Tuple[object, ...]:
        """Hashable identity of the build recipe (all config knobs).

        The name is deliberately excluded: it is a label, not a build input,
        so same-config specs under different names memoise to one build
        per worker.
        """
        return ("scenario", astuple(self.config))

    # ------------------------------------------------------------------
    # Derived forms
    # ------------------------------------------------------------------
    def build(self) -> Scenario:
        """The fully built :class:`~repro.experiments.config.Scenario`."""
        return build_scenario(self.config)

    def inline(self) -> InlineScenario:
        """The prebuilt (:class:`InlineScenario`) form of this spec.

        This is the single place the inline representation is derived from
        the declarative one; experiments that want the trace built once in
        the parent process call this instead of hand-wiring
        ``InlineScenario(catalog, trace)`` from a config.
        """
        catalog, trace = self.realise()
        return InlineScenario(catalog, trace)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (``from_dict`` round-trips it)."""
        return {"name": self.name, "config": asdict(self.config)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a hand-written file).

        Accepts either the nested form ``{"name": ..., "config": {...}}`` or
        a flat mapping of config knobs with an optional ``"name"`` key.
        Raises :class:`ScenarioError` on unknown knobs or invalid values.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario description must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        name = data.pop("name", DEFAULT_SCENARIO_NAME)
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"scenario name must be a non-empty string, got {name!r}")
        if "config" in data:
            knobs = data.pop("config")
            if data:
                raise ScenarioError(
                    f"unexpected top-level keys {sorted(data)}; a nested scenario "
                    "holds only 'name' and 'config'"
                )
            if not isinstance(knobs, Mapping):
                raise ScenarioError(
                    f"'config' must be a mapping of knobs, got {type(knobs).__name__}"
                )
        else:
            knobs = data
        return cls(config=config_from_mapping(knobs), name=name)


def config_from_mapping(knobs: Mapping[str, object]) -> ExperimentConfig:
    """Validate a knob mapping into an :class:`ExperimentConfig`."""
    unknown = sorted(set(knobs) - set(CONFIG_FIELDS))
    if unknown:
        raise ScenarioError(
            f"unknown scenario knob(s) {unknown}; valid knobs: {sorted(CONFIG_FIELDS)}"
        )
    for key, value in knobs.items():
        declared = _CONFIG_FIELD_TYPES.get(key)
        if declared == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(
                    f"scenario knob {key!r} must be an integer, got {value!r}"
                )
        elif declared == "str":
            if not isinstance(value, str):
                raise ScenarioError(
                    f"scenario knob {key!r} must be a string, got {value!r}"
                )
            if key == "workload_model" and value not in WORKLOAD_MODELS:
                # Report the offending key *and* value at the boundary
                # instead of letting ExperimentConfig's ValueError surface
                # as a generic "invalid scenario config" wrapper.
                raise ScenarioError(
                    f"unknown workload_model {value!r} for scenario knob "
                    f"{key!r}; known models: {', '.join(WORKLOAD_MODELS)}"
                )
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(
                f"scenario knob {key!r} must be a number, got {value!r}"
            )
    try:
        return ExperimentConfig(**knobs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario config: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load a scenario spec from a JSON or TOML file.

    The format is chosen by suffix (``.toml`` = TOML, anything else = JSON).
    A file is either the nested ``{"name": ..., "config": {...}}`` form or a
    flat mapping of config knobs; unnamed scenarios take the file stem as
    their name.  Raises :class:`ScenarioError` on unreadable or invalid
    content (including a missing file).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ScenarioError(
                f"cannot load {path}: TOML scenario files need Python 3.11+ "
                "(tomllib); use JSON instead"
            ) from None

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{path} is not valid TOML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, Mapping) and "name" not in data:
        data = {"name": path.stem, **data}
    return ScenarioSpec.from_dict(data)


def save_scenario(spec: ScenarioSpec, path: Union[str, Path]) -> Path:
    """Write a spec as a JSON scenario file (the :func:`load_scenario` format)."""
    path = Path(path)
    path.write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def ingest_scenario(
    path: Union[str, Path],
    name: Optional[str] = None,
    scale: float = DEFAULT_SCALE,
) -> Tuple[ScenarioSpec, CalibrationResult]:
    """Ingest + calibrate a log into a replayable scenario spec.

    Returns ``(spec, calibration)`` where ``spec`` is a :class:`ScenarioSpec`
    whose knobs were fitted to the log (see :mod:`repro.workload.ingest`);
    save it with :func:`save_scenario` and it replays anywhere a scenario
    file does (CLI, sweeps, streaming engines).
    """
    path = Path(path)
    log = ingest_trace(path)
    calibration = calibrate(log.trace, scale=scale)
    knobs: Dict[str, Any] = dict(calibration.knobs())
    knobs["scale"] = scale
    try:
        spec = ScenarioSpec.from_knobs(name=name or path.stem, **knobs)
    except ScenarioError as exc:  # pragma: no cover - defensive
        raise IngestError(
            f"calibration produced an invalid scenario for {path}: {exc}"
        ) from exc
    return spec, calibration
