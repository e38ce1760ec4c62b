"""Declarative experiment registry and the shared execution driver.

An *experiment* in this repository used to be a bespoke module with a private
``run()`` loop.  The registry turns each one into data: an
:class:`ExperimentSpec` declares the default scenario config, the experiment's
extra knobs, and two hooks -- a grid builder producing the
``(sweep points, scenario sources)`` pair and a summarise hook turning the
completed sweep back into the experiment's result dataclass.  One shared
driver (:func:`execute`) runs every experiment: build the grid, fan it out
over :class:`repro.sim.sweep.SweepRunner` (``jobs=N`` parallelises, results
byte-identical to serial), summarise.

Modules register themselves with the :func:`register_experiment` decorator::

    @register_experiment(
        name="fig7a",
        title="Workload characterisation",
        paper_ref="Figure 7(a)",
        knobs={"top": 6, "segments": 8},
        summarise=_summarise,
        format_result=format_report,
    )
    def _grid(config: ExperimentConfig, knobs: Mapping[str, object]) -> ExperimentGrid:
        ...

The registry imports the modules named in :data:`BUILTIN_EXPERIMENTS` on its
first read or write, and lists the built-ins in that table's order.  It is
enumerable (:func:`experiment_names`), every spec round-trips
through :meth:`ExperimentSpec.to_dict`/:meth:`ExperimentSpec.from_dict` (the
hooks are stored as ``module:qualname`` strings), and
:mod:`repro.api` exposes the whole surface as the supported entry points.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.spec import CONFIG_FIELDS, config_from_mapping
from repro.sim.sweep import ScenarioSource, SweepPoint, SweepResult, SweepRunner


class UnknownExperimentError(ValueError):
    """No experiment is registered under the requested name."""


class UnknownOverrideError(ValueError):
    """An override names neither a config field nor an experiment knob."""


class InvalidOverrideError(ValueError):
    """An override names a valid key but carries an unusable value."""


class DuplicateExperimentError(ValueError):
    """Two experiments tried to register under the same name."""


@dataclass(frozen=True)
class ExperimentGrid:
    """What a grid builder hands the driver: points, sources and context.

    ``context`` carries parent-built objects the summarise hook needs (most
    commonly the realised default scenario); it never crosses a process
    boundary, so it may hold unpicklable values.
    """

    points: Tuple[SweepPoint, ...] = ()
    scenarios: Mapping[str, ScenarioSource] = field(default_factory=dict)
    context: Mapping[str, object] = field(default_factory=dict)


@dataclass
class ExperimentContext:
    """Everything a summarise hook sees after the sweep has run."""

    config: ExperimentConfig
    knobs: Dict[str, object]
    sweep: SweepResult
    extras: Dict[str, object] = field(default_factory=dict)
    jobs: int = 1


#: Signature of a grid builder: (config, merged knobs) -> grid.
GridBuilder = Callable[[ExperimentConfig, Mapping[str, object]], ExperimentGrid]
#: Signature of a summarise hook: completed context -> result dataclass.
Summariser = Callable[[ExperimentContext], object]
#: Signature of a result formatter: result dataclass -> printable text.
ResultFormatter = Callable[[object], str]


def _normalise_knobs(knobs: Mapping[str, object]) -> Dict[str, object]:
    """Canonicalise knob values (sequences become tuples) for stable equality."""

    def canonical(value: object) -> object:
        if isinstance(value, (list, tuple)):
            return tuple(canonical(item) for item in value)
        return value

    return {key: canonical(value) for key, value in knobs.items()}


def _listify(value: object) -> object:
    """The JSON-friendly mirror of :func:`_normalise_knobs`."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


def _hook_ref(hook: Optional[Callable[..., object]]) -> Optional[str]:
    """Serialise a module-level hook as an importable ``module:qualname``."""
    if hook is None:
        return None
    return f"{hook.__module__}:{hook.__qualname__}"


def _resolve_hook(ref: Optional[str]) -> Optional[Callable[..., object]]:
    """Import a hook back from its ``module:qualname`` reference."""
    if ref is None:
        return None
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed hook reference {ref!r}; expected 'module:qualname'")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declared: metadata, default knobs, and the two hooks.

    Parameters
    ----------
    name:
        Registry key, also the CLI name (``repro experiment run <name>``).
    title:
        One-line human description for listings.
    paper_ref:
        The paper artifact the experiment regenerates (e.g. ``Figure 7(b)``).
    description:
        Longer prose shown by ``repro experiment list``.
    config:
        Default scenario configuration; ``run_experiment`` overrides its
        fields via the flat overrides mapping.
    knobs:
        Experiment-specific parameters (grid axes, policy subsets, ...) with
        their default values; overrides must name an existing knob.
    build_grid / summarise / format_result:
        The hooks.  Must be module-level callables so the spec can be
        serialised (``to_dict`` stores them as ``module:qualname``).
    """

    name: str
    title: str
    build_grid: GridBuilder
    summarise: Summariser
    paper_ref: str = ""
    description: str = ""
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    knobs: Mapping[str, object] = field(default_factory=dict)
    format_result: Optional[ResultFormatter] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "description": self.description,
            "config": {
                f.name: getattr(self.config, f.name)
                for f in dataclass_fields(ExperimentConfig)
            },
            "knobs": {key: _listify(value) for key, value in self.knobs.items()},
            "build_grid": _hook_ref(self.build_grid),
            "summarise": _hook_ref(self.summarise),
            "format_result": _hook_ref(self.format_result),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (hooks re-imported)."""
        return cls(
            name=data["name"],
            title=data["title"],
            paper_ref=data.get("paper_ref", ""),
            description=data.get("description", ""),
            config=config_from_mapping(data.get("config", {})),
            knobs=_normalise_knobs(data.get("knobs", {})),
            build_grid=_resolve_hook(data["build_grid"]),
            summarise=_resolve_hook(data["summarise"]),
            format_result=_resolve_hook(data.get("format_result")),
        )


#: The built-in experiments, in the order :func:`experiment_names` lists them,
#: each with the module that registers it when imported.
BUILTIN_EXPERIMENTS: Tuple[Tuple[str, str], ...] = (
    ("ablations", "repro.experiments.ablations"),
    ("cache_size", "repro.experiments.figures"),
    ("fig7a", "repro.experiments.fig7a"),
    ("fig7b", "repro.experiments.figures"),
    ("fig8a", "repro.experiments.figures"),
    ("fig8b", "repro.experiments.figures"),
    ("fuzzed", "repro.experiments.fuzzed"),
    ("headline", "repro.experiments.figures"),
    ("multisite", "repro.experiments.figures"),
    ("flash_crowd", "repro.experiments.figures"),
    ("diurnal", "repro.experiments.figures"),
    ("update_storm", "repro.experiments.figures"),
    ("cache_adversary", "repro.experiments.figures"),
    ("warmup", "repro.experiments.warmup"),
)

#: Listing position of each built-in; other experiments follow them.
_BUILTIN_RANK = {name: rank for rank, (name, _) in enumerate(BUILTIN_EXPERIMENTS)}

_REGISTRY: Dict[str, ExperimentSpec] = {}
_filled = False


def _registry() -> Dict[str, ExperimentSpec]:
    """The registry, after importing every built-in experiment's module once.

    Filled on the first read or write rather than when the package is
    imported, so a process that needs only :mod:`repro.experiments.config`
    never imports the experiments.
    """
    global _filled
    if not _filled:
        _filled = True
        for module in dict.fromkeys(module for _, module in BUILTIN_EXPERIMENTS):
            importlib.import_module(module)
    return _REGISTRY


def _listed() -> List[ExperimentSpec]:
    """Every spec: built-ins in declared order (whatever order their modules
    were imported in), then the others in registration order."""
    return sorted(
        _registry().values(),
        key=lambda spec: _BUILTIN_RANK.get(spec.name, len(_BUILTIN_RANK)),
    )


def register_experiment(
    *,
    name: str,
    title: str,
    summarise: Summariser,
    paper_ref: str = "",
    description: str = "",
    config: Optional[ExperimentConfig] = None,
    knobs: Optional[Mapping[str, object]] = None,
    format_result: Optional[ResultFormatter] = None,
) -> Callable[[GridBuilder], GridBuilder]:
    """Decorator registering a grid builder as an experiment.

    Returns the builder unchanged so the module can keep using it directly.
    Raises :class:`DuplicateExperimentError` if the name is taken.
    """

    def decorate(build_grid: GridBuilder) -> GridBuilder:
        registry = _registry()
        if name in registry:
            raise DuplicateExperimentError(
                f"experiment {name!r} is already registered "
                f"(by {_hook_ref(registry[name].build_grid)})"
            )
        shadowed = sorted(set(knobs or {}) & set(CONFIG_FIELDS))
        if shadowed:
            # split_overrides routes config fields first, so a knob sharing a
            # config field's name could never be overridden -- fail fast.
            raise ValueError(
                f"experiment {name!r} knob(s) {shadowed} shadow "
                "ExperimentConfig fields; rename the knobs"
            )
        registry[name] = ExperimentSpec(
            name=name,
            title=title,
            paper_ref=paper_ref,
            description=description,
            config=config or ExperimentConfig(),
            knobs=_normalise_knobs(knobs or {}),
            build_grid=build_grid,
            summarise=summarise,
            format_result=format_result,
        )
        return build_grid

    return decorate


def experiment_names() -> List[str]:
    """All registered experiment names, in listing order."""
    return [spec.name for spec in _listed()]


def experiment_specs() -> List[ExperimentSpec]:
    """All registered specs, in listing order."""
    return _listed()


def get_experiment(name: str) -> ExperimentSpec:
    """The spec registered under ``name``.

    Raises :class:`UnknownExperimentError` (with the known names) otherwise.
    """
    try:
        return _registry()[name]
    except KeyError:
        known = ", ".join(experiment_names()) or "(none)"
        raise UnknownExperimentError(f"unknown experiment {name!r}; known: {known}") from None


def split_overrides(
    spec: ExperimentSpec, overrides: Mapping[str, object]
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split flat overrides into (config fields, experiment knobs).

    Raises :class:`UnknownOverrideError` for keys that are neither.
    """
    config_overrides: Dict[str, object] = {}
    knob_overrides: Dict[str, object] = {}
    valid_knobs = set(spec.knobs)
    for key, value in overrides.items():
        if key in CONFIG_FIELDS:
            config_overrides[key] = value
        elif key in valid_knobs:
            knob_overrides[key] = value
        else:
            raise UnknownOverrideError(
                f"experiment {spec.name!r} accepts no override {key!r}; "
                f"config fields: {sorted(CONFIG_FIELDS)}; "
                f"knobs: {sorted(valid_knobs) or '(none)'}"
            )
    return config_overrides, knob_overrides


def _check_knob_values(
    experiment: str,
    defaults: Mapping[str, object],
    overrides: Mapping[str, object],
) -> None:
    """Reject knob overrides whose shape cannot match the default's.

    The default value of every knob documents its expected shape; an
    override must be a sequence where the default is a sequence, a string
    where it is a string, and a number where it is a number.  This turns
    typo'd CLI input (``--set top=2.5`` on an integer knob) into an
    :class:`InvalidOverrideError` instead of a deep TypeError mid-run.
    """
    def scalar_ok(value: object, model: object) -> bool:
        if isinstance(model, bool):
            return isinstance(value, bool)
        if isinstance(model, int):
            return isinstance(value, int) and not isinstance(value, bool)
        if isinstance(model, float):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(model, str):
            return isinstance(value, str)
        return True

    for key, value in overrides.items():
        default = defaults[key]
        if isinstance(default, tuple):
            # Elements must match the default's element shape too, so a
            # 10.5 in an integer axis fails here, not mid-build.
            ok = isinstance(value, tuple) and (
                not default
                or all(scalar_ok(item, default[0]) for item in value)
            )
        else:
            ok = scalar_ok(value, default)
        if not ok:
            raise InvalidOverrideError(
                f"experiment {experiment!r} knob {key!r} expects a value "
                f"like {default!r}, got {value!r}"
            )


def execute(
    name: str,
    config: Optional[ExperimentConfig] = None,
    knobs: Optional[Mapping[str, object]] = None,
    jobs: int = 1,
) -> object:
    """The shared driver: build the grid, sweep it, summarise.

    ``config`` replaces the spec's default config wholesale (legacy module
    ``run(config=...)`` wrappers use this); ``knobs`` overrides individual
    experiment knobs and must name existing ones.
    """
    spec = get_experiment(name)
    config = config if config is not None else spec.config
    merged = dict(spec.knobs)
    if knobs:
        unknown = sorted(set(knobs) - set(merged))
        if unknown:
            raise UnknownOverrideError(
                f"experiment {spec.name!r} has no knob(s) {unknown}; "
                f"knobs: {sorted(merged) or '(none)'}"
            )
        overrides = _normalise_knobs(dict(knobs))
        _check_knob_values(spec.name, merged, overrides)
        merged.update(overrides)
    grid = spec.build_grid(config, merged)
    sweep = SweepRunner(jobs=jobs).run(list(grid.points), dict(grid.scenarios))
    context = ExperimentContext(
        config=config, knobs=merged, sweep=sweep, extras=dict(grid.context), jobs=jobs
    )
    return spec.summarise(context)


def run_experiment(
    name: str, overrides: Optional[Mapping[str, object]] = None, jobs: int = 1
) -> object:
    """Run a registered experiment with flat overrides.

    Override keys naming :class:`ExperimentConfig` fields replace scenario
    knobs (e.g. ``query_count``); keys naming experiment knobs replace those
    (e.g. ``fractions`` for ``cache_size``); anything else raises
    :class:`UnknownOverrideError`.
    """
    spec = get_experiment(name)
    config_overrides, knob_overrides = split_overrides(spec, dict(overrides or {}))
    if config_overrides:
        # Rebuild through the validating path so a non-numeric or
        # out-of-range value fails here with the offending key, not as a
        # TypeError deep inside trace generation.
        base = {
            f.name: getattr(spec.config, f.name)
            for f in dataclass_fields(ExperimentConfig)
        }
        config = config_from_mapping({**base, **config_overrides})
    else:
        config = spec.config
    return execute(name, config=config, knobs=knob_overrides, jobs=jobs)
