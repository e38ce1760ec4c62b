"""Parallel sweep runner for multi-policy experiments.

Every experiment in the paper's evaluation -- the Figure 7/8 comparisons, the
ablations, the cache-size sweep -- replays the *same* trace against several
policies, or the same policy against several scenarios.  Each such
``(policy, cache size, workload, seed)`` combination is a *grid point*, and
the points are embarrassingly parallel: every run builds its own fresh
:class:`~repro.repository.server.Repository` and
:class:`~repro.network.link.NetworkLink`, so no state is shared between them.

This module exploits that.  A :class:`SweepRunner` fans a list of
:class:`SweepPoint`\\ s out over a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs=1`` degrades to a plain serial loop with identical results), collects
the per-point :class:`~repro.sim.results.RunResult`\\ s in grid order, and can
write one JSON artifact per point plus a manifest for offline analysis.

Scenarios are handed to workers as *sources* rather than built traces.  A
source is anything implementing the
:class:`~repro.workload.trace.ScenarioSource` contract --
``realise() -> (catalog, trace)`` plus ``cache_key()``:

* :class:`~repro.workload.trace.InlineScenario` wraps an already-built
  catalogue + trace (used when the caller wants several policies over one
  trace it already has);
* declarative recipes -- e.g. :class:`repro.experiments.spec.ScenarioSpec` --
  are rebuilt inside the worker from their (cheap, picklable) knobs, memoised
  per process via ``cache_key()`` so a worker builds each distinct scenario
  at most once.

Determinism: a point's outcome depends only on the point itself (its spec,
scenario source and cache size), never on scheduling, so ``jobs=4`` produces
byte-identical results to ``jobs=1``.  :func:`derive_seed` provides stable,
``PYTHONHASHSEED``-independent per-point seeds for grids that sweep seeds.
"""

from __future__ import annotations

import json
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.repository.objects import ObjectCatalog
from repro.sim.engine import EngineConfig
from repro.sim.multicache import TopologySpec, run_topology
from repro.sim.results import ComparisonResult, RunResult
from repro.sim.runner import PolicySpec, run_policy
from repro.workload.trace import ScenarioSource, Trace, TraceStream

#: Name of the scenario used when a sweep has only one.
DEFAULT_SCENARIO = "default"

#: Cache size used when a point sets neither fraction nor capacity (the
#: paper's default: 30 % of the server).
DEFAULT_CACHE_FRACTION = 0.3

#: Manifest file written next to the per-point artifacts.
MANIFEST_NAME = "manifest.json"


def derive_seed(base: int, *components: object) -> int:
    """A stable per-point seed derived from a base seed and grid coordinates.

    Uses CRC-32 over the stringified components, so the result is identical
    across processes and interpreter runs (``hash()`` is randomised by
    ``PYTHONHASHSEED`` and must not be used for this).
    """
    text = ":".join(str(part) for part in (base, *components))
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a policy over a scenario at a cache size.

    Parameters
    ----------
    key:
        Unique identifier within the sweep; also the artifact file stem.
    spec:
        The policy to run.  Must be picklable (see
        :func:`repro.sim.runner.default_policy_specs`).  For topology points
        this is the (uniform) site policy, so comparison slices keyed by
        policy name keep working.
    topology:
        Optional :class:`repro.sim.multicache.TopologySpec`.  When set, the
        point runs a multi-cache replay via
        :func:`repro.sim.multicache.run_topology` instead of a single-cache
        run; the recorded result is the fleet aggregate, with per-site
        traffic folded into ``policy_stats`` (per-site cache sizes come from
        the topology spec, so ``cache_fraction``/``cache_capacity`` are
        ignored).
    scenario:
        Name of the scenario source this point runs on (a key into the
        ``scenarios`` mapping given to :meth:`SweepRunner.run`).
    cache_fraction / cache_capacity:
        Cache size, either as a fraction of the catalogue's total size or as
        an absolute capacity in MB (the absolute value wins if both are set).
    engine:
        Engine configuration (sampling grid, measurement window).
    seed:
        Per-point seed recorded in results and artifacts.  Grids that sweep
        seeds encode the seed in the scenario source; this field exists so
        the provenance survives into the artifact.
    tags:
        Grid coordinates as ``((name, value), ...)`` pairs, e.g.
        ``(("fraction", 0.3),)``; used to regroup results after the sweep.
    streaming:
        When ``True`` the worker realises the scenario through
        :meth:`ScenarioSource.realise_stream` and replays the lazy source
        directly, never materialising the event list.  Results are
        byte-identical to the materialised replay (the equivalence tests pin
        this); only the memory profile differs.
    """

    key: str
    spec: PolicySpec
    scenario: str = DEFAULT_SCENARIO
    cache_fraction: Optional[float] = None
    cache_capacity: Optional[float] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    seed: int = 0
    tags: Tuple[Tuple[str, object], ...] = ()
    topology: Optional[TopologySpec] = None
    streaming: bool = False

    def tag(self, name: str, default: object = None) -> object:
        """The value of one grid coordinate (or ``default``)."""
        for tag_name, value in self.tags:
            if tag_name == name:
                return value
        return default

    def metadata(self) -> Dict[str, object]:
        """Flat point description used in artifacts and reports."""
        data: Dict[str, object] = {
            "key": self.key,
            "policy": self.spec.name,
            "scenario": self.scenario,
            "cache_fraction": self.cache_fraction,
            "cache_capacity": self.cache_capacity,
            "seed": self.seed,
            "tags": dict(self.tags),
        }
        if self.streaming:
            data["streaming"] = True
        if self.topology is not None:
            data["topology"] = self.topology.metadata()
        return data


@dataclass
class PointResult:
    """One grid point together with its completed run."""

    point: SweepPoint
    run: RunResult
    #: Statistics of the trace the point ran on (provenance).
    trace_description: Dict[str, float] = field(default_factory=dict)

    def payload(self) -> Dict[str, object]:
        """JSON-serialisable artifact content for this point."""
        return {
            **self.point.metadata(),
            "trace": dict(self.trace_description),
            "result": self.run.as_payload(),
        }


@dataclass
class SweepResult:
    """All grid points of one sweep, in grid order."""

    points: List[PointResult]
    #: Worker count the sweep ran with (1 = serial).
    jobs: int = 1
    #: Directory the per-point artifacts were written to (None = not written).
    artifact_dir: Optional[Path] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, key: str) -> PointResult:
        for result in self.points:
            if result.point.key == key:
                return result
        raise KeyError(key)

    def select(self, **tags: object) -> List[PointResult]:
        """Points whose tags match every given ``name=value`` pair."""
        return [
            result
            for result in self.points
            if all(result.point.tag(name) == value for name, value in tags.items())
        ]

    def comparison(
        self,
        trace_description: Optional[Dict[str, float]] = None,
        **tags: object,
    ) -> ComparisonResult:
        """A :class:`ComparisonResult` over the points matching ``tags``.

        Runs are keyed by policy name, so the selected points must contain
        each policy at most once (the usual one-scenario comparison slice).
        The trace description defaults to the one recorded with the selected
        points (they share a scenario in a valid slice).
        """
        selected = self.select(**tags)
        runs: Dict[str, RunResult] = {}
        for result in selected:
            name = result.point.spec.name
            if name in runs:
                raise ValueError(
                    f"tags {tags!r} select policy {name!r} more than once; "
                    "narrow the selection to one scenario slice"
                )
            runs[name] = result.run
        if trace_description is None:
            trace_description = selected[0].trace_description if selected else {}
        return ComparisonResult(runs=runs, trace_description=trace_description)

    def format_summary(self) -> str:
        """Fixed-width per-point summary table of the whole sweep."""
        lines = [
            f"sweep: {len(self.points)} points, jobs={self.jobs}",
            f"{'key':<28} {'policy':<12} {'traffic (MB)':>14} {'cache answers':>14}",
        ]
        for result in self.points:
            run = result.run
            lines.append(
                f"{result.point.key:<28} {run.policy_name:<12} "
                f"{run.measured_traffic:>14.1f} {run.cache_answer_fraction:>14.2%}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker-side machinery
# ----------------------------------------------------------------------
#: Scenario sources for the sweep currently executing in this process.
_WORKER_SCENARIOS: Dict[str, ScenarioSource] = {}
#: Scenarios realised in this process, memoised by their cache key.
_REALISED: Dict[object, Tuple[ObjectCatalog, Trace]] = {}
#: Trace descriptions memoised per build recipe (streaming sources would
#: otherwise regenerate the whole event stream once per grid point just to
#: recompute the same five summary numbers).
_DESCRIBED: Dict[object, Dict[str, float]] = {}


def _init_worker(scenarios: Mapping[str, ScenarioSource]) -> None:
    """Install the sweep's scenario table in a freshly started worker."""
    _WORKER_SCENARIOS.clear()
    _WORKER_SCENARIOS.update(scenarios)
    _REALISED.clear()
    _DESCRIBED.clear()


def _realise(
    source: ScenarioSource, streaming: bool = False
) -> Tuple[ObjectCatalog, TraceStream]:
    """Build (or fetch the memoised) catalogue + event source for one source.

    ``streaming=True`` realises through ``realise_stream()``; streaming and
    materialised realisations are memoised under distinct keys (a stream is
    cheap state, a trace is the built events).
    """
    build = source.realise_stream if streaming else source.realise
    cache_key = source.cache_key()
    if cache_key is None:
        return build()
    cache_key = ("stream", cache_key) if streaming else ("trace", cache_key)
    if cache_key not in _REALISED:
        _REALISED[cache_key] = build()
    return _REALISED[cache_key]


def _describe(source: ScenarioSource, trace: TraceStream) -> Dict[str, float]:
    """The trace's summary statistics, memoised per build recipe.

    Streaming and materialised realisations of one recipe describe
    identically (a pinned equivalence), so they share one memo entry; the
    description pass over a generated stream then runs once per worker
    instead of once per grid point.
    """
    cache_key = source.cache_key()
    if cache_key is None:
        return trace.describe()
    if cache_key not in _DESCRIBED:
        _DESCRIBED[cache_key] = trace.describe()
    return _DESCRIBED[cache_key]


def _run_point(
    index: int, point: SweepPoint
) -> Tuple[int, RunResult, Dict[str, float]]:
    """Execute one grid point (runs inside a worker process)."""
    source = _WORKER_SCENARIOS[point.scenario]
    catalog, trace = _realise(source, streaming=point.streaming)
    if point.topology is not None:
        topology_result = run_topology(
            point.topology, catalog, trace, engine_config=point.engine
        )
        return index, topology_result.aggregate, _describe(source, trace)
    capacity = point.cache_capacity
    if capacity is None:
        fraction = (
            DEFAULT_CACHE_FRACTION if point.cache_fraction is None else point.cache_fraction
        )
        capacity = catalog.total_size * fraction
    run = run_policy(point.spec, catalog, trace, capacity, engine_config=point.engine)
    return index, run, _describe(source, trace)


#: Progress callback signature: (points_done, points_total, finished point).
ProgressCallback = Callable[[int, int, PointResult], None]


class SweepRunner:
    """Fan grid points out over worker processes and collect the results.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs the points serially
        in-process; results are identical either way.
    output_dir:
        When given, one ``<point key>.json`` artifact is written per point,
        plus a ``manifest.json`` describing the sweep.
    progress:
        Optional callback invoked after every completed point with
        ``(done, total, point_result)``.  With ``jobs > 1`` it fires in
        completion order; the returned result list is always in grid order.
    """

    def __init__(
        self,
        jobs: int = 1,
        output_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._jobs = jobs
        self._output_dir = Path(output_dir) if output_dir is not None else None
        self._progress = progress

    @property
    def jobs(self) -> int:
        """Configured worker count."""
        return self._jobs

    def run(
        self,
        points: Sequence[SweepPoint],
        scenarios: Mapping[str, ScenarioSource],
    ) -> SweepResult:
        """Execute every grid point and return the results in grid order.

        Parameters
        ----------
        points:
            The grid.  Keys must be unique; every ``point.scenario`` must
            name an entry in ``scenarios``.
        scenarios:
            Scenario sources by name (any :class:`ScenarioSource`).
        """
        points = list(points)
        self._validate(points, scenarios)
        completed: List[Optional[PointResult]] = [None] * len(points)
        done = 0

        def record(index: int, run: RunResult, description: Dict[str, float]) -> None:
            nonlocal done
            completed[index] = PointResult(points[index], run, description)
            done += 1
            if self._progress is not None:
                self._progress(done, len(points), completed[index])

        if self._jobs == 1 or len(points) <= 1:
            _init_worker(scenarios)
            try:
                for index, point in enumerate(points):
                    record(*_run_point(index, point))
            finally:
                _init_worker({})
        else:
            workers = min(self._jobs, len(points))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(dict(scenarios),),
            ) as executor:
                futures = [
                    executor.submit(_run_point, index, point)
                    for index, point in enumerate(points)
                ]
                for future in as_completed(futures):
                    record(*future.result())

        result = SweepResult(points=list(completed), jobs=self._jobs)
        if self._output_dir is not None:
            result.artifact_dir = write_artifacts(result, self._output_dir)
        return result

    @staticmethod
    def _validate(
        points: Sequence[SweepPoint], scenarios: Mapping[str, ScenarioSource]
    ) -> None:
        seen: Dict[str, int] = {}
        for point in points:
            if point.key in seen:
                raise ValueError(f"duplicate sweep point key {point.key!r}")
            seen[point.key] = 1
            if point.scenario not in scenarios:
                raise ValueError(
                    f"point {point.key!r} references unknown scenario "
                    f"{point.scenario!r}; known: {sorted(scenarios)}"
                )


# ----------------------------------------------------------------------
# JSON artifacts
# ----------------------------------------------------------------------
def write_artifacts(result: SweepResult, directory: Union[str, Path]) -> Path:
    """Write one JSON artifact per point plus a manifest; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    keys = []
    for point_result in result.points:
        path = directory / f"{point_result.point.key}.json"
        path.write_text(
            json.dumps(point_result.payload(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        keys.append(point_result.point.key)
    manifest = {
        "points": keys,
        "jobs": result.jobs,
        "completed": len(keys),
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return directory


def load_artifacts(directory: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Load a sweep's artifacts back as ``{point key: payload}``.

    Reads the manifest for the point list, so stray files in the directory
    are ignored and a truncated sweep is detected (missing files raise).
    """
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    payloads: Dict[str, Dict[str, object]] = {}
    for key in manifest["points"]:
        payloads[key] = json.loads(
            (directory / f"{key}.json").read_text(encoding="utf-8")
        )
    return payloads
