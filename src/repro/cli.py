"""Command-line interface for the Delta reproduction.

The CLI is a thin veneer over :mod:`repro.api`, the library's stable facade;
it exists so the system can be exercised without writing Python.  Invoke it
as ``python -m repro`` (or ``python -m repro.cli``).

Registry-driven subcommands:

``experiment list``
    Enumerate every registered experiment (``--markdown`` emits the table
    used in ``docs/experiments.md``).

``experiment run <name>``
    Run a registered experiment; ``--set key=value`` overrides scenario
    config fields or experiment knobs, ``--jobs N`` fans the experiment's
    grid out over worker processes.

``scenario validate <file>``
    Check a JSON/TOML scenario file against the scenario schema.

``scenario run <file>``
    Run a scenario file against several policies and print the comparison.

``ingest <file>``
    Read a CSV/JSONL/parquet query log, fit the scenario knobs to it
    (Zipf exponent, query/update mix, phase boundaries, tolerance mix) and
    write the calibrated, replayable scenario JSON.

Classic workflows (all re-expressed over the facade):

``generate-trace``
    Build an SDSS-style interleaved trace and write it to a JSONL file.

``run``
    Replay a trace (generated on the fly or loaded from JSONL) against one
    policy and print the traffic report.

``compare``
    Run several policies over the same scenario and print the Figure 7(b)
    style comparison table (``--jobs N`` runs the policies in parallel).

``sweep``
    Fan a ``policy x cache-fraction x seed`` grid out over worker processes
    (``--jobs N``), print a per-point summary, and optionally write one JSON
    artifact per grid point plus a manifest (``--out DIR``).

``topology``
    Replay the scenario against a fleet of ``--sites N`` caches sharing one
    repository, one multi-cache run per ``--policies`` entry.

``lint``
    Run the repro static analyser over the tree (``repro lint src tests``):
    determinism rules (DET001-DET003), contract rules (PICK001, SLOT001)
    and async-safety (ASYNC001).  Exit 1 on findings, 2 on bad arguments;
    ``--format json`` emits the machine-readable report.

``serve``
    Boot the asyncio cache-middleware server: one policy + repository +
    network-link stack behind a single-writer event loop, speaking the
    NDJSON protocol of :mod:`repro.serve.protocol` over TCP.

``loadgen``
    Drive a served cache with ``--clients N`` closed-loop clients replaying
    a generated scenario trace (in-process server by default, or
    ``--connect HOST:PORT`` against a running ``repro serve``), print
    measured vs model-predicted latency percentiles, and optionally write
    the ``repro.bench/v2`` payload (``--out``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

# Only what the parser needs is imported here; each handler imports its own
# dependencies, so a command loads only the modules it runs.
from repro import __version__
from repro.experiments.config import WORKLOAD_MODELS, ExperimentConfig
from repro.sim.runner import DEFAULT_POLICIES, SERVABLE_POLICIES, run_policy
from repro.workload.partition import PARTITION_STRATEGIES
from repro.workload.trace import Trace

if TYPE_CHECKING:
    from repro.experiments.spec import ScenarioSpec
    from repro.sim.results import ComparisonResult


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every subcommand that builds a scenario."""
    parser.add_argument("--objects", type=int, default=68,
                        help="number of spatial data objects (default: 68)")
    parser.add_argument("--queries", type=int, default=4000,
                        help="number of query events (default: 4000)")
    parser.add_argument("--updates", type=int, default=4000,
                        help="number of update events (default: 4000)")
    parser.add_argument("--cache", type=float, default=0.3,
                        help="cache size as a fraction of the server (default: 0.3)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")


def _at_least_one(flag: str):
    """Argparse type factory for counts that must be >= 1 (--jobs, --sites)."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
        if number < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be at least 1")
        return number

    return parse


_positive_jobs = _at_least_one("--jobs")
_positive_sites = _at_least_one("--sites")


def _unique(values: Sequence) -> List:
    """Drop duplicates, preserving first-seen order (grid axes)."""
    return list(dict.fromkeys(values))


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The scenario config described by the shared flags."""
    return ExperimentConfig(
        object_count=args.objects,
        query_count=args.queries,
        update_count=args.updates,
        cache_fraction=args.cache,
        seed=args.seed,
    )


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The declarative scenario spec described by the shared flags."""
    from repro.experiments.spec import ScenarioSpec

    return ScenarioSpec(_config_from_args(args))


def _parse_overrides(assignments: Sequence[str]) -> Dict[str, object]:
    """Parse ``--set key=value`` pairs (values are JSON, falling back to str)."""
    from repro.experiments.spec import ScenarioError

    overrides: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ScenarioError(
                f"malformed --set {assignment!r}; expected key=value"
            )
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _print_comparison(comparison: ComparisonResult) -> None:
    """Comparison table plus the headline ratios, as `compare` prints them."""
    print(comparison.as_table())
    for key, ratio in comparison.headline_ratios().items():
        print(f"{key:>24}: {ratio:.2f}")


# ----------------------------------------------------------------------
# Registry-driven subcommands
# ----------------------------------------------------------------------
def format_experiment_table(markdown: bool = False) -> str:
    """The registered experiments as a table (markdown = docs format)."""
    from repro import api

    specs = api.experiment_specs()
    if markdown:
        lines = [
            "| Experiment | Paper artifact | Default grid knobs | Description |",
            "|---|---|---|---|",
        ]
        for spec in specs:
            knobs = ", ".join(f"`{key}`" for key in spec.knobs) or "—"
            lines.append(
                f"| `{spec.name}` | {spec.paper_ref or '—'} | {knobs} | {spec.title} |"
            )
        return "\n".join(lines)
    lines = [f"{'name':<12} {'paper artifact':<16} title"]
    for spec in specs:
        lines.append(f"{spec.name:<12} {spec.paper_ref or '-':<16} {spec.title}")
    return "\n".join(lines)


def _cmd_experiment_list(args: argparse.Namespace) -> int:
    print(format_experiment_table(markdown=args.markdown))
    return 0


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.registry import UnknownExperimentError, UnknownOverrideError
    from repro.experiments.spec import ScenarioError

    try:
        overrides = _parse_overrides(args.set or [])
        result = api.run_experiment(args.name, overrides=overrides, jobs=args.jobs)
    except (UnknownExperimentError, UnknownOverrideError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(api.format_result(args.name, result))
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.spec import ScenarioError

    try:
        spec = api.load_scenario(args.file)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = spec.config
    print(f"scenario {spec.name!r} is valid")
    print(f"  objects      : {config.object_count}")
    print(f"  events       : {config.total_events} "
          f"({config.query_count} queries, {config.update_count} updates)")
    print(f"  server size  : {config.server_size:.1f} MB")
    print(f"  cache        : {config.cache_fraction:.0%} of the server")
    print(f"  seed         : {config.seed}")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.spec import ScenarioError

    try:
        spec = api.load_scenario(args.file)
        policies = _unique(args.policies) if args.policies else None
        comparison = api.run_scenario(
            spec, policies=policies, jobs=args.jobs, streaming=args.streaming
        )
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_comparison(comparison)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro import api
    from repro.workload.ingest import IngestError

    try:
        spec, calibration = api.ingest_scenario(args.file, name=args.name)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out if args.out is not None else Path(f"{Path(args.file).stem}.scenario.json")
    api.save_scenario(spec, out)
    print(f"ingested {args.file} -> scenario {spec.name!r}")
    print(calibration.report())
    print(f"wrote {out}")
    print(f"replay with: repro scenario run {out} --streaming")
    return 0


# ----------------------------------------------------------------------
# Classic subcommands (re-expressed over the facade)
# ----------------------------------------------------------------------
def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from repro.experiments import fig7a

    scenario = _spec_from_args(args).build()
    scenario.trace.to_jsonl(args.out)
    stats = scenario.trace.describe()
    print(f"wrote {int(stats['events'])} events to {args.out}")
    print(f"  queries: {int(stats['queries'])} ({stats['total_query_cost']:.1f} MB of results)")
    print(f"  updates: {int(stats['updates'])} ({stats['total_update_cost']:.1f} MB of inserts)")
    if args.characterise:
        print()
        print(fig7a.format_report(fig7a.characterise_trace(scenario.trace)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = spec.config
    scenario = spec.build()
    trace = Trace.from_jsonl(args.trace) if args.trace is not None else scenario.trace
    (policy_spec,) = config.policy_specs(include=(args.policy,))
    result = run_policy(
        policy_spec,
        scenario.catalog,
        trace,
        cache_capacity=scenario.cache_capacity,
        engine_config=config.engine_config(),
    )
    print(f"policy           : {result.policy_name}")
    print(f"events processed : {result.events_processed}")
    print(f"cache answers    : {result.cache_answer_fraction:.1%}")
    print(f"total traffic    : {result.total_traffic:.1f} MB")
    for mechanism, value in result.traffic_by_mechanism.items():
        print(f"  {mechanism:<16}: {value:.1f} MB")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro import api

    spec = _spec_from_args(args)
    policies = _unique(args.policies) if args.policies else DEFAULT_POLICIES
    comparison = api.run_scenario(spec, policies=policies, jobs=args.jobs)
    _print_comparison(comparison)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.spec import ScenarioSpec
    from repro.sim.sweep import PointResult, SweepPoint, SweepRunner

    config = _config_from_args(args)
    policies = _unique(args.policies) if args.policies else DEFAULT_POLICIES
    fractions = (
        _unique(args.cache_fractions) if args.cache_fractions
        else (config.cache_fraction,)
    )
    seeds = _unique(args.seeds) if args.seeds else (config.seed,)
    specs = config.policy_specs(include=policies)
    engine = config.engine_config()

    scenarios = {
        f"seed{seed}": ScenarioSpec(config.scaled(seed=seed), name=f"seed{seed}")
        for seed in seeds
    }
    # repr() is a round-trippable float encoding, so distinct fractions can
    # never collide into one key (unlike %g, which rounds to 6 digits).
    points = [
        SweepPoint(
            key=f"{spec.name}-c{fraction!r}-s{seed}",
            spec=spec,
            scenario=f"seed{seed}",
            cache_fraction=fraction,
            engine=engine,
            seed=seed,
            tags=(("fraction", fraction), ("seed", seed)),
        )
        for seed in seeds
        for fraction in fractions
        for spec in specs
    ]

    def progress(done: int, total: int, result: PointResult) -> None:
        print(
            f"[{done}/{total}] {result.point.key}: "
            f"{result.run.measured_traffic:.1f} MB measured",
            file=sys.stderr,
        )

    runner = SweepRunner(jobs=args.jobs, output_dir=args.out, progress=progress)
    result = runner.run(points, scenarios)
    print(result.format_summary())
    if result.artifact_dir is not None:
        print(f"wrote {len(result)} artifacts + manifest to {result.artifact_dir}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so the classic subcommands never pay for rule loading.
    from repro.lint import LintInputError, all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<9} [{rule.severity}] {rule.title}")
        return 0

    try:
        report = run_lint(args.paths, rule=args.rule)
    except LintInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(report.format_json())
    else:
        output = report.format_text()
        if output:
            print(output)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so no other command pays for asyncio and the server.
    # The boot builds only the catalogue (no trace), and imports neither
    # numpy, the experiment registry nor the sweep runner: see "Import
    # discipline" in docs/architecture.md.
    import asyncio

    from repro.experiments.config import build_catalog
    from repro.serve.server import CacheServer, install_uvloop

    config = _config_from_args(args).scaled(workload_model=args.model)
    (spec,) = config.policy_specs(include=(args.policy,))
    catalog = build_catalog(config)
    server = CacheServer(
        catalog,
        spec,
        catalog.total_size * config.cache_fraction,
        host=args.host,
        port=args.port,
    )
    uvloop_active = install_uvloop()

    async def _serve() -> None:
        await server.start()
        print(
            f"serving policy={args.policy} on {server.host}:{server.port} "
            f"(objects={args.objects}, seed={args.seed}, "
            f"uvloop={'on' if uvloop_active else 'off'})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.network.latency import LatencyModel
    from repro.serve.client import ServeError
    from repro.serve.harness import format_load_report, run_loadgen

    connect = None
    if args.connect is not None:
        host, sep, port = args.connect.rpartition(":")
        if not sep or not host or not port.isdigit():
            print(
                f"error: --connect expects HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 2
        connect = (host, int(port))
    config = _config_from_args(args).scaled(workload_model=args.model)
    try:
        report, payload = run_loadgen(
            config=config,
            policy=args.policy,
            clients=args.clients,
            connect=connect,
            latency_model=LatencyModel(),
        )
    except (ConnectionError, OSError, ServeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_load_report(report))
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote loadgen payload to {args.out}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.sim.sweep import SweepPoint, SweepRunner
    from repro.topology.spec import TopologySpec

    spec = _spec_from_args(args)
    config = spec.config
    if args.sites > args.objects:
        # Both strategies need at least one object per site (region would
        # raise deep in the partitioner, affinity would leave sites empty).
        print(
            f"error: --sites {args.sites} exceeds the object count "
            f"({args.objects}); every site needs at least one object",
            file=sys.stderr,
        )
        return 2
    policies = _unique(args.policies) if args.policies else ("vcover", "nocache")
    specs = config.policy_specs(include=policies)
    engine = config.engine_config()
    points = [
        SweepPoint(
            key=f"{policy_spec.name}-x{args.sites}",
            spec=policy_spec,
            engine=engine,
            seed=config.seed,
            tags=(("sites", args.sites), ("policy", policy_spec.name)),
            topology=TopologySpec.uniform(
                policy_spec,
                args.sites,
                cache_fraction=config.cache_fraction,
                strategy=args.strategy,
            ),
        )
        for policy_spec in specs
    ]
    scenarios = {"default": spec}
    runner = SweepRunner(jobs=args.jobs, output_dir=args.out)
    result = runner.run(points, scenarios)

    print(f"topology: {args.sites} sites, strategy={args.strategy}")
    print(f"{'policy':<12} {'site':<10} {'traffic (MB)':>14} {'cache answers':>14}")
    for point_result in result.points:
        run = point_result.run
        stats = run.policy_stats
        for site in range(args.sites):
            queries = int(
                stats[f"site{site}_queries_answered_at_cache"]
                + stats[f"site{site}_queries_shipped"]
            )
            fraction = (
                stats[f"site{site}_queries_answered_at_cache"] / queries
                if queries
                else 0.0
            )
            print(
                f"{point_result.point.spec.name:<12} site {site:<5} "
                f"{stats[f'site{site}_measured_traffic']:>14.1f} {fraction:>14.2%}"
            )
        print(
            f"{point_result.point.spec.name:<12} {'aggregate':<10} "
            f"{run.measured_traffic:>14.1f} {run.cache_answer_fraction:>14.2%}"
        )
    if result.artifact_dir is not None:
        print(f"wrote {len(result)} artifacts + manifest to {result.artifact_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Delta dynamic data middleware cache (Middleware 2010)"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiment = subparsers.add_parser(
        "experiment", help="list or run registered experiments"
    )
    experiment_actions = experiment.add_subparsers(dest="action", required=True)

    experiment_list = experiment_actions.add_parser(
        "list", help="enumerate the experiment registry"
    )
    experiment_list.add_argument("--markdown", action="store_true",
                                 help="emit the docs/experiments.md table")
    experiment_list.set_defaults(handler=_cmd_experiment_list)

    experiment_run = experiment_actions.add_parser(
        "run", help="run one registered experiment"
    )
    experiment_run.add_argument("name", help="experiment name (see 'experiment list')")
    experiment_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                                help="override a scenario config field or "
                                     "experiment knob (repeatable; values are JSON)")
    experiment_run.add_argument("--jobs", type=_positive_jobs, default=1,
                                help="worker processes for the experiment grid "
                                     "(default: 1)")
    experiment_run.set_defaults(handler=_cmd_experiment_run)

    scenario = subparsers.add_parser(
        "scenario", help="validate or run declarative scenario files"
    )
    scenario_actions = scenario.add_subparsers(dest="action", required=True)

    scenario_validate = scenario_actions.add_parser(
        "validate", help="check a JSON/TOML scenario file"
    )
    scenario_validate.add_argument("file", type=Path, help="scenario file path")
    scenario_validate.set_defaults(handler=_cmd_scenario_validate)

    scenario_run = scenario_actions.add_parser(
        "run", help="run a scenario file against several policies"
    )
    scenario_run.add_argument("file", type=Path, help="scenario file path")
    scenario_run.add_argument("--policies", nargs="*", choices=DEFAULT_POLICIES,
                              default=None,
                              help="subset of policies to run (default: all five)")
    scenario_run.add_argument("--streaming", action="store_true",
                              help="replay through the streaming trace pipeline "
                                   "(constant memory, byte-identical results)")
    scenario_run.add_argument("--jobs", type=_positive_jobs, default=1,
                              help="worker processes for the per-policy runs "
                                   "(default: 1)")
    scenario_run.set_defaults(handler=_cmd_scenario_run)

    ingest = subparsers.add_parser(
        "ingest", help="calibrate a scenario from a CSV/JSONL/parquet query log"
    )
    ingest.add_argument("file", type=Path, help="query log file path")
    ingest.add_argument("--out", type=Path, default=None,
                        help="output scenario JSON path "
                             "(default: <log stem>.scenario.json)")
    ingest.add_argument("--name", default=None,
                        help="scenario name (default: the log file stem)")
    ingest.set_defaults(handler=_cmd_ingest)

    generate = subparsers.add_parser(
        "generate-trace", help="generate an SDSS-style trace and write it as JSONL"
    )
    _add_scenario_arguments(generate)
    generate.add_argument("--out", type=Path, required=True, help="output JSONL path")
    generate.add_argument("--characterise", action="store_true",
                          help="also print the Figure 7(a) characterisation")
    generate.set_defaults(handler=_cmd_generate_trace)

    run = subparsers.add_parser("run", help="replay a trace against one policy")
    _add_scenario_arguments(run)
    run.add_argument("--policy", choices=DEFAULT_POLICIES, default="vcover",
                     help="decision policy (default: vcover)")
    run.add_argument("--trace", type=Path, default=None,
                     help="optional JSONL trace to replay instead of generating one")
    run.set_defaults(handler=_cmd_run)

    compare = subparsers.add_parser("compare", help="compare several policies")
    _add_scenario_arguments(compare)
    compare.add_argument("--policies", nargs="*", choices=DEFAULT_POLICIES, default=None,
                         help="subset of policies to run (default: all five)")
    compare.add_argument("--jobs", type=_positive_jobs, default=1,
                         help="worker processes for the per-policy runs (default: 1)")
    compare.set_defaults(handler=_cmd_compare)

    sweep = subparsers.add_parser(
        "sweep", help="run a policy x cache-fraction x seed grid in parallel"
    )
    _add_scenario_arguments(sweep)
    sweep.add_argument("--policies", nargs="*", choices=DEFAULT_POLICIES, default=None,
                       help="policies on the grid (default: all five)")
    sweep.add_argument("--cache-fractions", nargs="*", type=float, default=None,
                       help="cache fractions on the grid (default: the --cache value)")
    sweep.add_argument("--seeds", nargs="*", type=int, default=None,
                       help="workload seeds on the grid (default: the --seed value)")
    sweep.add_argument("--jobs", type=_positive_jobs, default=1,
                       help="worker processes for the grid points (default: 1)")
    sweep.add_argument("--out", type=Path, default=None,
                       help="directory for one JSON artifact per grid point")
    sweep.set_defaults(handler=_cmd_sweep)

    topology = subparsers.add_parser(
        "topology", help="replay a fleet of N caches sharing one repository"
    )
    _add_scenario_arguments(topology)
    topology.add_argument("--sites", type=_positive_sites, default=2,
                          help="number of cache sites in the fleet (default: 2)")
    topology.add_argument("--strategy", choices=PARTITION_STRATEGIES, default="region",
                          help="object-to-site assignment strategy (default: region)")
    topology.add_argument("--policies", nargs="*", choices=DEFAULT_POLICIES, default=None,
                          help="policies to run, one fleet each (default: vcover nocache)")
    topology.add_argument("--jobs", type=_positive_jobs, default=1,
                          help="worker processes for the per-policy fleets (default: 1)")
    topology.add_argument("--out", type=Path, default=None,
                          help="directory for one JSON artifact per fleet")
    topology.set_defaults(handler=_cmd_topology)

    lint = subparsers.add_parser(
        "lint",
        help="run the repro static analyser (determinism & contract rules)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"], metavar="PATH",
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--rule", default=None, metavar="ID",
        help="narrow the run to one rule id (e.g. DET001)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    serve = subparsers.add_parser(
        "serve",
        help="serve a policy-fronted cache over TCP (NDJSON protocol)",
    )
    _add_scenario_arguments(serve)
    serve.add_argument("--model", choices=WORKLOAD_MODELS, default="evolving",
                       help="workload model label the scenario declares "
                            "(default: evolving)")
    serve.add_argument("--policy", choices=SERVABLE_POLICIES, default="vcover",
                       help="policy to serve; soptimal is not servable -- it "
                            "prepares offline over the full trace "
                            "(default: vcover)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7710,
                       help="listen port; 0 picks an ephemeral port "
                            "(default: 7710)")
    serve.set_defaults(handler=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a served cache with N closed-loop clients and record "
             "latency percentiles",
    )
    _add_scenario_arguments(loadgen)
    loadgen.add_argument("--model", choices=WORKLOAD_MODELS, default="evolving",
                         help="workload model for the generated trace "
                              "(default: evolving)")
    loadgen.add_argument("--policy", choices=SERVABLE_POLICIES, default="vcover",
                         help="policy the in-process server runs; ignored "
                              "with --connect (default: vcover)")
    loadgen.add_argument("--clients", type=_at_least_one("--clients"), default=4,
                         help="concurrent closed-loop clients (default: 4)")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="drive an already-running `repro serve` process "
                              "(must be built from the same scenario flags) "
                              "instead of booting an in-process server")
    loadgen.add_argument("--out", type=Path, default=None,
                         help="write the repro.bench/v2 payload (measured "
                              "p50/p99/p999 plus model predictions) to this "
                              "JSON file")
    loadgen.set_defaults(handler=_cmd_loadgen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
