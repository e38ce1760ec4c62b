"""The package layer order: every import between two packages points down.

:data:`LAYERS` declares the order of ``repro``'s packages once, bottom to
top; ``docs/architecture.md``'s layer table is generated from it
(``tests/test_docs_tables.py``).  A package may import from a package in a
lower row and from its own, never from a row above or beside it.  The
edges are read from the source, not from a running process: every
``import`` / ``from`` statement at any depth (function-level and
``TYPE_CHECKING`` imports included) and every module string of a package's
lazy ``_EXPORTS`` table, which imports on first access.  The root
``repro/__init__.py`` and ``repro/__main__.py`` are the entry points above
the table.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.lint.astutil import imported_names

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``repro``'s packages, bottom row first; each row may import the rows below.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("_compat", "_lazy"),
    ("repository", "lint"),
    ("cache", "flow", "network", "sky"),
    ("workload",),
    ("core",),
    ("sim",),
    ("experiments",),
    ("serve",),
    ("api",),
    ("cli",),
)

#: What each row holds, keyed by the row's first package (the docs table's text).
ROLES: Dict[str, str] = {
    "_compat": "pickling for slotted records · lazy package re-exports",
    "repository": "the server: objects, queries, updates · the AST linter",
    "cache": "object store, eviction · max-flow / vertex cover · traffic ledger · HTM",
    "workload": "traces, streams, scenario sources, generators, log parsers",
    "core": "policies: VCover, Benefit, yardsticks · offline optimum · latency model",
    "sim": "replay kernel · runner · fleets · sweeps · the Delta facade",
    "experiments": "scenario specs and ingestion · registry · figure rows · ablations",
    "serve": "the cache as a service: protocol · server · load harness",
    "api": "stable facade: list/run experiments · load/run/ingest scenarios",
    "cli": "the repro command line",
}

#: The one edge allowed up the table.  ``repro.topology.spec`` re-exports
#: ``repro.sim.multicache.TopologySpec`` for the frozen benchmark, which
#: imports it by that path; it goes when the benchmark imports it from
#: ``repro.sim``.
ALLOWED = {("topology", "sim")}

#: Modules above the table: they may import any package.
ENTRY_POINTS = ("__init__", "__main__")

RANK = {package: rank for rank, row in enumerate(LAYERS) for package in row}

#: Every module or package directly under ``repro``.
PACKAGES = {*RANK, *ENTRY_POINTS, "topology"}


def _exported_modules(tree: ast.Module) -> Dict[str, Tuple[int, str]]:
    """Name -> ``(line, module)`` of a package's lazy ``_EXPORTS`` table."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and any(getattr(target, "id", None) == "_EXPORTS" for target in node.targets)
        ):
            return {
                key.value: (value.lineno, value.value)
                for key, value in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant)
            }
    return {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def edges(root: Path) -> Iterator[Tuple[str, str, str]]:
    """``(from package, to package, "file:line")`` for every cross-package import.

    A name imported from ``repro`` itself is followed through the root's
    ``_EXPORTS`` to the package that defines it (``from repro import Delta``
    lands in ``sim``); any other root name (``__version__``) is no edge, as
    the root module is loaded before every module under it.
    """
    init = root / "repro" / "__init__.py"
    root_exports = _exported_modules(_parse(init)) if init.is_file() else {}
    for path in sorted((root / "repro").rglob("*.py")):
        relative = path.relative_to(root / "repro")
        source = relative.parts[0].removesuffix(".py")
        package = ".".join(("repro",) + relative.parts[:-1])
        tree = _parse(path)
        for line, target in [
            *imported_names(tree, package),
            *_exported_modules(tree).values(),
        ]:
            names = target.split(".")
            if names[0] != "repro" or len(names) < 2:
                continue
            if names[1] not in PACKAGES:
                if names[1] not in root_exports:
                    continue
                names = root_exports[names[1]][1].split(".")
            if names[1] != source:
                yield source, names[1], f"{relative}:{line}"


def violations(root: Path) -> List[str]:
    """Every edge that does not point strictly down :data:`LAYERS`."""
    found = []
    for source, destination, where in edges(root):
        if source in ENTRY_POINTS or (source, destination) in ALLOWED:
            continue
        if RANK.get(destination, len(LAYERS)) >= RANK.get(source, -1):
            found.append(f"{where}: repro.{source} -> repro.{destination}")
    return list(dict.fromkeys(found))


def layer_table() -> str:
    """The layer table of docs/architecture.md, top row first."""
    lines = ["| Layer | Packages | Holds |", "|---|---|---|"]
    for rank, row in reversed(list(enumerate(LAYERS, 1))):
        names = " ".join(f"`repro.{package}`" for package in row)
        lines.append(f"| {rank} | {names} | {ROLES[row[0]]} |")
    return "\n".join(lines)


def test_every_package_has_a_row():
    packages = {
        path.name.removesuffix(".py")
        for path in (SRC / "repro").iterdir()
        if path.suffix == ".py" or any(path.glob("*.py"))
    }
    assert packages == PACKAGES


def test_every_import_points_down_the_table():
    assert violations(SRC) == []


def test_a_scratch_up_edge_fails(tmp_path):
    """The check sees a module-level, a function-level, an ``_EXPORTS`` and a
    root-export up-edge, and takes none of the root's own names for one."""
    files = {
        "__init__.py": '_EXPORTS = {"Delta": "repro.sim.delta"}\n__version__ = "0"\n',
        "cache/store.py": "from repro import Delta, __version__\n",
        "core/__init__.py": '_EXPORTS = {"Thing": "repro.experiments.spec"}\n',
        "core/policy.py": "import repro.sim\n",
        "workload/trace.py": textwrap.dedent(
            """\
            def build():
                from repro.core import policy
                return policy
            """
        ),
    }
    for name, text in files.items():
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert violations(tmp_path) == [
        "cache/store.py:1: repro.cache -> repro.sim",
        "core/__init__.py:1: repro.core -> repro.experiments",
        "core/policy.py:1: repro.core -> repro.sim",
        "workload/trace.py:2: repro.workload -> repro.core",
    ]


@pytest.mark.parametrize(
    "statement, package, target",
    [
        ("import repro.sim.engine", "repro.core", "repro.sim.engine"),
        ("from repro.sim import engine", "repro.core", "repro.sim.engine"),
        ("from . import engine", "repro.sim", "repro.sim.engine"),
        ("from ..core import policy", "repro.sim", "repro.core.policy"),
    ],
)
def test_imported_names_resolves_each_form(statement, package, target):
    assert list(imported_names(ast.parse(statement), package)) == [(1, target)]
