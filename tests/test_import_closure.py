"""What a process imports: ``repro serve`` boots on the serve stack alone.

A restarted cache is back on line when ``repro serve`` prints its
``serving policy=`` line, and almost all of the time until then is imports.
These tests pin the boot's import closure from a real ``python -X importtime``
child, and pin that the experiment listing does not depend on which
experiment module a process happened to import first (the registry fills on
its first read or write, not on package import).
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Set

import pytest

import repro
from repro import api

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a serve boot must not import: the server never calls them.
NOT_AT_BOOT = (
    "numpy",
    "repro.experiments.registry",
    "repro.sim.sweep",
    "repro.serve.harness",
    "repro.serve.equivalence",
    "repro.serve.client",
    "repro.workload.fuzz",
    "repro.workload.ingest",
    "repro.sky",
    "repro.sim.delta",
    "repro.core.offline",
    "repro.core.latency",
)

#: ``repro experiment list`` order (docs/experiments.md's table follows it).
LISTING = [
    "ablations", "cache_size", "fig7a", "fig7b", "fig8a", "fig8b",
    "headline", "multisite", "flash_crowd", "diurnal", "update_storm",
    "cache_adversary", "warmup",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _imported(lines: List[str]) -> Set[str]:
    """Module names from ``-X importtime`` lines (``... | cumulative | name``)."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in lines
        if line.startswith("import time:") and "|" in line
    }


def _serve_boot_imports() -> Set[str]:
    """Every module a ``repro serve`` child imported before its serving line."""
    child = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve",
         "--objects", "16", "--queries", "50", "--updates", "50", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_env(),
    )
    watchdog = threading.Timer(60.0, child.kill)
    watchdog.start()
    lines: List[str] = []
    try:
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("serving policy="):
                break
            lines.append(line)
        else:
            pytest.fail("repro serve exited before serving:\n" + "".join(lines[-20:]))
        child.send_signal(signal.SIGINT)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            # A shell that started the suite in the background leaves SIGINT
            # ignored in its children; the imports are recorded either way.
            child.kill()
            child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    return _imported(lines)


def test_serve_boot_imports_only_the_serve_stack():
    imported = _serve_boot_imports()
    assert "repro.serve.server" in imported  # the probe read real importtime lines
    loaded = sorted(
        name for name in imported
        if any(name == banned or name.startswith(banned + ".") for banned in NOT_AT_BOOT)
    )
    assert loaded == []


def test_version_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "--version"],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr.splitlines())
    assert "repro.cli" in imported
    assert "numpy" not in imported


def test_listing_order():
    assert api.list_experiments() == LISTING


@pytest.mark.parametrize("first", ["fig7a", "warmup", "figures"])
def test_listing_order_does_not_depend_on_import_order(first):
    script = (
        f"import json, repro.experiments.{first}\n"
        "from repro import api\n"
        "print(json.dumps(api.list_experiments()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == LISTING


def _lazy_packages() -> List[str]:
    """Every ``repro`` package whose ``__init__`` re-exports through ``_EXPORTS``."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "_EXPORTS")]


@pytest.mark.parametrize("package", _lazy_packages())
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    assert all(name in module.__all__ for name in module._EXPORTS)
    for name, source in module._EXPORTS.items():
        value = getattr(module, name)
        assert value is importlib.import_module(source) or value is getattr(
            importlib.import_module(source), name
        ), name


def test_every_scenario_model_is_exported_by_workload():
    import repro.workload
    from repro.workload.scenarios import STREAM_CLASSES

    for stream_class in STREAM_CLASSES.values():
        assert getattr(repro.workload, stream_class.__name__) is stream_class
