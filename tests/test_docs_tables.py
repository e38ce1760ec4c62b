"""The docs tables are regenerated from the registries and diffed.

``docs/experiments.md``, ``docs/policies.md`` and ``docs/architecture.md``
carry tables that restate a registry (the layer table restates
``tests/test_layers.py``).  Each is checked here by regenerating it from the registry it
restates and comparing line for line; on a mismatch the assertion message
*is* the regenerated block, ready to paste over the stale one.

The same file pins what is derived from the policy table (the name tuples
and the specs built by name), since those derivations are what the docs
tables print.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro import cli
from repro.cache.base import registry as eviction_registry
from repro.core.roster import POLICY_CLASSES
from repro.experiments.figures import FIGURES
from repro.network.link import NetworkLink
from repro.repository.catalog import sdss_catalog
from repro.repository.server import Repository
from repro.sim.runner import DEFAULT_POLICIES, SERVABLE_POLICIES, default_policy_specs
from tests.test_layers import layer_table

DOCS = Path(__file__).resolve().parents[1] / "docs"


def _summary(cls: type) -> str:
    """First docstring line of a class."""
    return (cls.__doc__ or "").strip().splitlines()[0]


def _source(cls: type) -> str:
    """``core/vcover.py`` for a class of ``repro.core.vcover``."""
    return "/".join(cls.__module__.split(".")[1:]) + ".py"


def policy_table() -> str:
    """Every ``--policy`` name, from the roster's policy table."""
    lines = ["| Name | Class | Module | Servable | Summary |", "|---|---|---|---|---|"]
    for name, cls in POLICY_CLASSES.items():
        servable = "yes" if name in SERVABLE_POLICIES else "no"
        lines.append(
            f"| `{name}` | `{cls.__name__}` | `{_source(cls)}` | {servable} | {_summary(cls)} |"
        )
    return "\n".join(lines)


def eviction_table() -> str:
    """Every ``VCoverConfig.eviction_policy`` name, from the eviction registry."""
    lines = ["| Name | Class | Module | Summary |", "|---|---|---|---|"]
    for name in eviction_registry.names():
        cls = type(eviction_registry.create(name))
        lines.append(f"| `{name}` | `{cls.__name__}` | `{_source(cls)}` | {_summary(cls)} |")
    return "\n".join(lines)


def claims_table() -> str:
    """Every claim of every figure row: paper band, source and tier-1 gate."""
    lines = [
        "| Figure | Claim | Paper | Source | Tier-1 gate |",
        "|---|---|---|---|---|",
    ]
    for row in FIGURES.values():
        scale = " ".join(f"`{key}={json.dumps(value)}`" for key, value in row.tier1.items())
        for claim in row.claims:
            lines.append(
                f"| {row.paper_ref} (`{row.name}`) | {claim.label} "
                f"| {claim.paper.describe(claim.fmt)} | {claim.source} "
                f"| {claim.gate.describe(claim.fmt)} at {scale} |"
            )
    return "\n".join(lines)


def _assert_block(page: str, marker: str, expected: str) -> None:
    """The text between ``<!-- marker -->`` and ``<!-- /marker -->`` is ``expected``."""
    text = (DOCS / page).read_text(encoding="utf-8")
    begin, end = f"<!-- {marker} -->\n", f"\n<!-- /{marker} -->"
    assert begin in text and end in text, f"docs/{page} lost its {marker!r} markers"
    found = text.split(begin, 1)[1].split(end, 1)[0]
    assert found == expected, (
        f"docs/{page}: the {marker!r} block is stale; replace it with:\n\n{expected}\n"
    )


class TestDocsTables:
    def test_experiments_table_matches_the_registry(self):
        expected = cli.format_experiment_table(markdown=True).splitlines()
        lines = (DOCS / "experiments.md").read_text(encoding="utf-8").splitlines()
        start = lines.index(expected[0])
        assert lines[start:start + len(expected)] == expected, (
            "docs/experiments.md: the experiment table is stale; replace it with:\n\n"
            + "\n".join(expected)
        )

    def test_claims_table_matches_the_figure_rows(self):
        _assert_block("experiments.md", "generated: figure claims", claims_table())

    def test_policy_table_matches_the_roster(self):
        _assert_block("policies.md", "generated: policy roster", policy_table())

    def test_eviction_table_matches_the_registry(self):
        _assert_block("policies.md", "generated: eviction policies", eviction_table())

    def test_layer_table_matches_the_layer_test(self):
        _assert_block("architecture.md", "generated: layers", layer_table())


class TestDerivedRosters:
    def test_name_tuples(self):
        assert DEFAULT_POLICIES == ("nocache", "replica", "benefit", "vcover", "soptimal")
        assert SERVABLE_POLICIES == ("nocache", "replica", "benefit", "vcover")

    @pytest.mark.parametrize("name", POLICY_CLASSES)
    def test_every_name_builds_its_class_through_a_pickled_spec(self, name):
        (spec,) = default_policy_specs(include=(name,))
        spec = pickle.loads(pickle.dumps(spec))
        catalog = sdss_catalog(object_count=6, scale=0.001, seed=1)
        policy = spec.factory(Repository(catalog), catalog.total_size * 0.3, NetworkLink())
        assert spec.name == name
        assert type(policy) is POLICY_CLASSES[name]
