"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__, api
from repro.cli import build_parser, main
from repro.workload.fuzz import load_composition
from repro.workload.trace import Trace

#: Small scenario arguments shared by the CLI tests to keep them fast.
SMALL = ["--objects", "20", "--queries", "400", "--updates", "400", "--seed", "3"]

#: --set overrides producing an equally small registry experiment run.
SMALL_SET = ["--set", "object_count=20", "--set", "query_count=400",
             "--set", "update_count=400"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "oracle"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.objects == 68
        assert args.cache == pytest.approx(0.3)


class TestGenerateTrace:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["generate-trace", *SMALL, "--out", str(out)])
        assert code == 0
        assert out.exists()
        trace = Trace.from_jsonl(out)
        assert len(trace) == 800
        captured = capsys.readouterr().out
        assert "wrote 800 events" in captured

    def test_characterise_flag(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["generate-trace", *SMALL, "--out", str(out), "--characterise"])
        assert "query hotspots" in capsys.readouterr().out


class TestRun:
    def test_run_generated_scenario(self, capsys):
        code = main(["run", *SMALL, "--policy", "nocache"])
        assert code == 0
        output = capsys.readouterr().out
        assert "policy           : nocache" in output
        assert "total traffic" in output

    def test_run_from_trace_file(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["generate-trace", *SMALL, "--out", str(out)])
        capsys.readouterr()
        code = main(["run", *SMALL, "--policy", "vcover", "--trace", str(out)])
        assert code == 0
        assert "query_shipping" in capsys.readouterr().out


class TestCompare:
    def test_compare_subset_of_policies(self, capsys):
        code = main(["compare", *SMALL, "--policies", "nocache", "vcover"])
        assert code == 0
        output = capsys.readouterr().out
        assert "nocache" in output and "vcover" in output
        assert "nocache_over_vcover" in output

    def test_compare_default_runs_all(self, capsys):
        code = main(["compare", *SMALL])
        assert code == 0
        output = capsys.readouterr().out
        for policy in ("nocache", "replica", "benefit", "vcover", "soptimal"):
            assert policy in output


class TestSweep:
    def test_sweep_grid_writes_one_artifact_per_point(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main([
            "sweep", "--objects", "16", "--queries", "300", "--updates", "300",
            "--policies", "nocache", "vcover", "--cache-fractions", "0.2", "0.4",
            "--seeds", "3", "5", "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        artifacts = sorted(path.name for path in out.glob("*.json"))
        assert "manifest.json" in artifacts
        assert len(artifacts) == 2 * 2 * 2 + 1  # policy x fraction x seed + manifest
        output = capsys.readouterr().out
        assert "sweep: 8 points, jobs=2" in output
        assert "wrote 8 artifacts" in output

    def test_sweep_defaults_to_scenario_cache_and_seed(self, capsys):
        code = main(["sweep", *SMALL, "--policies", "nocache"])
        assert code == 0
        assert "sweep: 1 points, jobs=1" in capsys.readouterr().out

    def test_compare_with_jobs_flag(self, capsys):
        code = main(["compare", *SMALL, "--policies", "nocache", "vcover",
                     "--jobs", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "nocache" in output and "vcover" in output

    def test_sweep_deduplicates_grid_axes(self, capsys):
        code = main(["sweep", *SMALL, "--policies", "nocache", "nocache",
                     "--seeds", "3", "3"])
        assert code == 0
        assert "sweep: 1 points" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--jobs", "0"])


class TestInvalidValues:
    """A flag value the scenario config rejects exits 2 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--objects", "0"],
            ["compare", "--cache", "0"],
            ["generate-trace", "--objects", "0", "--out", "never-written.jsonl"],
            ["serve", "--objects", "0"],
            ["loadgen", "--cache", "0"],
            ["run", "--queries", "-5"],
            ["compare", "--updates", "-1"],
            ["sweep", "--cache-fractions", "nan"],
            ["sweep", "--cache-fractions", "0"],
            ["sweep", "--cache-fractions", "0.2", "-1"],
        ],
    )
    def test_exits_2_with_the_config_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid scenario config: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_the_error_names_the_key(self, capsys):
        assert main(["run", "--queries", "-5"]) == 2
        assert "query_count" in capsys.readouterr().err


class TestVersionAndEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_python_m_repro(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


class TestExperimentSubcommand:
    def test_list_names_every_experiment(self, capsys):
        assert main(["experiment", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig7a", "fig7b", "fig8a", "fig8b", "headline",
                     "cache_size", "warmup", "ablations", "multisite"):
            assert name in output

    def test_list_markdown_is_a_table(self, capsys):
        assert main(["experiment", "list", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("| Experiment |")
        assert "| `headline` |" in output

    def test_run_fig7a(self, capsys):
        code = main(["experiment", "run", "fig7a", *SMALL_SET])
        assert code == 0
        assert "query hotspots" in capsys.readouterr().out

    def test_run_with_knob_override_and_jobs(self, capsys):
        code = main([
            "experiment", "run", "cache_size", *SMALL_SET,
            "--set", "fractions=[0.2, 0.4]",
            "--set", 'policies=["nocache", "vcover"]',
            "--jobs", "2",
        ])
        assert code == 0
        assert "Cache-size sensitivity sweep" in capsys.readouterr().out

    #: A two-site fleet of each policy: 30 objects, 1 200 + 1 200 events.
    FLEET = ["experiment", "run", "multisite", "--set", "object_count=30",
             "--set", "query_count=1200", "--set", "update_count=1200",
             "--set", 'policies=["vcover", "nocache"]']

    def test_run_multisite_prints_the_fleet_aggregates(self, capsys):
        assert main([*self.FLEET, "--set", "site_counts=[2]", "--set", "strategy=region"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["vcover", "1160.5"] in rows
        assert ["nocache", "1169.3"] in rows

    def test_more_sites_than_objects_exits_2(self, capsys):
        argv = [*self.FLEET, "--set", "site_counts=[40]", "--set", "strategy=affinity"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "cannot split 30 objects across 40 sites" in captured.err
        assert captured.out == ""

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiment", "run", "does-not-exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_override_exits_2(self, capsys):
        assert main(["experiment", "run", "headline", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, capsys):
        assert main(["experiment", "run", "headline", "--set", "no-equals"]) == 2
        assert "key=value" in capsys.readouterr().err


class TestScenarioSubcommand:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_validate_good_file(self, tmp_path, capsys):
        path = self._write(tmp_path, {"name": "good", "config": {
            "object_count": 20, "query_count": 400, "update_count": 400}})
        assert main(["scenario", "validate", path]) == 0
        output = capsys.readouterr().out
        assert "'good' is valid" in output
        assert "800 (400 queries, 400 updates)" in output

    def test_validate_unknown_knob_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {"object_cout": 20})
        assert main(["scenario", "validate", path]) == 2
        assert "object_cout" in capsys.readouterr().err

    def test_validate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["scenario", "validate", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_scenario_run_end_to_end(self, tmp_path, capsys):
        """A JSON-only scenario runs through validate + run with no Python."""
        path = self._write(tmp_path, {"config": {
            "object_count": 20, "query_count": 300, "update_count": 300}})
        assert main(["scenario", "validate", path]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", path, "--policies", "nocache", "vcover"]) == 0
        output = capsys.readouterr().out
        assert "nocache" in output and "vcover" in output

    def test_composition_file_validates_and_replays(self, capsys):
        path = str(Path(__file__).parent / "fixtures" / "losses" / "vcover-nocache.json")
        assert main(["scenario", "validate", path]) == 0
        assert "is a composition" in capsys.readouterr().out
        assert main(["scenario", "run", path, "--policies", "vcover", "nocache"]) == 0
        expected = api.run_scenario(load_composition(path), policies=("vcover", "nocache"))
        assert expected.as_table() in capsys.readouterr().out
