"""Real-trace ingestion and calibration (``repro.workload.ingest``).

Covers the adaptation stage (file formats, column aliasing, id mapping,
re-stamping, every rejection path including the gated parquet reader), the
calibration fits (Zipf exponent, traffic fractions, tolerance mix, phase
detection), and the end-to-end guarantee the tentpole promises: the spec
emitted for the committed sample log replays byte-identically streaming vs
materialised, serial vs parallel, and on the multi-cache engine -- because
it is an ordinary declarative scenario.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api, cli
from repro.experiments.spec import ingest_scenario
from repro.workload.ingest import CalibrationResult, IngestError, calibrate, ingest_trace
from repro.workload.trace import QueryEvent, UpdateEvent

#: The committed sample log the docs walkthrough and determinism fixture use.
SAMPLE_LOG = Path(__file__).parent.parent / "examples" / "logs" / "sdss_day.csv"


def write_csv(path: Path, header: str, rows) -> Path:
    path.write_text(
        header + "\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    return path


def canonical_payloads(comparison, policies) -> str:
    return json.dumps(
        {name: comparison[name].as_payload() for name in policies}, sort_keys=True
    )


# ----------------------------------------------------------------------
# Adaptation: file -> Trace
# ----------------------------------------------------------------------
class TestIngestTrace:
    def test_csv_basics(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            "kind,object,cost,timestamp,tolerance",
            [
                "query,alpha,2.0,10,0",
                "update,beta,3.0,20,",
                "query,beta;alpha,4.0,30,5.0",
            ],
        )
        log = ingest_trace(path)
        assert log.object_ids == {"alpha": 1, "beta": 2}
        events = list(log.trace)
        assert [e.timestamp for e in events] == [1.0, 2.0, 3.0]
        first, second, third = events
        assert isinstance(first, QueryEvent)
        assert first.query.object_ids == frozenset({1})
        assert isinstance(second, UpdateEvent)
        assert second.update.object_id == 2
        assert third.query.object_ids == frozenset({1, 2})
        assert third.query.tolerance == 5.0

    def test_rows_sorted_by_log_timestamp_stable_for_ties(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            "op,oid,bytes,ts",
            [
                "read,late,1.0,90",
                "read,early,1.0,10",
                "write,tie_a,1.0,50",
                "write,tie_b,1.0,50",
            ],
        )
        log = ingest_trace(path)
        events = list(log.trace)
        assert isinstance(events[0], QueryEvent)
        # ids are first-seen in *file* order, so "late" got id 1 even
        # though it replays last.
        assert events[0].query.object_ids == frozenset({2})
        assert [e.update.object_id for e in events[1:3]] == [3, 4]
        assert events[3].query.object_ids == frozenset({1})

    def test_jsonl_with_list_footprints(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"type": "get", "objects": ["a", "b"], "size_mb": 2.5})
            + "\n"
            + json.dumps({"type": "put", "objects": "a", "size_mb": 1.5})
            + "\n",
            encoding="utf-8",
        )
        log = ingest_trace(path)
        assert log.trace.query_count == 1
        assert log.trace.update_count == 1
        assert log.trace.queries()[0].object_ids == frozenset({1, 2})

    def test_missing_columns_reported_with_aliases(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", "when,how", ["now,fast"])
        with pytest.raises(IngestError, match="kind.*objects"):
            ingest_trace(path)

    def test_unknown_kind_reported_with_row(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", "kind,object", ["ponder,x"])
        with pytest.raises(IngestError, match="row 1 .*'ponder'"):
            ingest_trace(path)

    def test_bad_values_rejected(self, tmp_path):
        bad_cost = write_csv(
            tmp_path / "cost.csv", "kind,object,cost", ["query,x,-1"]
        )
        with pytest.raises(IngestError, match="non-positive cost"):
            ingest_trace(bad_cost)
        bad_tolerance = write_csv(
            tmp_path / "tol.csv", "kind,object,tolerance", ["query,x,-2"]
        )
        with pytest.raises(IngestError, match="negative tolerance"):
            ingest_trace(bad_tolerance)
        bad_float = write_csv(
            tmp_path / "float.csv", "kind,object,cost", ["query,x,much"]
        )
        with pytest.raises(IngestError, match="bad cost value"):
            ingest_trace(bad_float)

    def test_unsupported_suffix_and_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="unsupported log format"):
            ingest_trace(tmp_path / "log.xlsx")
        with pytest.raises(IngestError, match="no such file"):
            ingest_trace(tmp_path / "absent.csv")

    def test_empty_log_rejected(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", "kind,object", [])
        path.write_text("kind,object\n", encoding="utf-8")
        with pytest.raises(IngestError, match="holds no events"):
            ingest_trace(path)

    def test_malformed_jsonl_reported_with_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type": "get", "objects": "a"}\n{broken\n', encoding="utf-8")
        with pytest.raises(IngestError, match=":2 is not valid JSON"):
            ingest_trace(path)

    def test_parquet_degrades_without_pyarrow(self, tmp_path):
        try:
            import pyarrow  # noqa: F401
        except ImportError:
            pass
        else:
            pytest.skip("pyarrow installed; the gate does not trigger")
        path = tmp_path / "log.parquet"
        path.write_bytes(b"PAR1")
        with pytest.raises(IngestError, match="pyarrow.*CSV or JSONL"):
            ingest_trace(path)


# ----------------------------------------------------------------------
# Calibration: Trace -> knobs
# ----------------------------------------------------------------------
class TestCalibration:
    def _log(self, tmp_path, rows, header="kind,object,cost,tolerance"):
        return ingest_trace(write_csv(tmp_path / "log.csv", header, rows))

    def test_counts_and_fractions(self, tmp_path):
        log = self._log(
            tmp_path,
            [
                "query,a,10.0,0",
                "query,b,30.0,4.0",
                "update,a,20.0,",
            ],
        )
        result = calibrate(log.trace, scale=0.001)
        assert isinstance(result, CalibrationResult)
        assert result.object_count == 2
        assert result.query_count == 2
        assert result.update_count == 1
        from repro.repository.catalog import PAPER_SERVER_SIZE_MB

        server_size = 0.001 * PAPER_SERVER_SIZE_MB
        assert result.query_traffic_fraction == pytest.approx(40.0 / server_size)
        assert result.update_traffic_fraction == pytest.approx(20.0 / server_size)
        assert result.tolerant_fraction == pytest.approx(0.5)
        assert result.tolerance_window == pytest.approx(4.0)

    def test_degenerate_zipf_defaults(self, tmp_path):
        log = self._log(tmp_path, ["query,a,1.0,0", "query,a,1.0,0"])
        assert calibrate(log.trace).zipf_exponent == pytest.approx(1.2)

    def test_zipf_fit_recovers_a_known_exponent(self, tmp_path):
        # Exact Zipf counts with exponent 0.8: count(rank) = C * rank^-0.8.
        rows = []
        for rank in range(1, 21):
            count = max(1, round(2000 * rank ** -0.8))
            rows.extend([f"query,obj{rank},1.0,0"] * count)
        log = self._log(tmp_path, rows)
        assert calibrate(log.trace).zipf_exponent == pytest.approx(0.8, abs=0.1)

    def test_no_queries_is_an_error(self, tmp_path):
        log = self._log(tmp_path, ["update,a,1.0,"])
        with pytest.raises(IngestError, match="no queries"):
            calibrate(log.trace)

    def test_phase_detection_on_the_sample_log(self):
        log = ingest_trace(SAMPLE_LOG)
        result = calibrate(log.trace)
        # The committed log migrates its hotspot half-way: the fitted phase
        # length must be near half the query count, not the whole log.
        assert result.hotspot_phase_length < 0.8 * result.query_count
        assert result.hotspot_phase_length >= 25
        # The log was generated with a Zipf-1.3 focus layered on a uniform
        # background; the fit lands in that neighbourhood.
        assert 0.5 < result.zipf_exponent < 2.0
        assert 0.1 < result.tolerant_fraction < 0.4

    def test_report_lists_every_knob(self):
        result = calibrate(ingest_trace(SAMPLE_LOG).trace)
        report = result.report()
        for knob in result.knobs():
            assert knob in report


# ----------------------------------------------------------------------
# End to end: log -> spec -> byte-identical replay
# ----------------------------------------------------------------------
class TestIngestScenario:
    POLICIES = ("nocache", "vcover")

    def test_spec_round_trips_and_takes_the_stem(self, tmp_path):
        spec, calibration = ingest_scenario(SAMPLE_LOG)
        assert spec.name == "sdss_day"
        assert spec.config.query_count == calibration.query_count
        assert spec.config.zipf_exponent == pytest.approx(
            calibration.zipf_exponent, abs=1e-4
        )
        path = api.save_scenario(spec, tmp_path / "cal.json")
        assert api.load_scenario(path) == spec

    def test_streaming_matches_materialised(self):
        spec, _ = ingest_scenario(SAMPLE_LOG)
        spec = spec.scaled(sample_every=200)
        materialised = api.run_scenario(spec, policies=self.POLICIES)
        streamed = api.run_scenario(spec, policies=self.POLICIES, streaming=True)
        assert canonical_payloads(materialised, self.POLICIES) == (
            canonical_payloads(streamed, self.POLICIES)
        )

    def test_parallel_matches_serial(self):
        spec, _ = ingest_scenario(SAMPLE_LOG)
        spec = spec.scaled(sample_every=200)
        serial = api.run_scenario(
            spec, policies=self.POLICIES, streaming=True, jobs=1
        )
        parallel = api.run_scenario(
            spec, policies=self.POLICIES, streaming=True, jobs=2
        )
        assert canonical_payloads(serial, self.POLICIES) == (
            canonical_payloads(parallel, self.POLICIES)
        )

    def test_multicache_engine_replays_ingested_scenarios(self):
        from repro.experiments.config import build_scenario_stream
        from repro.sim.engine import EngineConfig
        from repro.sim.multicache import TopologySpec, run_topology
        from repro.sim.runner import vcover_spec

        spec, _ = ingest_scenario(SAMPLE_LOG)
        catalog, stream = build_scenario_stream(spec.config)
        topology = TopologySpec.uniform(vcover_spec(), 2, cache_fraction=0.3)
        engine = EngineConfig(sample_every=200)
        from_stream = run_topology(topology, catalog, stream, engine)
        from_trace = run_topology(topology, catalog, stream.materialise(), engine)
        assert json.dumps(from_stream.aggregate.as_payload(), sort_keys=True) == (
            json.dumps(from_trace.aggregate.as_payload(), sort_keys=True)
        )


class TestIngestCli:
    def test_ingest_writes_a_runnable_scenario_file(self, tmp_path, capsys):
        out = tmp_path / "day.scenario.json"
        code = cli.main(
            ["ingest", str(SAMPLE_LOG), "--out", str(out), "--name", "day"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "fitted scenario knobs" in captured.out
        assert str(out) in captured.out
        spec = api.load_scenario(out)
        assert spec.name == "day"
        # The walkthrough promise: the written file replays directly.
        code = cli.main(
            ["scenario", "run", str(out), "--streaming",
             "--policies", "nocache", "vcover"]
        )
        assert code == 0
        assert "vcover" in capsys.readouterr().out

    def test_ingest_error_is_a_clean_exit_code(self, tmp_path, capsys):
        code = cli.main(["ingest", str(tmp_path / "absent.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
