"""Determinism harness: the optimized engine vs recorded seed payloads.

The hot-path work (type-tagged dispatch, warm-started flow bookkeeping,
``__slots__`` records, cached interacting-update lookups) is only allowed to
make runs *faster*, never *different*.  These tests replay the scenarios in
:mod:`tests.determinism_cases` and require the canonical JSON form of every
``RunResult`` payload -- totals, per-mechanism traffic, time series,
occupancy, policy stats -- to be byte-identical to the fixtures recorded
from the pre-optimisation tree, serial and parallel alike.

If one of these tests fails, the optimisation being developed changed
simulation behaviour; fix the optimisation.  Regenerate the fixtures
(``python tests/generate_determinism_fixtures.py``) only for a change that
is *meant* to alter results, and say so in the commit message.
"""

from __future__ import annotations

import json

import pytest

from tests.determinism_cases import (
    CASES,
    FIXTURE_DIR,
    POLICIES,
    canonical,
    flashcrowd_payloads,
    headline_payloads,
    ingested_payloads,
    multisite_payloads,
)


def recorded(name: str) -> str:
    path = FIXTURE_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing fixture {path}; run tests/generate_determinism_fixtures.py"
    )
    return path.read_text(encoding="utf-8").rstrip("\n")


@pytest.fixture(scope="module")
def headline_fixture():
    return json.loads(recorded("headline"))


class TestHeadlineScenario:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_payloads_byte_identical(self, jobs):
        assert canonical(headline_payloads(jobs=jobs)) == recorded("headline")

    def test_fixture_covers_all_policies_and_both_cache_sizes(self, headline_fixture):
        assert set(headline_fixture) == {"small", "default"}
        for setup in ("small", "default"):
            assert set(headline_fixture[setup]) == set(POLICIES)

    def test_fixture_has_decision_loop_activity(self, headline_fixture):
        # Guard against the scenario degenerating into a trivial one where
        # the cover machinery never runs (which would make the byte-identity
        # checks vacuous for the flow layer).
        stats = headline_fixture["default"]["vcover"]["policy_stats"]
        assert stats["update_manager_covers_computed"] > 0
        assert stats["update_manager_decisions"] > 0

    def test_fixture_time_series_sampled(self, headline_fixture):
        run = headline_fixture["default"]["vcover"]
        assert len(run["time_series"]) > 3
        assert run["time_series"][-1][0] == run["events_processed"]
        assert run["total_traffic"] > 0
        assert set(run["traffic_by_mechanism"]) == {
            "query_shipping",
            "update_shipping",
            "object_loading",
        }


class TestMultisiteScenario:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_payloads_byte_identical(self, jobs):
        assert canonical(multisite_payloads(jobs=jobs)) == recorded("multisite")

    def test_fixture_has_per_site_breakdown(self):
        payload = json.loads(recorded("multisite"))
        stats = payload["vcover-x2"]["policy_stats"]
        assert stats["site_count"] == 2.0
        assert "site0_measured_traffic" in stats
        assert "site1_measured_traffic" in stats


class TestFlashCrowdScenario:
    """The streaming pipeline's determinism anchor.

    One fixture, two replay paths: the materialised trace and the
    lazily-generated stream must both reproduce it byte-for-byte, serial
    and parallel alike.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_materialised_payloads_byte_identical(self, jobs):
        assert canonical(flashcrowd_payloads(jobs=jobs)) == recorded("flashcrowd")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_streaming_payloads_byte_identical(self, jobs):
        assert canonical(
            flashcrowd_payloads(jobs=jobs, streaming=True)
        ) == recorded("flashcrowd")

    def test_fixture_covers_all_policies(self):
        payload = json.loads(recorded("flashcrowd"))
        assert set(payload) == set(POLICIES)
        assert payload["vcover"]["total_traffic"] > 0


class TestIngestedScenario:
    """The ingest pipeline's determinism anchor.

    The fixture pins the payloads of the scenario *calibrated from the
    committed sample log*: a drift in the CSV reader, the id mapping, any
    calibration fit, or the replay of the emitted spec shows up as a byte
    difference.  Both replay paths must reproduce it, serial and parallel.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_materialised_payloads_byte_identical(self, jobs):
        assert canonical(ingested_payloads(jobs=jobs)) == recorded("ingested")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_streaming_payloads_byte_identical(self, jobs):
        assert canonical(
            ingested_payloads(jobs=jobs, streaming=True)
        ) == recorded("ingested")

    def test_fixture_covers_all_policies(self):
        payload = json.loads(recorded("ingested"))
        assert set(payload) == set(POLICIES)
        assert payload["vcover"]["total_traffic"] > 0


def test_cases_registry_matches_fixture_files():
    on_disk = {path.stem for path in FIXTURE_DIR.glob("*.json")}
    assert on_disk == set(CASES)
