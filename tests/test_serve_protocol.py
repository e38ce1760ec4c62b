"""Tests of the ``repro.serve`` wire format: frames, outcomes, signatures."""

from __future__ import annotations

import json

import pytest

from repro.core.decoupling import QueryOutcome
from repro.repository.updates import Update, UpdateKind
from repro.serve import protocol


def make_outcome(**overrides) -> QueryOutcome:
    base = dict(
        query_id=7,
        action="answered_at_cache",
        query_shipping_cost=0.0,
        update_shipping_cost=1.5,
        load_cost=2.25,
        loaded_objects=[3, 4],
        evicted_objects=[9],
        shipped_updates=[11, 12],
    )
    base.update(overrides)
    return QueryOutcome(**base)


class TestFrameRoundTrip:
    def test_request_frame_round_trips(self):
        frame = protocol.request_frame("query", {"kind": "query"}, seq=5)
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded == frame

    def test_stats_request_needs_no_payload(self):
        frame = protocol.request_frame("stats")
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded["type"] == "stats"
        assert decoded["seq"] is None

    def test_result_and_error_frames_round_trip(self):
        for frame in (
            protocol.result_frame({"kind": "update", "update_id": 1, "object_id": 2}),
            protocol.stats_response_frame({"events_processed": 3}, seq=1),
            protocol.error_frame("nope", seq=9),
        ):
            assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encoding_is_one_compact_sorted_line(self):
        line = protocol.encode_frame(protocol.request_frame("stats"))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_encoding_bytes_match_json_dumps(self):
        # The module-level encoder is an optimisation, not a format change.
        for frame in (
            protocol.request_frame("query", {"kind": "query", "cost": 0.1 + 0.2}, seq=3),
            protocol.result_frame(protocol.outcome_to_dict(make_outcome()), seq=2**40),
            protocol.error_frame("séq   \"quoted\"\n", seq=None),
            protocol.stats_response_frame({"nested": {"b": [1, 2.5, None], "a": True}}),
        ):
            expected = json.dumps(frame, separators=(",", ":"), sort_keys=True) + "\n"
            assert protocol.encode_frame(frame) == expected.encode("utf-8")

    def test_unknown_request_kind_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.request_frame("evict")


class TestDecodeErrors:
    def test_rejects_non_json(self):
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode_frame(b"{nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError, match="must be an object"):
            protocol.decode_frame(b"[1, 2]\n")

    def test_rejects_wrong_version(self):
        frame = protocol.request_frame("stats")
        frame["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(protocol.ProtocolError, match="protocol version"):
            protocol.decode_frame(protocol.encode_frame(frame))

    def test_rejects_missing_version(self):
        with pytest.raises(protocol.ProtocolError, match="protocol version"):
            protocol.decode_frame(b'{"type": "stats"}\n')

    def test_rejects_unknown_type(self):
        frame = {"v": protocol.PROTOCOL_VERSION, "type": "evict", "payload": {}}
        with pytest.raises(protocol.ProtocolError, match="unknown frame type"):
            protocol.decode_frame(protocol.encode_frame(frame))

    def test_expect_narrows_accepted_types(self):
        frame = protocol.result_frame({"kind": "update", "update_id": 1, "object_id": 2})
        line = protocol.encode_frame(frame)
        protocol.decode_frame(line, expect=protocol.RESPONSE_TYPES)
        with pytest.raises(protocol.ProtocolError, match="unknown frame type"):
            protocol.decode_frame(line, expect=protocol.REQUEST_TYPES)

    @pytest.mark.parametrize("seq", [-1, 1.5, True, "3"])
    def test_rejects_bad_seq(self, seq):
        frame = {
            "v": protocol.PROTOCOL_VERSION,
            "type": "query",
            "seq": seq,
            "payload": {"kind": "query"},
        }
        with pytest.raises(protocol.ProtocolError, match="seq"):
            protocol.decode_frame(protocol.encode_frame(frame))

    def test_rejects_missing_payload(self):
        frame = {"v": protocol.PROTOCOL_VERSION, "type": "query", "seq": None}
        with pytest.raises(protocol.ProtocolError, match="payload"):
            protocol.decode_frame(protocol.encode_frame(frame))

    def test_rejects_oversized_frame(self):
        line = b"x" * (protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_frame(line)


class TestOutcomeEncoding:
    def test_outcome_round_trips(self):
        outcome = make_outcome()
        rebuilt = protocol.outcome_from_dict(protocol.outcome_to_dict(outcome))
        assert rebuilt == outcome

    def test_outcome_payload_is_json_safe(self):
        payload = protocol.outcome_to_dict(make_outcome())
        assert json.loads(json.dumps(payload)) == payload
        assert payload["kind"] == "query"


class TestSignatures:
    def test_query_signature_covers_every_decision(self):
        outcome = make_outcome()
        signature = protocol.outcome_signature(outcome)
        assert signature[0] == "query"
        assert outcome.query_id in signature
        assert [3, 4] in signature and [9] in signature and [11, 12] in signature

    def test_update_signature(self):
        update = Update(
            update_id=5, object_id=2, cost=1.0, timestamp=0.0, kind=UpdateKind.MODIFY
        )
        assert protocol.update_signature(update) == ["update", 5, 2]

    def test_result_signature_matches_server_side_records(self):
        outcome = make_outcome()
        via_wire = protocol.result_signature(protocol.outcome_to_dict(outcome))
        assert via_wire == protocol.outcome_signature(outcome)
        update_payload = {"kind": "update", "update_id": 5, "object_id": 2}
        assert protocol.result_signature(update_payload) == ["update", 5, 2]

    def test_signatures_are_json_round_trippable(self):
        signature = protocol.outcome_signature(make_outcome())
        assert json.loads(json.dumps(signature)) == signature
