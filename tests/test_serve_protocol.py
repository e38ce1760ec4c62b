"""Tests of the ``repro.serve`` wire format: frames, outcomes, signatures."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decoupling import QueryAction, QueryOutcome
from repro.repository.updates import Update, UpdateKind
from repro.serve import protocol


def make_outcome(**overrides) -> QueryOutcome:
    base = dict(
        query_id=7,
        answered_at_cache=True,
        query_shipping_cost=0.0,
        update_shipping_cost=1.5,
        load_cost=2.25,
        loaded_objects=(3, 4),
        evicted_objects=(9,),
        shipped_updates=(11, 12),
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

    def test_rejects_a_line_that_is_not_utf8(self):
        with pytest.raises(protocol.ProtocolError, match="not valid UTF-8"):
            protocol.decode_frame(b'{"v":1,"type":"stats","seq":null,"x":"\xff"}\n')

    @pytest.mark.parametrize(
        "line", [b"\xef\xbb\xbf" + protocol.encode_frame(protocol.request_frame("stats"))]
        + [protocol.encode_frame(protocol.request_frame("stats")).decode().encode(codec)
           for codec in ("utf-16", "utf-16-le", "utf-32")],
        ids=["utf-8-bom", "utf-16", "utf-16-le", "utf-32"],
    )  # fmt: skip
    def test_frames_are_utf8_only(self, line):
        # json.loads(bytes) sniffs these encodings; a frame is UTF-8.
        assert json.loads(line)["type"] == "stats"
        with pytest.raises(protocol.ProtocolError, match="not valid"):
            protocol.decode_frame(line)


class TestOutcomeEncoding:
    def test_outcome_round_trips(self):
        outcome = make_outcome()
        rebuilt = protocol.outcome_from_dict(protocol.outcome_to_dict(outcome))
        assert rebuilt == outcome

    @pytest.mark.parametrize("action", ["guessed", "", None, 1])
    def test_unknown_action_is_a_protocol_error(self, action):
        payload = protocol.outcome_to_dict(make_outcome())
        payload["action"] = action
        with pytest.raises(protocol.ProtocolError, match="unknown query action"):
            protocol.outcome_from_dict(payload)

    @pytest.mark.parametrize("answered", [True, False])
    def test_action_round_trips_through_the_flag(self, answered):
        payload = protocol.outcome_to_dict(make_outcome(answered_at_cache=answered))
        assert payload["action"] in QueryAction.ALL
        assert protocol.outcome_from_dict(payload).answered_at_cache is answered

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


# ----------------------------------------------------------------------
# The direct codec paths against the generic ones
# ----------------------------------------------------------------------
_IDS = st.lists(st.integers(0, 2**63 - 1), max_size=6)
_SEQS = st.none() | st.integers(0, 2**63 - 1)
_COSTS = (
    st.sampled_from([0.1 + 0.2, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.0, -0.0])
    | st.floats()
    | st.integers(0, 2**63 - 1)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_PADDING = st.text(" \t\r\n", max_size=3)

#: Malformed lines and the message each got when frames were parsed with
#: ``json.loads``: the direct parse must refuse them in the same words.
MALFORMED = [
    (b"{nope\n", "frame is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"[1, 2]\n", "frame must be an object, got list"),
    (b'{"type": "stats"}\n', "unsupported protocol version None; this endpoint speaks v1"),
    (b'{"v":2,"type":"stats","seq":null,"payload":{}}\n', "unsupported protocol version 2; this endpoint speaks v1"),
    (b'{"v":1,"type":"evict","payload":{}}\n', "unknown frame type 'evict'; expected one of ('query', 'update', 'stats', 'result', 'stats', 'error')"),
    (b'{"v":1,"type":"query","seq":-1,"payload":{"kind":"query"}}\n', "seq must be a non-negative integer or null, got -1"),
    (b'{"v":1,"type":"query","seq":1.5,"payload":{"kind":"query"}}\n', "seq must be a non-negative integer or null, got 1.5"),
    (b'{"v":1,"type":"query","seq":true,"payload":{"kind":"query"}}\n', "seq must be a non-negative integer or null, got True"),
    (b'{"v":1,"type":"query","seq":"3","payload":{"kind":"query"}}\n', "seq must be a non-negative integer or null, got '3'"),
    (b'{"v":1,"type":"query","seq":null}\n', "query frame needs an object payload"),
    (b"", "frame is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"\n", "frame is not valid JSON: Expecting value: line 2 column 1 (char 1)"),
    (b" \t\r\n", "frame is not valid JSON: Expecting value: line 2 column 1 (char 4)"),
    (b'{"v":1,"type":"stats","seq":null} {}\n', "frame is not valid JSON: Extra data: line 1 column 35 (char 34)"),
    (b'{"v":1,"type":"stats","seq":null}\n x', "frame is not valid JSON: Extra data: line 2 column 2 (char 35)"),
    (b'\r\n  {"v":1,"type":"stats","seq":null,\n', "frame is not valid JSON: Expecting property name enclosed in double quotes: line 3 column 1 (char 38)"),
    (b"null\n", "frame must be an object, got NoneType"),
    (b'"frame"\n', "frame must be an object, got str"),
    (b'{"v":1,"type":"stats","seq":0,"payload":{}}}\n', "frame is not valid JSON: Extra data: line 1 column 44 (char 43)"),
]  # fmt: skip


def generic_result_line(result, seq) -> bytes:
    """A result line through the dict payload and the generic encoder."""
    if isinstance(result, Update):
        payload = {"kind": "update", "update_id": result.update_id, "object_id": result.object_id}
    else:
        payload = protocol.outcome_to_dict(result)
    return protocol.encode_frame(protocol.result_frame(payload, seq))


class TestDirectCodec:
    @given(
        outcome=st.builds(
            QueryOutcome,
            query_id=st.integers(0, 2**63 - 1),
            answered_at_cache=st.booleans(),
            query_shipping_cost=_COSTS,
            update_shipping_cost=_COSTS,
            load_cost=_COSTS,
            loaded_objects=_IDS.map(tuple),
            evicted_objects=_IDS.map(tuple),
            shipped_updates=_IDS.map(tuple),
        ),
        seq=_SEQS,
    )
    def test_query_result_is_the_generic_encoding(self, outcome, seq):
        assert protocol.encode_result(outcome, seq) == generic_result_line(outcome, seq)

    @given(
        update=st.builds(
            Update,
            update_id=st.integers(0, 2**63 - 1),
            object_id=st.integers(0, 2**63 - 1),
            cost=st.floats(0, 1e308),
            timestamp=st.floats(allow_nan=False),
            kind=st.sampled_from(list(UpdateKind.ALL)),
        ),
        seq=_SEQS,
    )
    def test_update_result_is_the_generic_encoding(self, update, seq):
        assert protocol.encode_result(update, seq) == generic_result_line(update, seq)

    @given(
        kind=st.sampled_from(protocol.REQUEST_TYPES),
        payload=st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
        seq=_SEQS,
        before=_PADDING,
        after=_PADDING,
    )
    def test_decode_returns_what_json_loads_returned(self, kind, payload, seq, before, after):
        line = before.encode() + protocol.encode_frame(protocol.request_frame(kind, payload, seq))
        line += after.encode()
        assert protocol.decode_frame(line) == json.loads(line)
        assert protocol.decode_frame(bytearray(line)) == json.loads(line)

    @pytest.mark.parametrize("line, message", MALFORMED)
    def test_malformed_lines_keep_their_messages(self, line, message):
        with pytest.raises(protocol.ProtocolError) as raised:
            protocol.decode_frame(line)
        assert str(raised.value) == message

    @given(cut=st.integers(1, 60), seq=_SEQS)
    def test_truncated_frame_has_the_json_loads_message(self, cut, seq):
        line = protocol.encode_frame(protocol.request_frame("update", {"kind": "update"}, seq))
        line = line[: min(cut, len(line) - 2)]
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with pytest.raises(protocol.ProtocolError) as raised:
            protocol.decode_frame(line)
        assert str(raised.value) == f"frame is not valid JSON: {expected.value}"
