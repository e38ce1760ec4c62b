"""The ``repro.serve`` wire format: newline-delimited JSON, versioned frames.

One UTF-8 frame per line.  A request frame is::

    {"v": 1, "type": "query" | "update" | "stats", "seq": <int | null>,
     "payload": {...}}

where a query/update payload is exactly the event dict produced by
:func:`repro.workload.trace.event_to_dict` -- the same encoding the JSONL
trace files use, so a persisted trace line and a served frame payload can
never drift apart.  The server answers every request with one frame::

    {"v": 1, "type": "result" | "stats" | "error", "seq": <echoed>,
     "payload": {...}}

``seq`` is the client-stamped position of the event in the source trace.
The server applies ``seq``-stamped frames in strictly increasing sequence
order (buffering early arrivals), which is what makes eviction decisions
independent of how many concurrent clients the trace is fanned out over.
Frames without a ``seq`` (interactive clients) are applied in arrival order.

The module also defines the *decision signature* -- the canonical
JSON-serialisable record of one applied event (what was shipped, loaded,
evicted) -- which :func:`~repro.serve.equivalence.decision_recorder` writes
on the served and the simulated path alike, so the equivalence test compares
byte-identical artifacts.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Union

from repro.core.decoupling import QueryAction, QueryOutcome
from repro.repository.updates import Update

#: Version stamped into (and required of) every frame.
PROTOCOL_VERSION = 1

#: Frame types a client may send.
REQUEST_TYPES = ("query", "update", "stats")

#: Frame types the server may answer with.
RESPONSE_TYPES = ("result", "stats", "error")

#: Upper bound on one encoded frame; longer lines are a protocol error.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A frame violates the wire format."""


#: Built once: ``json.dumps`` with non-default options builds one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()
#: What ``json.loads`` skips around a document.
_WHITESPACE = " \t\n\r"


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One frame as a compact JSON line (sorted keys, trailing newline)."""
    return (_ENCODER.encode(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes, expect: Optional[tuple] = None) -> Dict[str, Any]:
    """Parse and validate one UTF-8 frame line.

    ``expect`` optionally narrows the accepted frame types (the server passes
    :data:`REQUEST_TYPES`, clients pass :data:`RESPONSE_TYPES`).
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        text = str(line, "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    # ``json.loads`` minus its encoding sniffing and whitespace regexes.
    try:
        frame, end = _DECODER.raw_decode(text, len(text) - len(text.lstrip(_WHITESPACE)))
        rest = text[end:].lstrip(_WHITESPACE)
        if rest:
            raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be an object, got {type(frame).__name__}")
    if frame.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {frame.get('v')!r}; "
            f"this endpoint speaks v{PROTOCOL_VERSION}"
        )
    kind = frame.get("type")
    allowed = expect if expect is not None else REQUEST_TYPES + RESPONSE_TYPES
    if kind not in allowed:
        raise ProtocolError(f"unknown frame type {kind!r}; expected one of {allowed}")
    seq = frame.get("seq")
    if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int) or seq < 0):
        raise ProtocolError(f"seq must be a non-negative integer or null, got {seq!r}")
    if kind != "stats" and not isinstance(frame.get("payload"), dict):
        raise ProtocolError(f"{kind} frame needs an object payload")
    return frame


# ----------------------------------------------------------------------
# Frame constructors
# ----------------------------------------------------------------------
def request_frame(
    kind: str, payload: Optional[Dict[str, Any]] = None, seq: Optional[int] = None
) -> Dict[str, Any]:
    """A request frame of the given kind (``query``/``update``/``stats``)."""
    if kind not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {kind!r}")
    return {"v": PROTOCOL_VERSION, "type": kind, "seq": seq, "payload": payload or {}}


def result_frame(payload: Dict[str, Any], seq: Optional[int] = None) -> Dict[str, Any]:
    """The server's answer to one applied query/update frame."""
    return {"v": PROTOCOL_VERSION, "type": "result", "seq": seq, "payload": payload}


def stats_response_frame(payload: Dict[str, Any], seq: Optional[int] = None) -> Dict[str, Any]:
    """The server's answer to a stats frame."""
    return {"v": PROTOCOL_VERSION, "type": "stats", "seq": seq, "payload": payload}


def error_frame(message: str, seq: Optional[int] = None) -> Dict[str, Any]:
    """An error response carrying a human-readable message."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "seq": seq,
        "payload": {"message": message},
    }


# ----------------------------------------------------------------------
# Outcome encoding and decision signatures
# ----------------------------------------------------------------------
def outcome_to_dict(outcome: QueryOutcome) -> Dict[str, Any]:
    """A query outcome as the result-frame payload (JSON round-trippable)."""
    return {
        "kind": "query",
        "query_id": outcome.query_id,
        "action": outcome.action,
        "query_shipping_cost": outcome.query_shipping_cost,
        "update_shipping_cost": outcome.update_shipping_cost,
        "load_cost": outcome.load_cost,
        "loaded_objects": list(outcome.loaded_objects),
        "evicted_objects": list(outcome.evicted_objects),
        "shipped_updates": list(outcome.shipped_updates),
    }


#: The two result frames in :func:`encode_frame`'s layout (compact, keys sorted, ``v`` 1).
_QUERY_RESULT = (
    '{"payload":{"action":%s,"evicted_objects":[%s],"kind":"query","load_cost":%s,'
    '"loaded_objects":[%s],"query_id":%d,"query_shipping_cost":%s,"shipped_updates":[%s],'
    '"update_shipping_cost":%s},"seq":%s,"type":"result","v":1}\n'
)
_UPDATE_RESULT = (
    '{"payload":{"kind":"update","object_id":%d,"update_id":%d},"seq":%s,"type":"result","v":1}\n'
)
#: ``repr`` spellings that json writes differently.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: float) -> str:
    text = float.__repr__(value) if isinstance(value, float) else int.__repr__(value)
    return _NON_FINITE.get(text, text)


def encode_result(result: Union[QueryOutcome, Update], seq: Optional[int] = None) -> bytes:
    """One applied query's (from its outcome) or update's result frame, as a line.

    Byte-identical to ``encode_frame(result_frame(outcome_to_dict(outcome), seq))``
    (updates: the ``kind`` / ``update_id`` / ``object_id`` payload), without the dicts.
    """
    seq_text = "null" if seq is None else int.__repr__(seq)
    if isinstance(result, Update):
        return (_UPDATE_RESULT % (result.object_id, result.update_id, seq_text)).encode()
    ids = ",".join
    return (
        _QUERY_RESULT
        % (
            encode_basestring_ascii(result.action),
            ids(map(int.__repr__, result.evicted_objects)),
            _number(result.load_cost),
            ids(map(int.__repr__, result.loaded_objects)),
            result.query_id,
            _number(result.query_shipping_cost),
            ids(map(int.__repr__, result.shipped_updates)),
            _number(result.update_shipping_cost),
            seq_text,
        )
    ).encode()


def outcome_from_dict(payload: Dict[str, Any]) -> QueryOutcome:
    """Rebuild a query outcome from a result-frame payload.

    Raises :class:`ProtocolError` for an ``action`` outside :class:`QueryAction`.
    """
    action = payload["action"]
    if action not in QueryAction.ALL:
        raise ProtocolError(f"unknown query action {action!r}; expected one of {QueryAction.ALL}")
    return QueryOutcome(
        query_id=int(payload["query_id"]),
        answered_at_cache=action == QueryAction.ANSWERED_AT_CACHE,
        query_shipping_cost=float(payload["query_shipping_cost"]),
        update_shipping_cost=float(payload["update_shipping_cost"]),
        load_cost=float(payload["load_cost"]),
        loaded_objects=tuple(int(oid) for oid in payload["loaded_objects"]),
        evicted_objects=tuple(int(oid) for oid in payload["evicted_objects"]),
        shipped_updates=tuple(int(uid) for uid in payload["shipped_updates"]),
    )


def outcome_signature(outcome: QueryOutcome) -> List[Any]:
    """The canonical decision record of one answered query.

    A flat, JSON-serialisable list covering everything the policy decided:
    the action, every cost component, and the exact load / eviction /
    update-shipping choices in the order they were made.  Two runs are
    decision-equivalent iff their signature sequences are byte-identical
    under ``json.dumps``.
    """
    return [
        "query",
        outcome.query_id,
        outcome.action,
        outcome.query_shipping_cost,
        outcome.update_shipping_cost,
        outcome.load_cost,
        list(outcome.loaded_objects),
        list(outcome.evicted_objects),
        list(outcome.shipped_updates),
    ]


def update_signature(update: Update) -> List[Any]:
    """The canonical record of one applied update (pins interleaving)."""
    return ["update", update.update_id, update.object_id]


def result_signature(payload: Dict[str, Any]) -> List[Any]:
    """The decision signature carried by one result-frame payload."""
    if payload.get("kind") == "update":
        return ["update", payload["update_id"], payload["object_id"]]
    return outcome_signature(outcome_from_dict(payload))
