"""The asyncio cache-middleware server.

:class:`CacheServer` puts one cache site -- a policy, its repository and its
link, built by :func:`repro.sim.runner.build_site` as every one-site replay
is -- behind a TCP front-end speaking the :mod:`repro.serve.protocol` NDJSON
format.  Frames are applied by the ``step`` of that
:class:`~repro.sim.engine.ReplayKernel`, the one replays use; its counters
are what the ``stats`` frame reports.

Design points:

* **One turn per frame.**  Each connection is an :class:`asyncio.BufferedProtocol`
  reading into a buffer of its own; its read callback splits lines, validates
  them, applies the event and writes the answer before it returns.  All of it
  runs on the loop thread and an apply never yields, so concurrent clients
  can never interleave half-applied decisions -- without a queue, a writer
  task or a future per request.  A connection whose peer stops reading its answers is not read
  from until its write buffer drains (per-connection backpressure).
* **Sequence ordering.**  Frames stamped with a ``seq`` are applied in
  strictly increasing sequence order, so the decision sequence is exactly
  the source trace order no matter how many clients the load harness fans
  events out over.  That is the property the sim-vs-served equivalence test
  and the deterministic-event-log guarantee both rest on.  A frame that
  arrives early is *parked* and its connection is not read from until the
  frame is answered, so answers keep request order per connection and a
  connection parks at most one frame.  A frame whose ``seq`` was already
  applied or is already parked, or that arrives when ``max_pending`` frames
  are parked, is refused with an ``error`` frame naming the awaited seq.
  Unstamped frames apply in arrival order.
* **One apply loop, never re-entered.**  Answering a parked frame queues its
  connection; the loop that was running when the gap filled pumps it next.
  The stack depth does not grow with the number of buffered frames.
* **Graceful shutdown.**  :meth:`stop` stops accepting connections and
  refuses new events -- except the stamped frame that parked ones are waiting
  for -- until nothing is parked or ``drain_timeout`` passes, applies
  whatever a lost client left stranded (in sequence order), and only then
  tears connections down.
* **Client cancellation safety.**  A client that disconnects mid-request
  abandons only its answer; its accepted frame stays parked and is still
  applied exactly once when its turn comes.

The server is deterministic given the event sequence: it reads no wall
clock and draws no randomness (simulated time is the event timestamps).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.repository.objects import ObjectCatalog
from repro.serve import protocol
from repro.sim.engine import DecisionHook
from repro.sim.runner import PolicySpec, build_site, check_online
from repro.workload.trace import tagged_from_dict

#: Default bound on parked (early, not yet applicable) frames.
DEFAULT_MAX_PENDING = 1024


def install_uvloop() -> bool:
    """Install the uvloop event-loop policy if the ``[serve]`` extra is present.

    Returns whether uvloop is active.  The server is stdlib-only; uvloop is
    purely a throughput upgrade, so its absence is never an error.
    """
    try:
        import uvloop
    except ImportError:
        return False
    uvloop.install()
    return True


class _Connection(asyncio.BufferedProtocol):
    """One client: splits its bytes into lines and answers them in order.

    Every socket read lands in the one 64 KiB buffer the connection owns.
    """

    def __init__(self, server: "CacheServer") -> None:
        self._server = server
        self._transport: Optional[asyncio.Transport] = None
        self._read = memoryview(bytearray(64 * 1024))
        self._buffer = bytearray()
        self._write_paused = False
        #: One of this connection's frames is parked; its later lines wait.
        self.waiting = False

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._transport = None
        self._buffer.clear()
        self._server._connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read

    def buffer_updated(self, nbytes: int) -> None:
        self._buffer += self._read[:nbytes]
        self._server._schedule(self)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._server._schedule(self)

    def send(self, line: bytes) -> None:
        """Write one encoded response line (dropped if the client is gone)."""
        if self._transport is not None and not self._transport.is_closing():
            self._transport.write(line)

    def close(self) -> None:
        """Flush what was written, then close; unread lines are discarded."""
        if self._transport is not None:
            # A peer that stopped reading would hold a flushing close open.
            if self._write_paused:
                self._transport.abort()
            else:
                self._transport.close()
            self._transport = None

    def pump(self) -> None:
        """Hand buffered lines to the server until one parks or the peer lags."""
        buffer = self._buffer
        start = 0
        while self._transport is not None and not (self.waiting or self._write_paused):
            end = buffer.find(b"\n", start) + 1
            if not end:
                if len(buffer) - start <= protocol.MAX_FRAME_BYTES:
                    break
                end = len(buffer)  # unterminated and oversized: decode_frame refuses it
            self._server._handle(self, buffer[start:end])
            start = end
        del buffer[:start]
        if self._transport is not None:
            if self.waiting or self._write_paused:
                self._transport.pause_reading()
            else:
                self._transport.resume_reading()


class CacheServer:
    """One policy stack served over TCP, one event-loop turn per frame.

    Parameters
    ----------
    catalog:
        The object catalogue backing the repository.
    policy_spec:
        The policy to serve (a :class:`~repro.sim.runner.PolicySpec`).
        A spec that builds an offline policy (one whose class overrides
        ``prepare``, e.g. SOptimal) is rejected whatever it is named: the
        served path has no future trace to prepare from.
    cache_capacity:
        Cache capacity in MB.
    host / port:
        Listen address; port 0 picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_pending:
        Bound on parked frames (stamped frames waiting for an earlier
        ``seq``) across all connections; a frame that would exceed it is
        refused.
    on_decision:
        Called as ``on_decision(payload, outcome)`` after every applied event
        (see :func:`repro.serve.equivalence.decision_recorder`).  The server
        itself keeps nothing per event, so its memory does not grow with them.
    """

    def __init__(
        self,
        catalog: ObjectCatalog,
        policy_spec: PolicySpec,
        cache_capacity: float,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = DEFAULT_MAX_PENDING,
        on_decision: Optional[DecisionHook] = None,
    ) -> None:
        self._kernel = build_site(catalog, policy_spec, cache_capacity, on_decision=on_decision)
        policy = self._kernel.policies[0]
        check_online(policy_spec, policy)
        self._link = policy.link
        self._policy_name = policy_spec.name
        self._host = host
        self._requested_port = port
        self._max_pending = max_pending

        self._server: Optional[asyncio.Server] = None
        self._connections: Set[_Connection] = set()
        self._draining = False
        self._next_seq = 0
        self._parked: Dict[int, Tuple[Dict[str, Any], _Connection]] = {}
        self._parked_high_water = 0
        #: Set while nothing is parked: what :meth:`stop` waits for.
        self._idle = asyncio.Event()
        self._idle.set()
        self._ready: Deque[_Connection] = deque()
        self._running = False

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The listen host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when requested as 0)."""
        return self._requested_port

    @property
    def policy_name(self) -> str:
        """The served policy's name."""
        return self._policy_name

    def stats_snapshot(self) -> Dict[str, Any]:
        """Current counters and gauges (safe between events: single-threaded)."""
        return {
            "policy": self._policy_name,
            **self._kernel.counters(),
            "total_traffic": self._link.total_cost,
            "traffic_by_mechanism": self._link.total_by_mechanism(),
            "draining": self._draining,
            "connections": len(self._connections),
            "inflight": sum(connection.waiting for connection in self._connections),
            "parked": len(self._parked),
            "parked_high_water": self._parked_high_water,
            "waiting_for_seq": self._next_seq,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listen socket."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self._host, port=self._requested_port
        )
        self._requested_port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Gracefully shut down: drain parked frames, then tear down.

        New connections are refused immediately, and so is every new event
        except the stamped frame parked ones are waiting for.  ``drain_timeout``
        bounds the wait for the clients that owe those seqs -- after it, the
        frames still parked are applied anyway, in sequence order.
        """
        if self._server is None:
            return
        self._draining = True
        # Closes the listen sockets at once.  ``wait_closed`` is not awaited:
        # from Python 3.12 it waits for every client to hang up first.
        self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass
        while self._parked:
            self._next_seq = min(self._parked)
            self._release()
        for connection in list(self._connections):
            connection.close()
        self._server = None

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro serve`` CLI loop)."""
        if self._server is None:
            raise RuntimeError("server not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # The apply loop
    # ------------------------------------------------------------------
    def _schedule(self, connection: _Connection) -> None:
        """Pump ``connection`` from the one apply loop, started here if idle."""
        self._ready.append(connection)
        if self._running:
            return
        self._running = True
        try:
            while self._ready:
                self._ready.popleft().pump()
        finally:
            self._running = False

    def _handle(self, connection: _Connection, line: bytes) -> None:
        """One request line: answer it now, or park it for its turn."""
        try:
            frame = protocol.decode_frame(line, expect=protocol.REQUEST_TYPES)
        except protocol.ProtocolError as exc:
            connection.send(self._error(str(exc)))
            connection.close()
            return
        seq = frame.get("seq")
        if frame["type"] == "stats":
            connection.send(
                protocol.encode_frame(protocol.stats_response_frame(self.stats_snapshot(), seq))
            )
        elif self._draining and not (self._parked and seq == self._next_seq):
            connection.send(self._error("server is draining; not accepting events", seq))
        elif seq is None:
            connection.send(self._apply(frame))
        elif seq == self._next_seq:
            self._next_seq += 1
            connection.send(self._apply(frame))
            self._release()
        elif seq < self._next_seq or seq in self._parked:
            connection.send(self._refusal(f"seq {seq} was already sent", seq))
        elif len(self._parked) >= self._max_pending:
            connection.send(self._refusal(f"{len(self._parked)} frames already parked", seq))
        else:
            self._parked[seq] = (frame, connection)
            self._parked_high_water = max(self._parked_high_water, len(self._parked))
            connection.waiting = True
            self._idle.clear()

    def _refusal(self, reason: str, seq: int) -> bytes:
        return self._error(f"{reason}; waiting for seq {self._next_seq}", seq)

    @staticmethod
    def _error(message: str, seq: Optional[int] = None) -> bytes:
        return protocol.encode_frame(protocol.error_frame(message, seq=seq))

    def _release(self) -> None:
        """Apply the parked frames whose turn has come; queue their connections."""
        while self._next_seq in self._parked:
            frame, connection = self._parked.pop(self._next_seq)
            self._next_seq += 1
            connection.send(self._apply(frame))
            connection.waiting = False
            self._schedule(connection)
        if not self._parked:
            self._idle.set()

    def _apply(self, frame: Dict[str, Any]) -> bytes:
        """Apply one query/update frame to the policy stack; its encoded response."""
        seq = frame.get("seq")
        try:
            is_update, event = tagged_from_dict(frame["payload"])
            outcome = self._kernel.step(is_update, event)
        except Exception as exc:  # surface apply errors to the caller
            return self._error(f"event could not be applied: {exc}", seq)
        return protocol.encode_result(event if outcome is None else outcome, seq)
