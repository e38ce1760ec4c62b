"""The asyncio cache-middleware server.

:class:`CacheServer` wraps one policy + :class:`~repro.repository.server.Repository`
+ :class:`~repro.network.link.NetworkLink` stack behind a TCP front-end
speaking the :mod:`repro.serve.protocol` NDJSON format.  Frames are applied
by the ``step`` of a one-site :class:`~repro.sim.engine.ReplayKernel`, the
one replays use; its counters are what the ``stats`` frame reports.

Design points:

* **Single writer.**  Every query/update frame is enqueued to one writer
  task; only that task touches the policy, the repository and the link, so
  concurrent clients can never interleave half-applied decisions.  The
  queue is bounded (per-server backpressure); per-connection backpressure
  comes from ``await writer.drain()`` on every response.
* **Sequence ordering.**  Frames stamped with a ``seq`` are applied in
  strictly increasing sequence order -- the writer buffers early arrivals --
  so the decision sequence is exactly the source trace order no matter how
  many clients the load harness fans events out over.  That is the property
  the sim-vs-served equivalence test and the deterministic-event-log
  guarantee both rest on.  Unstamped frames apply in arrival order.
* **Graceful shutdown.**  :meth:`stop` stops accepting connections, answers
  in-flight requests, flushes the writer queue (applying any
  sequence-stranded frames in order), and only then tears connections down.
* **Client cancellation safety.**  A client that disconnects or cancels
  mid-request abandons only its response future; the event itself is still
  applied exactly once and the writer loop never wedges.

The server is deterministic given the event sequence: it reads no wall
clock and draws no randomness (simulated time is the event timestamps).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set, Tuple

from repro.network.link import NetworkLink
from repro.repository.objects import ObjectCatalog
from repro.repository.server import Repository
from repro.serve import protocol
from repro.sim.engine import DecisionHook, ReplayKernel
from repro.sim.runner import PolicySpec
from repro.workload.trace import QueryEvent, event_from_dict

#: Default bound on queued-but-unapplied frames (per-server backpressure).
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


class CacheServer:
    """One policy stack served over TCP behind a single-writer loop.

    Parameters
    ----------
    catalog:
        The object catalogue backing the repository.
    policy_spec:
        The policy to serve (a :class:`~repro.sim.runner.PolicySpec`).
        Offline policies (``soptimal``) are rejected: the served path has no
        future trace to prepare from.
    cache_capacity:
        Cache capacity in MB.
    host / port:
        Listen address; port 0 picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_pending:
        Bound on queued-but-unapplied frames across all connections.
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
        if policy_spec.name == "soptimal":
            raise ValueError(
                "soptimal needs offline preparation over the full trace; "
                "the served path only sees events as they arrive -- serve an "
                "online policy (nocache, replica, benefit, vcover, adaptive)"
            )
        repository = Repository(catalog, keep_update_log=False)
        self._link = NetworkLink()
        policy = policy_spec.factory(repository, cache_capacity, self._link)
        self._kernel = ReplayKernel(repository, [policy], [self._link], on_decision=on_decision)
        self._policy_name = policy_spec.name
        self._host = host
        self._requested_port = port
        self._max_pending = max_pending

        self._server: Optional[asyncio.Server] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._queue: Optional[asyncio.Queue] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._next_seq = 0

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
        """Current counters (safe to read between events: single-threaded)."""
        return {
            "policy": self._policy_name,
            **self._kernel.counters(),
            "total_traffic": self._link.total_cost,
            "traffic_by_mechanism": self._link.total_by_mechanism(),
            "draining": self._draining,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listen socket and start the writer loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self._idle = asyncio.Event()
        self._idle.set()
        self._writer_task = asyncio.create_task(self._writer_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._requested_port
        )
        self._requested_port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Gracefully shut down: drain in-flight requests, then tear down.

        New connections are refused immediately; frames already accepted are
        applied and answered.  ``drain_timeout`` bounds the wait for slow
        clients -- after it, remaining connections are closed anyway (their
        events, once enqueued, are still applied by the queue flush).
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        assert self._idle is not None and self._queue is not None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass
        await self._queue.put(None)
        if self._writer_task is not None:
            await self._writer_task
        for writer in list(self._connections):
            writer.close()
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
    # The single-writer apply loop
    # ------------------------------------------------------------------
    async def _writer_loop(self) -> None:
        assert self._queue is not None
        buffered: Dict[int, Tuple[Dict[str, Any], asyncio.Future]] = {}
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                break
            seq, frame, future = item
            if seq is None:
                self._apply(frame, future)
            else:
                buffered[seq] = (frame, future)
                while self._next_seq in buffered:
                    pending_frame, pending_future = buffered.pop(self._next_seq)
                    self._next_seq += 1
                    self._apply(pending_frame, pending_future)
            self._queue.task_done()
        # Shutdown flush: a disconnected client may have left a hole in the
        # sequence; apply whatever remains in sequence order so accepted
        # events are never silently dropped.
        for seq in sorted(buffered):
            pending_frame, pending_future = buffered.pop(seq)
            self._next_seq = seq + 1
            self._apply(pending_frame, pending_future)

    def _apply(self, frame: Dict[str, Any], future: asyncio.Future) -> None:
        """Apply one query/update frame to the policy stack (writer task only)."""
        try:
            event = event_from_dict(frame["payload"])
            if isinstance(event, QueryEvent):
                result = protocol.outcome_to_dict(self._kernel.step(False, event.query))
            else:
                update = event.update
                self._kernel.step(True, update)
                result = {
                    "kind": "update",
                    "update_id": update.update_id,
                    "object_id": update.object_id,
                }
        except Exception as exc:  # surface apply errors to the caller
            if not future.done():
                future.set_exception(
                    protocol.ProtocolError(f"event could not be applied: {exc}")
                )
            return
        if not future.done():
            future.set_result(result)

    # ------------------------------------------------------------------
    # Per-connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                try:
                    response = await self._respond(line)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.encode_frame(protocol.error_frame(str(exc))))
                    await writer.drain()
                    break
                writer.write(protocol.encode_frame(response))
                # Per-connection backpressure: never buffer unboundedly for a
                # slow reader; the writer loop keeps serving other clients.
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _respond(self, line: bytes) -> Dict[str, Any]:
        """One request line -> one response frame (may raise ProtocolError)."""
        frame = protocol.decode_frame(line, expect=protocol.REQUEST_TYPES)
        seq = frame.get("seq")
        if frame["type"] == "stats":
            return protocol.stats_response_frame(self.stats_snapshot(), seq=seq)
        if self._draining:
            return protocol.error_frame("server is draining; not accepting events", seq=seq)
        assert self._queue is not None and self._idle is not None
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight += 1
        self._idle.clear()
        try:
            await self._queue.put((seq, frame, future))
            try:
                result = await future
            except protocol.ProtocolError as exc:
                return protocol.error_frame(str(exc), seq=seq)
            return protocol.result_frame(result, seq=seq)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
