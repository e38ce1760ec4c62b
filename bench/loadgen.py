"""The benchmark's own load generator for the served path.

``repro loadgen`` is part of the program under test and is due for rework,
so the instrument does not lean on it: this module spawns ``repro serve`` as
a child, pre-encodes the seq-stamped request frames, and drives them over
plain asyncio streams.  Latencies are kept as raw per-request floats.

Closed loop (the end-to-end figures): ``CONNECTIONS`` connections, one
outstanding request each, frames assigned round-robin by seq -- the shape
``repro loadgen``'s callers have, each waiting for its reply.  Open loop
(per-layer, informational): the same frames sent at a fixed rate whatever
the server does, each timed from the moment it was *due*, with the
generator's own lateness reported beside it.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.serve import protocol
from repro.workload.trace import TraceStream, event_to_dict

#: Closed-loop connections; equals ``nproc`` on the box the sizes were
#: measured on, so the single load process is never the bottleneck.
CONNECTIONS = 2

#: A reply slower than this counts as a failed request.
LATENCY_LIMIT_S = 1.0

#: Give up on a server that does not come up, answer or exit in this long.
CHILD_TIMEOUT_S = 60.0

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def encode_requests(stream: TraceStream) -> List[bytes]:
    """The stream as seq-stamped request frames, encoded once up front."""
    frames = []
    for seq, event in enumerate(stream.iter_events()):
        payload = event_to_dict(event)
        frames.append(
            protocol.encode_frame(protocol.request_frame(payload["kind"], payload, seq=seq))
        )
    return frames


class ServerChild:
    """One ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, serve_args: Sequence[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args, "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            self.port = self._await_serving_line()
        except BaseException:
            self.stop()
            raise
        #: Spawn to the ``serving policy=`` line, seconds.
        self.boot_s = perf_counter() - started

    def _await_serving_line(self) -> int:
        stdout = self._process.stdout
        assert stdout is not None
        while True:
            if not select.select([stdout], [], [], CHILD_TIMEOUT_S)[0]:
                raise RuntimeError("repro serve printed nothing; giving up")
            line = stdout.readline()
            if not line:
                raise RuntimeError("repro serve exited before it started serving")
            if line.startswith("serving policy="):
                # "serving policy=vcover on 127.0.0.1:PORT (objects=...)"
                return int(line.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGINT the server and reap it (killed if it will not drain)."""
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGINT)
        try:
            self._process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        if self._process.stdout is not None:
            self._process.stdout.close()


@dataclass
class LoadResult:
    """What one load run observed, request by request."""

    #: First send to last response, seconds.
    wall_s: float
    #: Closed loop: send-to-reply seconds per request.  Open loop: seconds
    #: from the request's due time to its reply.
    latencies_s: List[float]
    #: Raw response lines by seq (``b""`` where the connection died).
    responses: List[bytes]
    #: Mean client-side seconds per request spent outside awaiting the reply.
    client_overhead_s: float = 0.0
    #: Open loop only: seconds each send ran behind its due time.
    lateness_s: List[float] = field(default_factory=list)
    #: The server's ``stats`` frame payload after the load.
    stats: Dict[str, Any] = field(default_factory=dict)


async def _fetch_stats(port: int) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(protocol.encode_frame(protocol.request_frame("stats")))
        await writer.drain()
        line = await reader.readline()
        return protocol.decode_frame(line, expect=("stats",))["payload"]
    finally:
        writer.close()


async def _closed_loop(port: int, frames: Sequence[bytes]) -> LoadResult:
    total = len(frames)
    latencies = [0.0] * total
    responses = [b""] * total
    busy = [0.0] * CONNECTIONS
    streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

    async def caller(index: int) -> None:
        reader, writer = streams[index]
        clock = perf_counter
        started = clock()
        for seq in range(index, total, CONNECTIONS):
            sent = clock()
            writer.write(frames[seq])
            await writer.drain()
            line = await reader.readline()
            latencies[seq] = clock() - sent
            responses[seq] = line
            if not line:
                break
        busy[index] = clock() - started

    started = perf_counter()
    try:
        await asyncio.gather(*(caller(index) for index in range(CONNECTIONS)))
        wall = perf_counter() - started
        stats = await _fetch_stats(port)
    finally:
        for _, writer in streams:
            writer.close()
    overhead = (sum(busy) - sum(latencies)) / total if total else 0.0
    return LoadResult(wall, latencies, responses, client_overhead_s=overhead, stats=stats)


async def _open_loop(port: int, frames: Sequence[bytes], rate: float) -> LoadResult:
    total = len(frames)
    latencies = [0.0] * total
    lateness = [0.0] * total
    responses = [b""] * total
    streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    origin = perf_counter() + 0.05

    async def sender(index: int) -> None:
        _, writer = streams[index]
        for seq in range(index, total, CONNECTIONS):
            due = origin + seq / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness[seq] = max(0.0, perf_counter() - due)
            writer.write(frames[seq])
            await writer.drain()

    async def receiver(index: int) -> None:
        # The server answers each connection's requests in the order they
        # were sent, so replies match seqs without decoding inside the loop.
        reader, _ = streams[index]
        for seq in range(index, total, CONNECTIONS):
            line = await reader.readline()
            latencies[seq] = perf_counter() - (origin + seq / rate)
            responses[seq] = line
            if not line:
                break

    try:
        await asyncio.gather(
            *(sender(index) for index in range(CONNECTIONS)),
            *(receiver(index) for index in range(CONNECTIONS)),
        )
        wall = perf_counter() - origin
    finally:
        for _, writer in streams:
            writer.close()
    return LoadResult(wall, latencies, responses, lateness_s=lateness)


def run_load(port: int, frames: Sequence[bytes], open_rate: Optional[float] = None) -> LoadResult:
    """Drive ``frames`` through the server on ``port``; closed loop by default."""
    load = _closed_loop(port, frames) if open_rate is None else _open_loop(port, frames, open_rate)
    return asyncio.run(asyncio.wait_for(load, timeout=CHILD_TIMEOUT_S))


def failed_requests(result: LoadResult) -> int:
    """Requests that errored, disconnected, went unanswered or were too slow."""
    failed = 0
    for seq, (line, latency) in enumerate(zip(result.responses, result.latencies_s)):
        try:
            frame = protocol.decode_frame(line, expect=protocol.RESPONSE_TYPES)
        except protocol.ProtocolError:
            failed += 1
            continue
        if frame["type"] != "result" or frame["seq"] != seq or latency > LATENCY_LIMIT_S:
            failed += 1
    return failed
