"""Lifecycle tests of the asyncio cache server.

No pytest-asyncio in the toolchain: every test is a sync function driving
its own event loop via ``asyncio.run``.  Each test boots a real server on
an ephemeral localhost port and talks to it over actual TCP.
"""

from __future__ import annotations

import asyncio
import socket
import sys

import pytest

from repro.core.benefit import BenefitConfig
from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.equivalence import decision_recorder
from repro.serve.server import DEFAULT_MAX_PENDING, CacheServer
from repro.sim.runner import default_policy_specs, soptimal_spec
from repro.workload.trace import event_to_dict


def tiny_setup(policy: str = "vcover", queries: int = 30, updates: int = 30):
    """A small catalogue, policy spec, capacity and event-dict list."""
    config = ExperimentConfig().scaled(
        object_count=12, query_count=queries, update_count=updates
    )
    catalog, trace = build_scenario_stream(config)
    spec = default_policy_specs(
        benefit_config=BenefitConfig(window_size=config.benefit_window),
        include=(policy,),
    )[0]
    events = [event_to_dict(event) for event in trace.iter_events()]
    return catalog, spec, catalog.total_size * config.cache_fraction, events


def make_server(
    policy: str = "vcover", log=None, on_decision=None, max_pending=DEFAULT_MAX_PENDING, **kwargs
):
    """A server over the tiny setup; ``log`` (a list) opts into the decision log."""
    catalog, spec, capacity, events = tiny_setup(policy, **kwargs)
    if log is not None:
        on_decision = decision_recorder(log)
    server = CacheServer(
        catalog, spec, capacity, max_pending=max_pending, on_decision=on_decision
    )
    return server, events


def stamped(events, seq: int) -> bytes:
    """The request line carrying ``events[seq]`` stamped with its position."""
    payload = events[seq]
    return protocol.encode_frame(protocol.request_frame(payload["kind"], payload, seq=seq))


def event_id(payload) -> int:
    return payload["query_id" if payload["kind"] == "query" else "update_id"]


async def read_frame(reader, timeout: float = 5.0):
    """The next response frame (bounded: a wedged server fails, not hangs)."""
    line = await asyncio.wait_for(reader.readline(), timeout)
    return protocol.decode_frame(line, expect=protocol.RESPONSE_TYPES)


async def fetch_stats(server):
    client = await ServeClient.connect(server.host, server.port)
    try:
        return await client.stats()
    finally:
        await client.close()


class TestBasicServing:
    def test_query_update_stats_round_trip(self):
        server, events = make_server()

        async def drive():
            await server.start()
            try:
                client = await ServeClient.connect(server.host, server.port)
                try:
                    for payload in events[:10]:
                        if payload["kind"] == "query":
                            result = await client.query(payload)
                            assert result["kind"] == "query"
                            assert result["action"]
                        else:
                            result = await client.update(payload)
                            assert result["kind"] == "update"
                            assert result["object_id"] == payload["object_id"]
                    stats = await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()
            return stats

        stats = asyncio.run(drive())
        assert stats["events_processed"] == 10
        assert stats["policy"] == "vcover"
        assert stats["queries_answered_at_cache"] + stats["queries_shipped"] == sum(
            1 for payload in events[:10] if payload["kind"] == "query"
        )
        assert stats["total_traffic"] >= 0

    def test_server_without_recorder_keeps_nothing_per_event(self):
        # `repro serve` passes no on_decision: the process must not grow a
        # row per event (it used to append to a decision log forever).
        server, events = make_server()
        applied = 40

        async def drive():
            await server.start()
            try:
                client = await ServeClient.connect(server.host, server.port)
                try:
                    for payload in events[:applied]:
                        if payload["kind"] == "query":
                            await client.query(payload)
                        else:
                            await client.update(payload)
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()

        stats = asyncio.run(drive())
        assert stats["events_processed"] == applied
        assert not hasattr(server, "decision_log")
        per_event = {
            name: value
            for name, value in vars(server).items()
            if hasattr(value, "__len__") and len(value) >= applied
        }
        assert per_event == {}

    def test_ephemeral_port_resolved_after_start(self):
        server, _ = make_server()

        async def drive():
            await server.start()
            try:
                assert server.port > 0
            finally:
                await server.stop()

        asyncio.run(drive())

    def test_soptimal_rejected_at_construction(self):
        catalog, spec, capacity, _ = tiny_setup("vcover")
        (soptimal,) = default_policy_specs(include=("soptimal",))
        with pytest.raises(ValueError, match="soptimal"):
            CacheServer(catalog, soptimal, capacity)
        # Refused for the class it builds, not for what the spec is called.
        with pytest.raises(ValueError, match="'hindsight' builds SOptimalPolicy"):
            CacheServer(catalog, soptimal_spec(name="hindsight"), capacity)

    def test_malformed_line_answered_with_error_frame(self):
        server, _ = make_server()

        async def drive():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b"{not json\n")
                await writer.drain()
                line = await reader.readline()
                frame = protocol.decode_frame(line, expect=("error",))
                assert "JSON" in frame["payload"]["message"]
                # The server closes the connection after a protocol error.
                assert await reader.readline() == b""
                writer.close()
            finally:
                await server.stop()

        asyncio.run(drive())

    def test_malformed_event_payload_is_refused_and_the_next_connection_served(self):
        server, events = make_server()
        assert events[0]["kind"] == "query"
        bad_payload = {**events[0], "object_ids": "12"}  # decoded as {1, 2} before the check

        async def drive():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                frame = protocol.request_frame("query", bad_payload, seq=0)
                writer.write(protocol.encode_frame(frame))
                answer = await read_frame(reader)
                assert answer["type"] == "error" and answer["seq"] == 0
                assert answer["payload"]["message"].startswith(
                    "event could not be applied: object_ids must be"
                )
                writer.write(stamped(events, 1))  # the connection stays open
                answer = await read_frame(reader)
                assert answer["type"] == "result" and answer["seq"] == 1
                writer.close()
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(stamped(events, 2))
                answer = await read_frame(reader)
                assert answer["type"] == "result" and answer["seq"] == 2
                writer.close()
            finally:
                await server.stop()

        asyncio.run(drive())


class TestSequenceOrdering:
    def test_out_of_order_frames_apply_in_seq_order(self):
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            try:
                first = await ServeClient.connect(server.host, server.port)
                second = await ServeClient.connect(server.host, server.port)
                try:

                    async def send(client, seq):
                        payload = events[seq]
                        if payload["kind"] == "query":
                            await client.query(payload, seq=seq)
                        else:
                            await client.update(payload, seq=seq)

                    # seq 1 first: it must wait for seq 0 from the other client.
                    later = asyncio.create_task(send(first, 1))
                    await asyncio.sleep(0.05)
                    assert not later.done()
                    await send(second, 0)
                    await later
                finally:
                    await first.close()
                    await second.close()
            finally:
                await server.stop()

        asyncio.run(drive())
        expected_ids = []
        for payload in events[:2]:
            key = "query_id" if payload["kind"] == "query" else "update_id"
            expected_ids.append(payload[key])
        assert [row[1] for row in log] == expected_ids


class TestGracefulShutdown:
    def test_draining_server_refuses_new_events(self):
        # A sequence-stranded frame (seq=1, no seq=0) keeps one event in
        # flight, which pins stop() in its drain wait -- giving the test a
        # deterministic window in which the server is draining but alive.
        server, events = make_server()

        async def drive():
            await server.start()
            client = await ServeClient.connect(server.host, server.port)
            blocker = await ServeClient.connect(server.host, server.port)
            try:
                stranded = asyncio.create_task(blocker.update(
                    next(e for e in events if e["kind"] == "update"), seq=1
                ))
                await asyncio.sleep(0.05)
                stopper = asyncio.create_task(server.stop(drain_timeout=1.0))
                await asyncio.sleep(0.05)
                with pytest.raises(ServeError, match="draining"):
                    await client.query(events[0], seq=None)
                # Stats are still answered while draining.
                stats = await client.stats()
                assert stats["draining"] is True
                await stopper
                # The stranded event was flushed at shutdown, not dropped.
                assert (await stranded)["kind"] == "update"
            finally:
                await client.close()
                await blocker.close()

        asyncio.run(drive())

    def test_stop_flushes_sequence_stranded_frames(self):
        # A frame stamped seq=1 arrives but seq=0 never does: shutdown must
        # still apply it (in order) rather than dropping an accepted event.
        server, events = make_server()

        async def drive():
            await server.start()
            client = await ServeClient.connect(server.host, server.port)
            try:
                pending = asyncio.create_task(client.update(
                    next(e for e in events if e["kind"] == "update"), seq=1
                ))
                await asyncio.sleep(0.05)
                assert not pending.done()
                await server.stop(drain_timeout=0.1)
                result = await pending
                assert result["kind"] == "update"
            finally:
                await client.close()
            return server.stats_snapshot()

        stats = asyncio.run(drive())
        assert stats["events_processed"] == 1

    def test_draining_server_accepts_the_frame_parked_ones_wait_for(self):
        # seq 1 is parked when stop() begins; the late seq 0 is the one event
        # a draining server still takes, and taking it ends the drain at once.
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            early_reader, early = await asyncio.open_connection(server.host, server.port)
            late_reader, late = await asyncio.open_connection(server.host, server.port)
            try:
                early.write(stamped(events, 1))
                await asyncio.sleep(0.05)
                stopper = asyncio.create_task(server.stop(drain_timeout=30.0))
                await asyncio.sleep(0.05)
                late.write(stamped(events, 0) + stamped(events, 2))
                replies = [await read_frame(late_reader), await read_frame(early_reader)]
                refused = await read_frame(late_reader)
                await asyncio.wait_for(stopper, 5.0)
            finally:
                early.close()
                late.close()
            return replies, refused

        replies, refused = asyncio.run(drive())
        assert [(frame["type"], frame["seq"]) for frame in replies] == [
            ("result", 0), ("result", 1),
        ]
        assert refused["type"] == "error" and "draining" in refused["payload"]["message"]
        assert [row[1] for row in log] == [event_id(events[0]), event_id(events[1])]

    def test_stop_races_with_load_without_wedging(self):
        # Fire a burst of unstamped events from several clients and stop the
        # server mid-burst.  Every request must settle -- with a result if it
        # was accepted before draining, with a draining error otherwise --
        # and the applied count must match the decision log exactly.
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            clients = [
                await ServeClient.connect(server.host, server.port)
                for _ in range(12)
            ]
            try:
                async def send(client, payload):
                    if payload["kind"] == "query":
                        return await client.query(payload, seq=None)
                    return await client.update(payload, seq=None)

                tasks = [
                    asyncio.create_task(send(client, payload))
                    for client, payload in zip(clients, events[:12])
                ]
                await asyncio.sleep(0)
                await server.stop()
                settled = await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                for client in clients:
                    await client.close()
            return settled, server.stats_snapshot()

        settled, stats = asyncio.run(drive())
        applied = [r for r in settled if isinstance(r, dict)]
        unexpected = [
            r for r in settled
            if not isinstance(r, (dict, ServeError, ConnectionError))
        ]
        assert not unexpected
        assert len(settled) == 12
        assert len(applied) <= stats["events_processed"] == len(log)

    def test_stop_is_idempotent(self):
        server, _ = make_server()

        async def drive():
            await server.start()
            await server.stop()
            await server.stop()  # second stop is a no-op

        asyncio.run(drive())


class TestClientCancellation:
    def test_abandoned_connection_does_not_wedge_the_loop(self):
        # A client writes one frame and vanishes without reading the answer;
        # the event must still be applied and other clients keep being served.
        server, events = make_server()

        async def drive():
            await server.start()
            try:
                _, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(protocol.encode_frame(
                    protocol.request_frame(events[0]["kind"], events[0], seq=None)
                ))
                await writer.drain()
                writer.close()

                client = await ServeClient.connect(server.host, server.port)
                try:
                    for payload in events[1:6]:
                        if payload["kind"] == "query":
                            await client.query(payload, seq=None)
                        else:
                            await client.update(payload, seq=None)
                    for _ in range(100):
                        stats = await client.stats()
                        if stats["events_processed"] == 6:
                            break
                        await asyncio.sleep(0.01)
                finally:
                    await client.close()
            finally:
                await server.stop()
            return stats

        stats = asyncio.run(drive())
        assert stats["events_processed"] == 6

    def test_cancelled_request_still_applies_exactly_once(self):
        # Client A asks for seq=5, which cannot apply until seqs 0-4 arrive,
        # then cancels and disconnects.  Once the gap fills, the event applies
        # anyway (exactly once) and the writer loop keeps going.
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            try:
                first = await ServeClient.connect(server.host, server.port)
                stuck = asyncio.create_task(first.update(
                    next(e for e in events if e["kind"] == "update"), seq=5
                ))
                await asyncio.sleep(0.05)
                stuck.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await stuck
                await first.close()

                second = await ServeClient.connect(server.host, server.port)
                try:
                    for seq in range(5):
                        payload = events[seq]
                        if payload["kind"] == "query":
                            await second.query(payload, seq=seq)
                        else:
                            await second.update(payload, seq=seq)
                    payload = events[6]
                    if payload["kind"] == "query":
                        await second.query(payload, seq=6)
                    else:
                        await second.update(payload, seq=6)
                    for _ in range(100):
                        stats = await second.stats()
                        if stats["events_processed"] == 7:
                            break
                        await asyncio.sleep(0.01)
                finally:
                    await second.close()
            finally:
                await server.stop()
            return stats

        stats = asyncio.run(drive())
        assert stats["events_processed"] == 7  # seqs 0..6, the abandoned one included
        assert len(log) == 7


class TestBursts:
    """Thousands of buffered frames: answered in order at constant stack depth."""

    TOTAL = 3000

    @staticmethod
    def depth_recorder(depths):
        def record(payload, outcome):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)

        return record

    def run_burst(self, connections: int):
        depths = []
        server, events = make_server(
            on_decision=self.depth_recorder(depths), queries=1500, updates=1500
        )
        assert len(events) == self.TOTAL

        async def drive():
            await server.start()
            try:
                streams = [
                    await asyncio.open_connection(server.host, server.port)
                    for _ in range(connections)
                ]
                # Highest connection first, so every connection but the last
                # written parks its first frame before seq 0 arrives.
                for index in reversed(range(connections)):
                    streams[index][1].write(b"".join(
                        stamped(events, seq) for seq in range(index, self.TOTAL, connections)
                    ))
                answered = 0
                for index, (reader, writer) in enumerate(streams):
                    for seq in range(index, self.TOTAL, connections):
                        frame = await read_frame(reader)
                        assert (frame["type"], frame["seq"]) == ("result", seq)
                        answered += 1
                    writer.close()
                return answered, await fetch_stats(server)
            finally:
                await server.stop()

        answered, stats = asyncio.run(drive())
        assert answered == stats["events_processed"] == self.TOTAL
        assert stats["waiting_for_seq"] == self.TOTAL
        assert stats["parked"] == stats["inflight"] == 0
        assert stats["parked_high_water"] <= connections - 1
        # The apply loop is never re-entered: the stack under the 3 000th
        # apply is the stack under the first (give or take the release frame).
        assert max(depths) - min(depths) <= 2
        return stats

    def test_one_write_on_one_connection(self):
        assert self.run_burst(connections=1)["parked_high_water"] == 0

    def test_fanned_over_64_connections(self):
        assert self.run_burst(connections=64)["parked_high_water"] > 0


class TestLostAndSlowClients:
    def test_killed_client_leaves_a_visible_gap_and_stop_flushes_in_order(self):
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            streams = [
                await asyncio.open_connection(server.host, server.port) for _ in range(3)
            ]
            (doomed_reader, doomed), (reader_a, writer_a), (reader_b, writer_b) = streams
            try:
                doomed.write(stamped(events, 0))
                assert (await read_frame(doomed_reader))["seq"] == 0
                doomed.close()  # killed before it sends seq 1
                writer_b.write(stamped(events, 3))
                writer_a.write(stamped(events, 2))
                for _ in range(100):
                    stats = await fetch_stats(server)
                    if stats["parked"] == 2 and stats["connections"] == 3:
                        break
                    await asyncio.sleep(0.01)
                await server.stop(drain_timeout=0.2)
                replies = [await read_frame(reader_a), await read_frame(reader_b)]
            finally:
                writer_a.close()
                writer_b.close()
            return stats, replies, server.stats_snapshot()

        stats, replies, final = asyncio.run(drive())
        assert stats["waiting_for_seq"] == 1
        assert stats["parked"] == stats["inflight"] == 2 <= stats["connections"]
        assert [(frame["type"], frame["seq"]) for frame in replies] == [
            ("result", 2), ("result", 3),
        ]
        assert [row[1] for row in log] == [event_id(events[seq]) for seq in (0, 2, 3)]
        assert final["parked"] == 0 and final["waiting_for_seq"] == 4

    def test_client_that_never_reads_is_paused_while_others_are_served(self):
        server, events = make_server(policy="nocache", queries=300, updates=300)
        flood = protocol.encode_frame(protocol.request_frame("stats")) * 40_000
        straggler = protocol.encode_frame(
            protocol.request_frame(events[500]["kind"], events[500])
        )

        async def drive():
            await server.start()
            # A small receive buffer, so the unread answers back up into the
            # server's write buffer after kilobytes rather than megabytes.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, (server.host, server.port))
            _, deaf = await asyncio.open_connection(sock=sock)
            try:
                deaf.write(flood + straggler)
                client = await ServeClient.connect(server.host, server.port)
                try:
                    for payload in events[:500]:
                        if payload["kind"] == "query":
                            await client.query(payload)
                        else:
                            await client.update(payload)
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                deaf.close()
                await server.stop(drain_timeout=0.2)

        stats = asyncio.run(drive())
        # The straggler sits behind answers nobody reads: never reached.
        assert stats["events_processed"] == 500
        assert stats["connections"] == 2


class TestRefusedFrames:
    def test_frame_up_to_the_limit_is_decoded_and_a_longer_one_refused(self, caplog):
        server, _ = make_server()
        padded = {"v": 1, "type": "stats", "seq": None, "payload": {"pad": "x" * 100_000}}
        oversized = protocol.encode_frame(
            {**padded, "payload": {"pad": "x" * protocol.MAX_FRAME_BYTES}}
        )

        async def drive():
            await server.start()
            try:
                for burst in (oversized, oversized[:-1]):  # with and without a newline
                    reader, writer = await asyncio.open_connection(server.host, server.port)
                    writer.write(protocol.encode_frame(padded) * 3 + burst)
                    for _ in range(3):
                        assert (await read_frame(reader))["type"] == "stats"
                    frame = await read_frame(reader)
                    assert frame["type"] == "error"
                    assert "exceeds" in frame["payload"]["message"]
                    assert await asyncio.wait_for(reader.readline(), 5.0) == b""
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(drive())
        assert not caplog.records  # nothing unhandled reached the asyncio logger

    def test_line_that_is_not_utf8_is_refused_and_the_loop_keeps_serving(self, caplog):
        server, _ = make_server()
        unhandled = []

        async def drive():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            await server.start()
            try:
                bad = await asyncio.open_connection(server.host, server.port)
                good = await asyncio.open_connection(server.host, server.port)
                bad[1].write(b'{"v":1,"type":"stats","seq":null,"x":"\xff"}\n')
                good[1].write(protocol.encode_frame(protocol.request_frame("stats")))
                frame = await read_frame(bad[0])
                assert frame["type"] == "error"
                assert "not valid UTF-8" in frame["payload"]["message"]
                assert await asyncio.wait_for(bad[0].readline(), 5.0) == b""
                assert (await read_frame(good[0]))["type"] == "stats"
                good[1].write(protocol.encode_frame(protocol.request_frame("stats")))
                assert (await read_frame(good[0]))["payload"]["connections"] == 1
                for _, writer in (bad, good):
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(drive())
        assert not unhandled  # the loop's exception handler was never called
        assert not caplog.records

    def test_already_applied_seq_is_refused_not_parked(self):
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(stamped(events, 0) + stamped(events, 0) + stamped(events, 1))
                replies = [await read_frame(reader) for _ in range(3)]
                stats = await fetch_stats(server)
                loop = asyncio.get_running_loop()
                started = loop.time()
                await server.stop(drain_timeout=5.0)
                return replies, stats, loop.time() - started
            finally:
                writer.close()

        replies, stats, stop_s = asyncio.run(drive())
        assert [frame["type"] for frame in replies] == ["result", "error", "result"]
        assert "waiting for seq 1" in replies[1]["payload"]["message"]
        assert stats["parked"] == 0 and stats["waiting_for_seq"] == 2
        assert server.stats_snapshot()["waiting_for_seq"] == 2  # never rewound
        assert [row[1] for row in log] == [event_id(events[0]), event_id(events[1])]
        assert stop_s < 2.0  # nothing was parked, so nothing to wait for

    def test_second_frame_with_a_parked_seq_is_refused_and_the_first_kept(self):
        log = []
        server, events = make_server(log=log)

        async def drive():
            await server.start()
            try:
                first_reader, first = await asyncio.open_connection(server.host, server.port)
                second_reader, second = await asyncio.open_connection(server.host, server.port)
                first.write(stamped(events, 1))
                await asyncio.sleep(0.05)
                second.write(stamped(events, 1) + stamped(events, 0))
                refused = await read_frame(second_reader)
                replies = [await read_frame(second_reader), await read_frame(first_reader)]
                first.close()
                second.close()
                return refused, replies, await fetch_stats(server)
            finally:
                await server.stop()

        refused, replies, stats = asyncio.run(drive())
        assert refused["type"] == "error" and refused["seq"] == 1
        assert "waiting for seq 0" in refused["payload"]["message"]
        assert [(frame["type"], frame["seq"]) for frame in replies] == [
            ("result", 0), ("result", 1),
        ]
        assert stats["events_processed"] == 2 == len(log)

    def test_frame_beyond_max_pending_is_refused(self):
        server, events = make_server(max_pending=2)

        async def drive():
            await server.start()
            streams = [
                await asyncio.open_connection(server.host, server.port) for _ in range(3)
            ]
            try:
                for seq, (_, writer) in zip((5, 6, 7), streams):
                    writer.write(stamped(events, seq))
                    await asyncio.sleep(0.05)
                refused = await read_frame(streams[2][0])
                stats = await fetch_stats(server)
            finally:
                await server.stop(drain_timeout=0.1)
                for _, writer in streams:
                    writer.close()
            return refused, stats

        refused, stats = asyncio.run(drive())
        assert refused["type"] == "error" and refused["seq"] == 7
        assert "waiting for seq 0" in refused["payload"]["message"]
        assert stats["parked"] == stats["parked_high_water"] == 2
