"""Lifecycle tests of the asyncio cache server.

No pytest-asyncio in the toolchain: every test is a sync function driving
its own event loop via ``asyncio.run``.  Each test boots a real server on
an ephemeral localhost port and talks to it over actual TCP.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.benefit import BenefitConfig
from repro.experiments.config import ExperimentConfig, build_scenario_stream
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.equivalence import decision_recorder
from repro.serve.server import CacheServer
from repro.sim.runner import default_policy_specs
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


def make_server(policy: str = "vcover", log=None, **kwargs):
    """A server over the tiny setup; ``log`` (a list) opts into the decision log."""
    catalog, spec, capacity, events = tiny_setup(policy, **kwargs)
    on_decision = decision_recorder(log) if log is not None else None
    return CacheServer(catalog, spec, capacity, on_decision=on_decision), events


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
