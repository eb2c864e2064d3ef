"""Sharded serving layer: loopback determinism, group commit, retry
idempotence, degraded mode, snapshots, TCP, and the blocking facade.

Everything except the TCP smoke test runs over the in-memory loopback
transport, whose scheduling is a pure function of the call sequence —
same seed, same workload, byte-identical shard states.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.engines.options import StoreOptions
from repro.net.client import BlockingClusterClient, ClusterClient
from repro.net.errors import (
    RemoteError,
    ServerUnavailableError,
    ShardDegradedError,
)
from repro.net.server import KVServer, ServerConfig
from repro.net.transport import ConnectionFaultPlan, FaultyEndpoint
from repro.sim.faults import FaultInjector, FaultPlan
from repro.util.keys import KIND_DELETE, KIND_PUT
from repro.workloads.distributions import KeyCodec, value_bytes

CODEC = KeyCodec(16)


def K(i):
    return CODEC.encode(i)


def V(i, size=64):
    return value_bytes(i, size)


def tiny_options():
    return dataclasses.replace(
        StoreOptions.for_preset("pebblesdb"),
        memtable_bytes=4 * 1024,
        level1_max_bytes=16 * 1024,
        target_file_bytes=8 * 1024,
        top_level_bits=6,
        bit_decrement=1,
    )


def make_server(shards=2, num_keys=400, **overrides):
    overrides.setdefault("engine", "pebblesdb")
    return KVServer(
        ServerConfig(
            shards=shards,
            uniform_keys=num_keys,
            seed=7,
            cache_bytes=1 << 20,
            **overrides,
        )
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Basic serving
# ----------------------------------------------------------------------
class TestLoopbackServing:
    def test_put_get_delete_roundtrip(self):
        async def main():
            server = make_server(shards=2)
            client = await ClusterClient.open_loopback(server)
            for i in range(0, 400, 4):
                assert await client.put(K(i), V(i))
            for i in range(0, 400, 4):
                assert await client.get(K(i)) == V(i)
            assert await client.get(b"user-nonexistent!") is None
            assert await client.delete(K(3))
            assert await client.get(K(3)) is None
            # Both shards saw traffic: range partitioning is real.
            assert all(s.stats.puts > 0 for s in server.shards)
            await client.aclose()
            await server.aclose()

        run(main())

    def test_scan_across_shards_sorted(self):
        async def main():
            server = make_server(shards=4)
            client = await ClusterClient.open_loopback(server)
            for i in range(200):
                await client.put(K(i), V(i))
            await server.wait_idle()
            pairs = await client.scan()
            assert [k for k, _ in pairs] == [K(i) for i in range(200)]
            # Bounded scan with an exclusive hi and a limit.
            pairs = await client.scan(K(50), K(150), limit=30)
            assert len(pairs) == 30
            assert pairs[0][0] == K(50)
            assert pairs == sorted(pairs)
            await client.aclose()
            await server.aclose()

        run(main())

    def test_write_batch_splits_per_shard(self):
        async def main():
            server = make_server(shards=2)
            client = await ClusterClient.open_loopback(server)
            ops = [(KIND_PUT, K(i), V(i)) for i in range(0, 400, 7)]
            ops.append((KIND_DELETE, K(7), b""))
            await client.write_batch(ops)
            assert await client.get(K(7)) is None
            assert await client.get(K(14)) == V(14)
            assert await client.get(K(399 - 399 % 7)) is not None
            assert sum(s.stats.batches for s in server.shards) == 2
            await client.aclose()
            await server.aclose()

        run(main())

    def test_bad_shard_rejected(self):
        async def main():
            server = make_server(shards=2)
            client = await ClusterClient.open_loopback(server)
            from repro.net.protocol import Op, Request

            with pytest.raises(RemoteError):
                await client._call(
                    Request(op=Op.GET, request_id=999, shard=9, key=b"k")
                )
            await client.aclose()
            await server.aclose()

        run(main())

    def test_properties_per_shard(self):
        async def main():
            server = make_server(shards=3)
            client = await ClusterClient.open_loopback(server)
            healths = await client.properties("repro.health")
            assert [h.split()[0] for h in healths] == ["ok", "ok", "ok"]
            assert await client.get_property("repro.no-such") is None
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    @staticmethod
    async def _workload():
        server = make_server(shards=2)
        client = await ClusterClient.open_loopback(server)
        # Concurrent writes exercise group-commit scheduling too.
        await asyncio.gather(*(client.put(K(i), V(i)) for i in range(150)))
        for i in range(0, 150, 3):
            await client.delete(K(i))
        await server.wait_idle()
        digests = server.state_digests()
        times = server.shard_sim_times()
        commits = server.total_ops()["group_commits"]
        await client.aclose()
        await server.aclose()
        return digests, times, commits

    def test_same_seed_same_bytes(self):
        first = run(self._workload())
        second = run(self._workload())
        assert first == second


# ----------------------------------------------------------------------
# Group commit
# ----------------------------------------------------------------------
class TestGroupCommit:
    def test_concurrent_writes_coalesce(self):
        async def main():
            server = make_server(shards=1)
            client = await ClusterClient.open_loopback(server)
            await asyncio.gather(*(client.put(K(i), V(i)) for i in range(64)))
            await server.wait_idle()
            stats = server.shards[0].stats
            assert stats.coalesced_writes == 64
            assert stats.group_commits < 64  # actually grouped
            for i in range(64):
                assert await client.get(K(i)) == V(i)
            await client.aclose()
            await server.aclose()
            return stats.group_commits

        run(main())

    def test_group_commit_disabled_commits_singly(self):
        async def main():
            server = make_server(shards=1, group_commit=False)
            client = await ClusterClient.open_loopback(server)
            await asyncio.gather(*(client.put(K(i), V(i)) for i in range(16)))
            stats = server.shards[0].stats
            assert stats.group_commits == 16
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Shard scaling
# ----------------------------------------------------------------------
class TestShardScaling:
    @staticmethod
    async def _read_rate(shards, num_keys=1200, concurrency=16):
        """Fill, then readrandom at a fixed client concurrency; returns
        (aggregate simulated reads/s, client retries, protocol errors).
        Each shard owns its device and clock, so the slowest shard paces
        the cluster: the rate is ``ops / max-over-shards(clock delta)``."""
        server = make_server(shards=shards, num_keys=num_keys)
        client = await ClusterClient.open_loopback(server, pool_size=2)
        for start in range(0, num_keys, concurrency):
            chunk = range(start, start + concurrency)
            await asyncio.gather(*(client.put(K(i), V(i, 256)) for i in chunk))
        await server.wait_idle()
        rng = random.Random(11)
        indices = [rng.randrange(num_keys) for _ in range(num_keys)]
        before = server.shard_sim_times()
        for start in range(0, num_keys, concurrency):
            chunk = indices[start : start + concurrency]
            values = await asyncio.gather(*(client.get(K(i)) for i in chunk))
            assert values == [V(i, 256) for i in chunk]
        elapsed = max(
            after - was for after, was in zip(server.shard_sim_times(), before)
        )
        result = num_keys / elapsed, client.stats.retries, server.protocol_errors
        await client.aclose()
        await server.aclose()
        return result

    def test_four_shards_read_faster_than_one(self):
        """>= 1.5x the 1-shard aggregate simulated readrandom rate at 4
        shards (measured 4.68x), clean: no retry, no protocol error."""
        one_rate, *one_errors = run(self._read_rate(1))
        four_rate, *four_errors = run(self._read_rate(4))
        assert four_rate >= 1.5 * one_rate
        assert one_errors == four_errors == [0, 0]


# ----------------------------------------------------------------------
# Connection faults: retry, backoff, idempotence
# ----------------------------------------------------------------------
class TestConnectionFaults:
    @staticmethod
    def _wrap(plans):
        """endpoint_wrap hook: apply ``plans[index]`` to connection #index."""

        def wrap(endpoint, index):
            plan = plans.get(index)
            return FaultyEndpoint(endpoint, plan) if plan else endpoint

        return wrap

    def test_cut_connection_write_retries_exactly_once(self):
        async def main():
            server = make_server(shards=1)
            # Connection 0 dies right after its 4th frame
            # (HELLO, put0, put1, put2); later connections are clean.
            client = await ClusterClient.open_loopback(
                server,
                pool_size=1,
                endpoint_wrap=self._wrap(
                    {0: ConnectionFaultPlan(cut_after_frames=3)}
                ),
                sleep=lambda s: asyncio.sleep(0),
            )
            applied = [await client.put(K(i), V(i)) for i in range(6)]
            # put2's frame was delivered before the cut: the retry is
            # recognised as a duplicate and skipped, never applied twice.
            assert applied == [True, True, False, True, True, True]
            totals = server.total_ops()
            assert totals["duplicate_writes"] == 1
            assert totals["puts"] == 7  # 6 writes + 1 retried request
            assert client.stats.retries >= 1
            assert client.stats.connections_opened == 2
            for i in range(6):
                assert await client.get(K(i)) == V(i)
            await client.aclose()
            await server.aclose()

        run(main())

    def test_corrupt_frame_drops_connection_and_retries(self):
        async def main():
            server = make_server(shards=1)
            client = await ClusterClient.open_loopback(
                server,
                pool_size=1,
                endpoint_wrap=self._wrap(
                    {0: ConnectionFaultPlan(corrupt_frames=[2])}
                ),
                sleep=lambda s: asyncio.sleep(0),
            )
            for i in range(5):
                assert await client.put(K(i), V(i))
            # Frame 2 (put1) arrived damaged: the server counted one
            # protocol error and dropped the connection; the retried
            # request was a *first* application, not a duplicate.
            assert server.protocol_errors == 1
            assert server.total_ops()["duplicate_writes"] == 0
            assert client.stats.retries >= 1
            for i in range(5):
                assert await client.get(K(i)) == V(i)
            await client.aclose()
            await server.aclose()

        run(main())

    def test_a_damaged_response_is_retried_on_a_fresh_connection(self):
        """A server->client frame that fails its CRC kills the client's
        connection (``frame_error``); the call retries on a fresh one and
        succeeds, and the client span carries the retry as an event."""
        import io

        from repro.obs.trace import TraceSink, read_trace

        class DamagedRead:
            def __init__(self, inner, at):
                self._inner, self._at, self._reads = inner, at, 0
                self.write, self.close = inner.write, inner.close

            async def read(self, n=65536):
                data = await self._inner.read(n)
                self._reads += 1
                if self._reads == self._at:
                    data = data[:8] + bytes([data[8] ^ 0xFF]) + data[9:]
                return data

            @property
            def is_closed(self):
                return self._inner.is_closed

        async def main():
            server = make_server(shards=1)
            # Reads on connection 0: HELLO's response, put's, then get's.
            client = await ClusterClient.open_loopback(
                server,
                pool_size=1,
                endpoint_wrap=lambda ep, index: DamagedRead(ep, 3) if index == 0 else ep,
                sleep=lambda s: asyncio.sleep(0),
            )
            buffer = io.StringIO()
            client.enable_tracing(TraceSink(buffer))
            assert await client.put(K(0), V(0))
            assert await client.get(K(0)) == V(0)
            assert client.stats.retries == 1
            assert client.stats.connections_opened == 2
            assert server.protocol_errors == 0
            await client.aclose()
            await server.aclose()
            spans = read_trace(io.StringIO(buffer.getvalue()))
            events = {span["name"]: span.get("events", []) for span in spans}
            assert events["client.put"] == []
            assert [(e["name"], e["attrs"]) for e in events["client.get"]] == [
                ("retry", {"attempt": 1, "error": "FrameError"})
            ]

        run(main())

    def test_retries_exhausted_raises_unavailable(self):
        async def main():
            server = make_server(shards=1)
            # Every reconnection dies immediately after HELLO.
            plans = {i: ConnectionFaultPlan(cut_after_frames=0) for i in range(1, 10)}
            client = await ClusterClient.open_loopback(
                server,
                pool_size=1,
                max_retries=2,
                endpoint_wrap=self._wrap(plans),
                sleep=lambda s: asyncio.sleep(0),
            )
            assert await client.put(K(0), V(0))
            await client._pool[0].close()  # force reconnection
            with pytest.raises(ServerUnavailableError):
                await client.put(K(1), V(1))
            assert client.stats.transient_errors >= 3
            await client.aclose()
            await server.aclose()

        run(main())

    def test_batch_idempotent_across_retried_connections(self):
        async def main():
            server = make_server(shards=1)
            client = await ClusterClient.open_loopback(
                server,
                pool_size=1,
                endpoint_wrap=self._wrap(
                    {0: ConnectionFaultPlan(cut_after_frames=1)}
                ),
                sleep=lambda s: asyncio.sleep(0),
            )
            # The batch frame is delivered, then the connection dies: the
            # retry must not double-apply (a double-applied delete-then-put
            # batch would be visible through version counting; we assert
            # via the duplicate counter and final state instead).
            await client.write_batch(
                [(KIND_PUT, K(0), b"first"), (KIND_PUT, K(1), b"second")]
            )
            assert server.total_ops()["duplicate_writes"] == 1
            assert await client.get(K(0)) == b"first"
            assert await client.get(K(1)) == b"second"
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Degraded shards
# ----------------------------------------------------------------------
class TestDegradedShard:
    def test_degraded_shard_rejects_writes_serves_reads(self):
        async def main():
            server = make_server(shards=2, options=tiny_options())
            client = await ClusterClient.open_loopback(server)
            router = client.router
            shard1_keys = [i for i in range(400) if router.shard_for(K(i)) == 1]
            baseline = shard1_keys[:20]
            for i in baseline:
                await client.put(K(i), V(i))
            await server.wait_idle()

            # Shard 1's device starts persistently failing sstable writes.
            shard = server.shards[1]
            shard.env.storage.set_fault_injector(
                FaultInjector(
                    FaultPlan.fail_nth(
                        0, op="append", name_pattern="*.sst",
                        kind="persistent", times=None,
                    )
                )
            )
            with pytest.raises(ShardDegradedError):
                for n, i in enumerate(shard1_keys[20:]):
                    await client.put(K(i), V(n, 512))
            assert shard.db.is_degraded
            assert shard.stats.degraded_rejects >= 1

            # Reads on the degraded shard keep serving; the healthy shard
            # accepts writes throughout.
            for i in baseline:
                assert await client.get(K(i)) == V(i)
            healthy = next(i for i in range(400) if router.shard_for(K(i)) == 0)
            assert await client.put(K(healthy), b"fine")
            healths = await client.properties("repro.health")
            assert [h.split()[0] for h in healths] == ["ok", "degraded"]

            # Operator clears the cause and resumes: writes flow again.
            shard.env.storage.set_fault_injector(None)
            assert shard.db.resume() is True
            assert await client.put(K(shard1_keys[21]), b"recovered")
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Snapshots over the wire
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_reads_are_stable(self):
        async def main():
            server = make_server(shards=2)
            client = await ClusterClient.open_loopback(server)
            for i in range(50):
                await client.put(K(i), b"old%d" % i)
            snap = await client.snapshot()
            for i in range(50):
                await client.put(K(i), b"new%d" % i)
            assert await client.get(K(5), snapshot=snap) == b"old5"
            assert await client.get(K(5)) == b"new5"
            pairs = await client.scan(snapshot=snap)
            assert all(v.startswith(b"old") for _, v in pairs)
            await client.release(snap)
            with pytest.raises(RemoteError):
                await client.get(K(5), snapshot=snap)
            await client.aclose()
            await server.aclose()

        run(main())

    def test_snapshot_unsupported_engine(self):
        async def main():
            server = make_server(shards=1, engine="btree")
            client = await ClusterClient.open_loopback(server)
            await client.put(b"k", b"v")
            with pytest.raises(RemoteError):
                await client.snapshot()
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# TCP path
# ----------------------------------------------------------------------
class TestTcp:
    def test_tcp_smoke(self):
        async def main():
            server = make_server(shards=2)
            await server.serve_tcp(port=0)
            host, port = server.tcp_address
            client = await ClusterClient.open_tcp(host, port)
            for i in range(40):
                assert await client.put(K(i), V(i))
            for i in range(40):
                assert await client.get(K(i)) == V(i)
            pairs = await client.scan(limit=10)
            assert len(pairs) == 10
            assert server.protocol_errors == 0
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Blocking facade: workload drivers run unchanged against a cluster
# ----------------------------------------------------------------------
class TestBlockingClient:
    def test_store_shaped_surface(self):
        db = BlockingClusterClient(make_server(shards=2))
        try:
            db.put(b"user000000000001", b"one")
            db.put(b"user000000000300", b"far")
            assert db.get(b"user000000000001") == b"one"
            db.delete(b"user000000000001")
            assert db.get(b"user000000000001") is None
            db.write_batch([(KIND_PUT, K(i), V(i)) for i in range(10)])
            assert len(db.scan(limit=5)) == 5
            with db.seek(K(0)) as it:
                seen = 0
                while it.valid and seen < 8:
                    assert it.value() is not None
                    it.next()
                    seen += 1
            assert db.stats().puts >= 11
            assert db.get_property("repro.health").split()[0] == "ok"
            db.wait_idle()
        finally:
            db.close()

    def test_ycsb_runs_against_cluster(self):
        from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

        db = BlockingClusterClient(make_server(shards=2, num_keys=300))
        try:
            runner = YcsbRunner(
                db, db.storage, record_count=300, value_size=64, seed=1
            )
            load = runner.load()
            assert load.ops == 300
            result = runner.run(YCSB_WORKLOADS["A"], 200)
            assert result.ops == 200
            assert result.elapsed_seconds > 0
            scans = runner.run(YCSB_WORKLOADS["E"], 60)
            assert scans.ops == 60
        finally:
            db.close()


# ----------------------------------------------------------------------
# The connection loop: one task per connection, one call_soon per commit
# ----------------------------------------------------------------------
def send(endpoint, requests):
    from repro.net.protocol import encode_frame

    for request in requests:
        endpoint.write(encode_frame(request.encode()))


async def receive(endpoint, count):
    """Read until ``count`` responses arrived (or the peer closed);
    responses in arrival order."""
    from repro.net.protocol import FrameDecoder, decode_payload

    decoder = FrameDecoder()
    responses = []
    while len(responses) < count:
        chunk = await endpoint.read(65536)
        if not chunk:
            break
        decoder.feed(chunk)
        while True:
            payload = decoder.next_frame()
            if payload is None:
                break
            responses.append(decode_payload(payload))
    return responses


async def exchange(endpoint, requests):
    send(endpoint, requests)
    return await receive(endpoint, len(requests))


class TestConnectionLoop:
    @staticmethod
    def _puts(ids, shard=0):
        from repro.net.protocol import Op, Request

        return [
            Request(op=Op.PUT, request_id=i, shard=shard, key=K(i), value=V(i))
            for i in ids
        ]

    def test_two_connections_coalesce_deterministically(self):
        async def main():
            server = make_server(shards=1)
            client = await ClusterClient.open_loopback(server, pool_size=2)
            await asyncio.gather(*(client.put(K(i), V(i)) for i in range(64)))
            await server.wait_idle()
            stats = server.shards[0].stats
            assert client.stats.connections_opened == 2
            assert stats.coalesced_writes == 64
            assert stats.group_commits < 64
            result = stats.group_commits, server.state_digests()
            await client.aclose()
            await server.aclose()
            return result

        assert run(main()) == run(main())

    def test_half_closed_connection_gets_every_parked_answer(self):
        from repro.net.protocol import Op, Request, Status

        async def main():
            server = make_server(shards=1)
            endpoint = server.connect_loopback()
            await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            send(endpoint, self._puts(range(2, 22)))
            endpoint._tx.feed_eof()  # half-close: we still read
            responses = await receive(endpoint, 20)
            assert sorted(r.request_id for r in responses) == list(range(2, 22))
            assert all(r.status == Status.OK and r.applied for r in responses)
            assert await endpoint.read() == b""  # then the server closed
            assert server.shards[0].stats.coalesced_writes == 20
            for i in range(2, 22):
                assert server.shards[0].db.get(K(i)) == V(i)
            await server.aclose()

        run(main())

    def test_engine_exception_answers_server_error_and_connection_lives(self):
        from repro.net.protocol import Op, Request, Status

        async def main():
            server = make_server(shards=1)
            db = server.shards[0].db
            db.put(K(1), b"v")
            real_get, calls = db.get, []

            def flaky_get(key, **kwargs):
                calls.append(key)
                if len(calls) == 1:
                    raise RuntimeError("boom")
                return real_get(key, **kwargs)

            db.get = flaky_get
            endpoint = server.connect_loopback()
            get = lambda rid: Request(op=Op.GET, request_id=rid, key=K(1))
            first, second = await exchange(endpoint, [get(1), get(2)])
            assert first.status == Status.SERVER_ERROR
            assert "RuntimeError: boom" in first.message
            assert second.status == Status.OK and second.value == b"v"
            endpoint.close()
            await server.aclose()

        run(main())

    def test_failed_group_commit_fails_the_batch_and_stays_retryable(self):
        from repro.net.protocol import Op, Request, Status

        async def main():
            server = make_server(shards=1)
            shard = server.shards[0]
            endpoint = server.connect_loopback()
            (hello,) = await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            assert hello.client_id == 1  # a real id: dedup is on
            shard.env.storage.set_fault_injector(
                FaultInjector(
                    FaultPlan.fail_nth(0, op="append", name_pattern="*.log", times=1)
                )
            )
            puts = self._puts(range(2, 6))
            failed = await exchange(endpoint, puts)
            assert [r.status for r in failed] == [Status.SERVER_ERROR] * 4
            assert shard.stats.group_commits == 0 and shard.stats.errors == 4
            assert not any(shard._dedup.seen(1, r.request_id) for r in puts)
            # The same ids again: one commit applies them all, once ...
            retried = await exchange(endpoint, puts)
            assert all(r.status == Status.OK and r.applied for r in retried)
            assert shard.stats.group_commits == 1
            assert shard.stats.coalesced_writes == 4
            # ... and a third send is recognised as a duplicate.
            again = await exchange(endpoint, puts)
            assert all(r.status == Status.OK and not r.applied for r in again)
            assert shard.stats.duplicate_writes == 4
            assert shard.stats.group_commits == 1
            endpoint.close()
            await server.aclose()

        run(main())

    def test_no_task_per_request(self):
        from repro.net.protocol import Op, Request

        async def main():
            server = make_server(shards=1)
            db = server.shards[0].db
            endpoint = server.connect_loopback()
            await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            idle = len(asyncio.all_tasks())  # this test + the connection
            real_get, seen = db.get, []

            def counting_get(key, **kwargs):
                seen.append(len(asyncio.all_tasks()))
                return real_get(key, **kwargs)

            db.get = counting_get
            gets = [Request(op=Op.GET, request_id=i, key=K(i)) for i in range(2, 102)]
            assert len(await exchange(endpoint, gets)) == 100
            assert len(seen) == 100 and max(seen) == idle
            endpoint.close()
            await server.aclose()

        run(main())

    def test_traced_put_and_get_span_tree(self):
        import io

        from repro.obs.trace import TraceSink, read_trace, verify_nesting

        buffer = io.StringIO()
        client = BlockingClusterClient(make_server(shards=2))
        client.enable_tracing(TraceSink(buffer))
        client.put(K(1), b"v")
        client.get(K(1))
        client.close()
        spans = read_trace(io.StringIO(buffer.getvalue()))
        verify_nesting(spans)
        names = {span["span"]: span["name"] for span in spans}
        tree = sorted(
            (span["trace"], span["name"], span["kind"], names.get(span.get("parent")))
            for span in spans
        )
        put, get = sorted({span["trace"] for span in spans})
        # As recorded when a request was still a task of its own.
        assert tree == [
            (put, "client.put", "client", None),
            (put, "server.put", "server", "client.put"),
            (put, "write", "internal", "server.put"),
            (get, "client.get", "client", None),
            (get, "get", "internal", "server.get"),
            (get, "server.get", "server", "client.get"),
        ]


# ----------------------------------------------------------------------
# The blocking client's iterator behaves like an engine's DBIterator
# ----------------------------------------------------------------------
class TestClientIterator:
    @staticmethod
    def _walk(store, start, steps):
        """Every call an iterator answers, in order: ``valid``, ``key()``,
        ``value()`` (or the exception they raise) and ``next()``, for
        ``steps`` steps from ``seek(start)`` — past the end included."""
        calls = []
        with store.seek(start) as it:
            for _ in range(steps):
                calls.append(("valid", it.valid))
                for name in ("key", "value"):
                    try:
                        calls.append((name, getattr(it, name)()))
                    except Exception as exc:
                        calls.append((name, type(exc).__name__))
                calls.append(("next", it.next()))
        return calls

    def test_seeks_and_nexts_agree_with_an_engine_call_by_call(self):
        import repro
        from repro.engines.registry import create_store

        env = repro.Environment(cache_bytes=1 << 20)
        engine = create_store("pebblesdb", env.storage, prefix="db/", seed=7)
        cluster = BlockingClusterClient(make_server(shards=2, num_keys=400))
        empty = BlockingClusterClient(make_server(shards=2, num_keys=400))
        try:
            assert self._walk(empty, K(0), 3) == self._walk(engine, K(0), 3)
            for i in range(0, 400, 2):  # both shards, more than two pages
                engine.put(K(i), V(i))
                cluster.put(K(i), V(i))
            assert cluster.client.router.shard_for(K(100)) == 0
            assert cluster.client.router.shard_for(K(398)) == 1
            for start, steps in (
                (K(100), 160),  # crosses the 128-pair page and the shard boundary
                (K(0), 203),  # every key, then exhausted
                (K(397), 4),  # the last key, then past the end
                (K(400), 3),  # a seek past the last key
            ):
                assert self._walk(cluster, start, steps) == self._walk(engine, start, steps)
        finally:
            cluster.close()
            empty.close()
            engine.close()
