"""Process serving mode: digest parity with loopback, worker crash and
restart, shard-subset servers, and the routes clients dial workers by.

The differential tests drive operations *sequentially*, so every write
is its own group commit in both serving modes and the WAL byte streams
— hence the state digests — must match exactly.  Anything that needs a
worker process is marked with a module-local helper so a sandbox that
cannot spawn processes skips rather than fails.
"""

import asyncio
import multiprocessing
import os
import threading

import pytest

from repro.net.client import ClusterClient
from repro.net.errors import (
    ServerUnavailableError,
    ShardDegradedError,
    TransientNetError,
)
from repro.net.mp import SHARD_ACTIVE, SHARD_DEGRADED, ProcessKVServer, make_server
from repro.net.protocol import (
    FrameDecoder,
    Op,
    Request,
    Route,
    Status,
    decode_payload,
    encode_frame,
)
from repro.net.server import KVServer, ServerConfig
from repro.net.transport import StreamEndpoint
from repro.workloads.distributions import KeyCodec, value_bytes

CODEC = KeyCodec(16)


def K(i):
    return CODEC.encode(i)


def V(i, size=64):
    return value_bytes(i, size)


def config(shards=2, num_keys=400, seed=7, **overrides):
    return ServerConfig(
        shards=shards,
        uniform_keys=num_keys,
        seed=seed,
        cache_bytes=1 << 20,
        **overrides,
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Shard-subset servers (the worker building block, no processes needed)
# ----------------------------------------------------------------------
class TestShardSubset:
    def test_subset_keeps_global_identity(self):
        async def main():
            full = KVServer(config(shards=3))
            subset = KVServer(config(shards=3), shard_ids=[1])
            assert [s.index for s in subset.shards] == [1]
            # Same prefix and seed as the shard inside the full server.
            assert subset.shards[0].db is not full.shards[1].db
            ops = [K(i) for i in range(0, 300, 7)]
            for key in ops:
                full.shards[1].db.put(key, b"x" + key)
                subset.shards[0].db.put(key, b"x" + key)
            full.shards[1].db.wait_idle()
            subset.shards[0].db.wait_idle()
            assert subset.shards[0].state_digest() == full.shards[1].state_digest()
            await full.aclose()
            await subset.aclose()

        run(main())

    def test_unhosted_shard_answers_bad_shard(self):
        async def main():
            server = KVServer(config(shards=2), shard_ids=[0])
            client = await ClusterClient.open_loopback(server)
            # Direct request to the unhosted shard: BAD_SHARD, not a crash.
            from repro.net.errors import RemoteError

            with pytest.raises(RemoteError) as excinfo:
                await client._call(
                    Request(
                        op=Op.GET,
                        request_id=client._alloc_id(),
                        shard=1,
                        key=K(1),
                    )
                )
            assert excinfo.value.status == Status.BAD_SHARD
            await client.aclose()
            await server.aclose()

        run(main())

    def test_shard_ids_out_of_range_rejected(self):
        from repro.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            KVServer(config(shards=2), shard_ids=[5])


# ----------------------------------------------------------------------
# Differential: process mode vs loopback mode
# ----------------------------------------------------------------------
async def _drive_workload(server, ops=240, keys=96):
    """A seeded mixed workload, driven sequentially; returns everything
    a client can observe (get results, applied flags, scans)."""
    client = await ClusterClient.open_loopback(server)
    observed = []
    for i in range(ops):
        key = K((i * 13) % keys)
        observed.append(await client.put(key, V(i)))
        if i % 3 == 0:
            observed.append(await client.get(key))
        if i % 17 == 0:
            observed.append(await client.delete(K((i * 5) % keys)))
        if i % 40 == 0:
            observed.append(tuple(await client.scan(limit=20)))
    observed.append(tuple(await client.scan()))
    await server.wait_idle()
    digests = server.state_digests()
    totals = server.total_ops()
    await client.aclose()
    await server.aclose()
    return digests, observed, totals


class TestProcessModeDifferential:
    def test_digests_and_results_match_loopback(self):
        async def main():
            loop_digests, loop_obs, loop_totals = await _drive_workload(
                KVServer(config(shards=2, seed=21))
            )
            proc_digests, proc_obs, proc_totals = await _drive_workload(
                ProcessKVServer(config(shards=2, seed=21))
            )
            assert proc_digests == loop_digests  # byte-identical state
            assert proc_obs == loop_obs  # identical client-visible results
            assert proc_totals == loop_totals
            # Re-run process mode: process mode is self-deterministic too.
            again_digests, again_obs, _ = await _drive_workload(
                ProcessKVServer(config(shards=2, seed=21))
            )
            assert again_digests == proc_digests
            assert again_obs == proc_obs

        run(main())

    def test_clocks_read_through_the_workers_match_loopback(self):
        async def clocks(server):
            client = await ClusterClient.open_loopback(server)
            for i in range(60):
                assert await client.put(K(i), V(i))
            await server.wait_idle()
            seen = (server.shard_sim_times(), server.sim_now())
            await client.aclose()
            await server.aclose()
            return seen

        async def main():
            times, now = await clocks(KVServer(config(shards=2, seed=21)))
            assert len(times) == 2 and now == max(times) > 0
            server = ProcessKVServer(config(shards=2, seed=21, supervise=False))
            assert await clocks(server) == (times, now)

        run(main())


# ----------------------------------------------------------------------
# Worker crash → UNAVAILABLE → restart/resume
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_crash_unavailable_restart_resume(self):
        async def main():
            # supervise=False: this test exercises the *manual* restart
            # path, so the auto-restart supervisor must stay out of it.
            server = ProcessKVServer(config(shards=2, supervise=False))
            client = await ClusterClient.open_loopback(
                server, max_retries=2, backoff_base=0.001, backoff_max=0.01
            )
            key = K(1)
            shard = None
            assert await client.put(key, b"before-crash")
            shard = client.router.shard_for(key)
            # Kill the worker process outright (simulates a crash).
            worker = server._workers[shard]
            worker.process.kill()
            worker.process.join(10)
            assert not server.worker_alive(shard)
            with pytest.raises(ServerUnavailableError):
                await client.get(key)
            assert client.stats.retries > 0  # UNAVAILABLE was retried
            # The other shard keeps serving while one is down.
            other_key = next(
                K(i) for i in range(400) if client.router.shard_for(K(i)) != shard
            )
            assert await client.put(other_key, b"other-shard-alive")
            assert await client.get(other_key) == b"other-shard-alive"
            # Restart: serving resumes and the replacement worker is
            # restored from the parent's durable ship log, so the write
            # acknowledged before the crash survives it.
            server.restart_shard(shard)
            assert server.worker_alive(shard)
            assert await client.get(key) == b"before-crash"
            assert await client.put(key, b"after-restart")
            assert await client.get(key) == b"after-restart"
            await client.aclose()
            await server.aclose()
            assert all(not w.alive for w in server._workers)

        run(main())

    def test_clean_shutdown_leaves_no_orphans(self):
        async def main():
            server = ProcessKVServer(config(shards=2))
            client = await ClusterClient.open_loopback(server)
            assert await client.put(K(2), b"v")
            assert await client.get(K(2)) == b"v"
            pids = [w.process.pid for w in server._workers]
            await client.aclose()
            await server.aclose()
            return pids

        pids = run(main())
        assert not multiprocessing.active_children()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
# Routes: clients dial the workers, the parent only says where they are
# ----------------------------------------------------------------------
async def raw_call(endpoint, request):
    """One request/response on a bare endpoint (no ClusterClient)."""
    endpoint.write(encode_frame(request.encode()))
    decoder = FrameDecoder()
    while True:
        payload = decoder.next_frame()
        if payload is not None:
            return decode_payload(payload), payload
        chunk = await endpoint.read(65536)
        assert chunk, "peer closed before answering"
        decoder.feed(chunk)


def keys_on(server, shard, count=1):
    found = [i for i in range(400) if server.router.shard_for(K(i)) == shard]
    return found[:count]


class TestRoutes:
    #: The HELLO reply of ``KVServer(config(shards=2))`` to request id 1,
    #: as the commit before routes existed framed it.
    LOOPBACK_HELLO = (
        "1b00000092c91c0e800100020000000102011075736572303030303030303030323030"
    )

    def test_loopback_hello_bytes_unchanged_and_parent_publishes_routes(self):
        async def main():
            hello = Request(op=Op.HELLO, request_id=1)
            loop_server = KVServer(config(shards=2))
            reply, payload = await raw_call(loop_server.connect_loopback(), hello)
            assert encode_frame(payload).hex() == self.LOOPBACK_HELLO
            assert reply.routes == []  # "served on this connection"
            await loop_server.aclose()

            server = ProcessKVServer(config(shards=2, supervise=False))
            reply, _ = await raw_call(server.connect_loopback(), hello)
            assert reply.routes == [
                Route(SHARD_ACTIVE, "127.0.0.1", port) for port in server.worker_ports
            ]
            # A worker answers like a loopback server: no routes, and it
            # never mints — only the parent hands out client ids.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.worker_ports[0]
            )
            worker_reply, _ = await raw_call(StreamEndpoint(reader, writer), hello)
            assert worker_reply.routes == [] and worker_reply.client_id == 0
            assert reply.client_id == 1
            writer.close()
            await server.aclose()

        run(main())

    def test_same_client_follows_a_replaced_worker(self):
        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            client = await ClusterClient.open_loopback(
                server, max_retries=40, backoff_base=0.01, backoff_max=0.25
            )
            shard = 0
            key = K(keys_on(server, shard)[0])
            assert await client.put(key, b"before-crash")
            refreshes = client.stats.route_refreshes
            worker = server._workers[shard]
            worker.process.kill()
            worker.process.join(10)
            # The get meets a dead connection, then a refused dial, and
            # keeps asking the parent until the replacement is published.
            pending = asyncio.ensure_future(client.get(key))
            await asyncio.to_thread(server.restart_shard, shard)
            assert await pending == b"before-crash"
            assert client.stats.retries > 0
            assert client.stats.route_refreshes > refreshes
            assert await client.put(key, b"after-restart")
            await client.aclose()
            await server.aclose()

        run(main())

    def test_no_address_published_before_replay_returned(self):
        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            client = await ClusterClient.open_loopback(server)
            shard = 1
            assert await client.put(K(keys_on(server, shard)[0]), b"in-the-log")
            replaying, release = threading.Event(), threading.Event()
            replay_into = server._replay_into

            def held_replay(shard_id, handle):
                replaying.set()
                assert release.wait(30)
                replay_into(shard_id, handle)

            server._replay_into = held_replay
            restart = asyncio.ensure_future(
                asyncio.to_thread(server.restart_shard, shard)
            )
            assert await asyncio.to_thread(replaying.wait, 30)
            # The replacement process is up and listening, but has not
            # replayed the ship log: its address must not be out yet.
            hello = Request(op=Op.HELLO, request_id=1)
            reply, _ = await raw_call(server.connect_loopback(), hello)
            assert reply.routes[shard] == Route("restarting")
            assert reply.routes[0].state == SHARD_ACTIVE and reply.routes[0].port
            release.set()
            await restart
            reply, _ = await raw_call(server.connect_loopback(), hello)
            assert reply.routes[shard] == Route(
                SHARD_ACTIVE, "127.0.0.1", server.worker_ports[shard]
            )
            assert await client.get(K(keys_on(server, shard)[0])) == b"in-the-log"
            await client.aclose()
            await server.aclose()

        run(main())

    def test_a_failed_replay_stops_the_worker_it_spawned(self):
        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            survivor = server._workers[0].process

            def failing_replay(shard_id, handle):
                raise TransientNetError("replay failed")

            server._replay_into = failing_replay
            with pytest.raises(TransientNetError):
                server.restart_shard(1)
            # Shard 1's old worker was stopped for the restart and the
            # replacement never published: only shard 0's worker runs.
            assert multiprocessing.active_children() == [survivor]
            assert server.shard_state(1) == SHARD_ACTIVE
            await server.aclose()

        run(main())

    def test_degraded_route_raises_without_retry_or_dial(self):
        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            client = await ClusterClient.open_loopback(server, pool_size=1)
            server._shard_states[0] = SHARD_DEGRADED
            before = (client.stats.retries, client.stats.connections_opened)
            with pytest.raises(ShardDegradedError):
                await client.get(K(keys_on(server, 0)[0]))
            assert (client.stats.retries, client.stats.connections_opened) == before
            # The other shard is unaffected.
            other = K(keys_on(server, 1)[0])
            assert await client.put(other, b"v")
            server._shard_states[0] = SHARD_ACTIVE
            await client.aclose()
            await server.aclose()

        run(main())

    def test_parent_refuses_shard_ops_and_stays_usable(self):
        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            endpoint = server.connect_loopback()
            put = Request(op=Op.PUT, request_id=5, shard=0, key=K(1), value=b"v")
            reply, _ = await raw_call(endpoint, put)
            assert reply.request_id == 5 and reply.status == Status.BAD_REQUEST
            reply, _ = await raw_call(endpoint, Request(op=Op.HELLO, request_id=6))
            assert reply.status == Status.OK and len(reply.routes) == 2
            assert server.protocol_errors == 0
            assert server.total_ops()["puts"] == 0  # nothing was relayed
            endpoint.close()
            await server.aclose()

        run(main())

    def test_clean_run_opens_one_pool_per_shard_touched(self):
        async def main():
            server = ProcessKVServer(config(shards=3, supervise=False))
            pool_size = 2
            client = await ClusterClient.open_loopback(server, pool_size=pool_size)
            touched = (0, 2)
            for shard in touched:
                for i in keys_on(server, shard, 4):
                    assert await client.put(K(i), V(i))
                    assert await client.get(K(i)) == V(i)
            stats = client.stats
            assert stats.connections_opened == pool_size + pool_size * len(touched)
            assert stats.route_refreshes == pool_size * len(touched)
            assert stats.retries == 0
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Client ids: one minter per cluster
# ----------------------------------------------------------------------
class TestClientIds:
    def test_worker_does_not_mint_an_id_the_parent_gave_out(self):
        """A worker that minted from its own counter told an anonymous
        socket it was client 1 — the id the parent had given a
        ClusterClient — and the dedup table then dropped its first write
        as a retry of that client's."""

        async def main():
            server = ProcessKVServer(config(shards=2, supervise=False))
            client = await ClusterClient.open_loopback(server)
            assert client.client_id == 1
            index = keys_on(server, 0)[0]
            assert await client.put(K(index), b"first")  # request id 2 or so
            taken = client._next_request_id - 1
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.worker_ports[0]
            )
            endpoint = StreamEndpoint(reader, writer)
            hello, _ = await raw_call(endpoint, Request(op=Op.HELLO, request_id=1))
            assert hello.client_id == 0  # anonymous stays anonymous
            other = K(keys_on(server, 0, 2)[1])
            for request_id in range(2, taken + 1):
                # Every request id client 1 has used so far, re-used by
                # the anonymous socket: each must still apply.
                reply, _ = await raw_call(
                    endpoint,
                    Request(
                        op=Op.PUT,
                        request_id=request_id,
                        shard=0,
                        key=other,
                        value=b"second-%d" % request_id,
                    ),
                )
                assert reply.status == Status.OK and reply.applied
            assert await client.get(other) == b"second-%d" % taken
            writer.close()
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# make_server dispatch
# ----------------------------------------------------------------------
class TestMakeServer:
    def test_modes(self):
        async def main():
            loop_server = make_server(config(shards=1))
            assert isinstance(loop_server, KVServer)
            await loop_server.aclose()
            proc_server = make_server(config(shards=1), serving_mode="process")
            assert isinstance(proc_server, ProcessKVServer)
            await proc_server.aclose()

        run(main())

    def test_unknown_mode_rejected(self):
        from repro.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            make_server(config(shards=1), serving_mode="threads")
