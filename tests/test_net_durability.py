"""Durability of the process serving mode: log shipping, supervised
auto-restart, graceful handoff, and the client retry budget.

The headline contract (ISSUE 7): a same-seed run with a mid-workload
worker kill converges to the *byte-identical* per-shard state digest of
an uninterrupted run for all acknowledged writes.  The differential
chaos tests below sweep seeded kill points across both sides of the
ship boundary:

* ``before_ship`` — the commit was applied in the worker but its ship
  record never reached the parent, and the client was never acked; the
  client's retry re-applies it (exactly once) in the replacement worker.
* ``after_ship`` — the record reached the parent but the client was
  never acked; replay restores the commit *and* the dedup table, so the
  client's retry deduplicates (``applied == False``) instead of
  double-applying.

Both land on the digest of the no-crash run because replaying the full
ship log re-issues the exact ``write_batch`` sequence the original
worker executed (engine storage bytes are a pure function of that
sequence under sequential driving).
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.net.client import ClusterClient
from repro.net.errors import (
    RetriesExhaustedError,
    ServerUnavailableError,
    ShardDegradedError,
    TransientNetError,
)
from repro.net.mp import (
    SHARD_ACTIVE,
    SHARD_DEGRADED,
    ProcessKVServer,
)
from repro.net.server import ServerConfig
from repro.sim.faults import KillPoint
from repro.workloads.distributions import KeyCodec, value_bytes

CODEC = KeyCodec(16)


def K(i):
    return CODEC.encode(i)


def V(i, size=64):
    return value_bytes(i, size)


class FastServer(ProcessKVServer):
    """The process server with a supervisor that ticks fast enough for a
    test to watch a restart."""

    HEARTBEAT_INTERVAL = 0.05
    RESTART_BACKOFF_BASE = 0.01
    RESTART_BACKOFF_MAX = 0.05


class HangWatchServer(FastServer):
    HEARTBEAT_TIMEOUT = 0.3


class StormServer(FastServer):
    MAX_CONSECUTIVE_RESTARTS = 2
    RESTART_PROBATION = 30.0  # storms never look healthy


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


async def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def open_client(server, **overrides):
    # Generous retry budget: a supervised restart (process spawn +
    # replay) can take around a second, and retries must outlast it.
    overrides.setdefault("max_retries", 40)
    overrides.setdefault("backoff_base", 0.01)
    overrides.setdefault("backoff_max", 0.25)
    return await ClusterClient.open_loopback(server, **overrides)


def shard_keys(server, shard, count, start=0):
    """The first ``count`` workload keys that route to ``shard``."""
    router = server.router
    keys = []
    i = start
    while len(keys) < count:
        if router.shard_for(K(i)) == shard:
            keys.append(i)
        i += 1
    return keys


# ----------------------------------------------------------------------
# Headline contract: crash-during-group-commit differential
# ----------------------------------------------------------------------
class TestCrashDifferential:
    async def _drive(self, server, indices):
        """Sequential puts then gets; returns (applied flags, digests)."""
        client = await open_client(server)
        applied = []
        for i in indices:
            applied.append(await client.put(K(i), V(i)))
        for i in indices:
            assert await client.get(K(i)) == V(i), f"acknowledged key {i} lost"
        await server.wait_idle()
        digests = server.state_digests()
        await client.aclose()
        return applied, digests

    def _differential(self, seed):
        kill = KillPoint.seeded(seed, lo=2, hi=6)
        indices = list(range(24))

        async def main():
            # Uninterrupted run: the reference digests.
            baseline = FastServer(config(supervise=False))
            base_applied, base_digests = await self._drive(baseline, indices)
            await baseline.aclose()
            assert all(base_applied)

            # Same seed, same ops — but shard 0's worker dies at the
            # seeded group-commit boundary and the supervisor restores it.
            server = FastServer(config())
            server.arm_worker_kill(0, kill.after_commits, kill.mode)
            crash_applied, crash_digests = await self._drive(server, indices)
            restarts = server.registry.value("supervisor.restarts", shard=0)
            await server.aclose()

            assert restarts >= 1, "the armed kill never fired"
            # No acknowledged write lost, no double apply: byte-identical.
            assert crash_digests == base_digests
            # after_ship: the killed commit was shipped, so the client's
            # retry deduplicates — exactly one False.  before_ship: the
            # retry re-applies it — all True.
            if kill.mode == "after_ship":
                assert crash_applied.count(False) == 1
            else:
                assert all(crash_applied)

        run(main())

    def test_seeded_kill_converges_seed1(self):
        self._differential(1)  # before_ship (see KillPoint.seeded)

    def test_seeded_kill_converges_seed7(self):
        self._differential(7)  # after_ship

    def test_both_modes_explicitly(self):
        # The seeded points above cover both modes; pin them explicitly
        # too so a KillPoint hash change cannot silently lose coverage.
        async def main():
            results = {}
            for mode in ("before_ship", "after_ship"):
                server = FastServer(config())
                server.arm_worker_kill(0, 3, mode)
                applied, digests = await self._drive(server, list(range(24)))
                await server.aclose()
                results[mode] = digests
                if mode == "after_ship":
                    assert applied.count(False) == 1
                else:
                    assert all(applied)
            assert results["before_ship"] == results["after_ship"]

        run(main())


# ----------------------------------------------------------------------
# Supervisor: death detection, hang detection, restart storms
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_auto_restart_after_kill(self):
        async def main():
            server = FastServer(config())
            client = await open_client(server)
            assert await client.put(K(1), b"survives")
            shard = client.router.shard_for(K(1))
            server._workers[shard].process.kill()
            # No manual restart: the supervisor notices and replays.
            assert await wait_for(
                lambda: server.worker_alive(shard)
                and server.shard_state(shard) == SHARD_ACTIVE
                and server.registry.value("supervisor.restarts", shard=shard)
                >= 1
            )
            assert await client.get(K(1)) == b"survives"
            await client.aclose()
            await server.aclose()

        run(main())

    def test_hang_detection(self):
        async def main():
            server = HangWatchServer(config())
            client = await open_client(server)
            assert await client.put(K(1), b"survives-hang")
            shard = client.router.shard_for(K(1))
            # Stop the worker's control loop (the ping deadline misses)
            # while its process stays alive.
            reply = server._workers[shard].call("hang", 60.0)
            assert reply == ("hanging",)
            assert await wait_for(
                lambda: server.registry.value(
                    "supervisor.heartbeat_misses", shard=shard
                )
                >= 1
                and server.registry.value("supervisor.restarts", shard=shard)
                >= 1
                and server.shard_state(shard) == SHARD_ACTIVE
            )
            assert await client.get(K(1)) == b"survives-hang"
            await client.aclose()
            await server.aclose()

        run(main())

    def test_restart_storm_trips_breaker_then_resume(self):
        async def main():
            server = StormServer(config())
            client = await open_client(server, max_retries=30)
            shard = 0
            keys = shard_keys(server, shard, 10)
            # Every restarted worker dies on its next fresh commit.
            server.arm_worker_kill(shard, 1, "after_ship", repeat=True)
            acked = []
            with pytest.raises(ShardDegradedError):
                for i in keys:
                    await client.put(K(i), V(i))
                    acked.append(i)
            assert server.shard_state(shard) == SHARD_DEGRADED
            assert (
                server.registry.value("supervisor.breaker_trips", shard=shard)
                >= 1
            )
            # Sticky: still DEGRADED, immediately (no retry loop).
            before = client.stats.retries
            with pytest.raises(ShardDegradedError):
                await client.get(K(keys[0]))
            assert client.stats.retries == before
            # Operator clears the fault and resumes: replay brings back
            # every write that reached the ship log.
            server.clear_worker_kill(shard)
            server.resume_shard(shard)
            assert server.shard_state(shard) == SHARD_ACTIVE
            for i in acked:
                assert await client.get(K(i)) == V(i)
            assert await client.put(K(keys[-1]), b"post-resume")
            await client.aclose()
            await server.aclose()

        run(main())

    def test_replacement_dying_before_its_handshake_is_one_failed_attempt(self):
        """A replacement whose engine cannot open exits before it reports
        its port.  The supervisor counts each such attempt once, keeps
        running, and trips the breaker after MAX_CONSECUTIVE_RESTARTS of
        them; with the cause gone, resume_shard brings the data back."""

        class CountingServer(StormServer):
            def _spawn_worker(self, shard_id):
                self.spawns = getattr(self, "spawns", 0) + 1
                return super()._spawn_worker(shard_id)

        async def main():
            server = CountingServer(config())
            try:
                client = await open_client(server)
                shard = 0
                key = K(shard_keys(server, shard, 1)[0])
                assert await client.put(key, b"in-the-log")
                spawned = server.spawns
                # Every worker spawned from here on dies before its handshake.
                server.config.engine = "no-such-engine"
                server._workers[shard].process.kill()
                assert await wait_for(
                    lambda: server.shard_state(shard) == SHARD_DEGRADED
                )
                assert server._supervisor.is_alive()
                assert server.spawns - spawned == StormServer.MAX_CONSECUTIVE_RESTARTS
                server.config.engine = "pebblesdb"
                server.resume_shard(shard)
                assert server.shard_state(shard) == SHARD_ACTIVE
                assert await client.get(key) == b"in-the-log"
                await client.aclose()
            finally:
                await server.aclose()

        run(main())

    def test_worker_that_cannot_start_fails_the_constructor_cleanly(self):
        with pytest.raises(TransientNetError, match="handshake"):
            FastServer(config(engine="no-such-engine"))
        assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
# Graceful handoff (rolling restart)
# ----------------------------------------------------------------------
class TestHandoff:
    def test_handoff_under_concurrent_writes(self):
        async def main():
            server = FastServer(config())
            client = await open_client(server, max_retries=30)
            indices = list(range(60))

            async def writer():
                for i in indices:
                    assert await client.put(K(i), V(i)) is not None
                return True

            task = asyncio.ensure_future(writer())
            await asyncio.sleep(0.05)  # let some writes land first
            duration = await asyncio.to_thread(server.handoff_shard, 0)
            assert await task  # no write errored — only transient retries
            assert duration > 0
            assert server.registry.value("handoff.count", shard=0) == 1
            assert server.registry.value("handoff.last_seconds", shard=0) > 0
            for i in indices:
                assert await client.get(K(i)) == V(i)
            await server.wait_idle()
            assert server.shard_state(0) == SHARD_ACTIVE
            await client.aclose()
            await server.aclose()

        run(main())

    def test_handoff_refused_while_not_active(self):
        async def main():
            server = FastServer(config(supervise=False))
            server._shard_states[0] = SHARD_DEGRADED
            with pytest.raises(Exception):
                server.handoff_shard(0)
            server._shard_states[0] = SHARD_ACTIVE
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Snapshots: log truncation + logical restore
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_truncates_log_and_restores(self):
        async def main():
            server = FastServer(
                config(shards=1, supervise=False, snapshot_interval=5)
            )
            client = await open_client(server)
            for i in range(12):
                assert await client.put(K(i), V(i))
            # Kill + restart: the drainer EOFs, so everything shipped
            # (records 1..12 and the snapshots at 5 and 10) is durable.
            server._workers[0].process.kill()
            server.restart_shard(0)
            snap_bytes, log_bytes = server.shiplog_sizes()[0]
            assert snap_bytes > 0, "no snapshot was shipped"
            # The log was truncated at the snapshot: only the records
            # after commit 10 remain, so it is far smaller than the snap.
            assert 0 < log_bytes < snap_bytes
            # Logical restore: every acknowledged write is back.
            for i in range(12):
                assert await client.get(K(i)) == V(i)
            assert await client.put(K(100), b"post-restore")
            assert await client.get(K(100)) == b"post-restore"
            await client.aclose()
            await server.aclose()

        run(main())


    def test_a_shipped_snapshot_restores_a_shard_exactly(self):
        """The worker half of the test above, in one process: a shard's
        export goes through the ship codec and restores a fresh shard to
        the same pairs and the same dedup table."""
        from repro.net.protocol import decode_ship_record, encode_ship_snapshot
        from repro.net.server import KVServer, Shard

        async def main():
            server = KVServer(config(shards=1))
            client = await ClusterClient.open_loopback(server)
            for i in range(12):
                assert await client.put(K(i), V(i))
            shard = server.shards[0]
            pairs, dedup = shard.export_snapshot()
            await client.aclose()
            await server.aclose()
            return shard.config, pairs, dedup

        shard_config, pairs, dedup = run(main())
        assert len(pairs) == 12 and dedup
        record = decode_ship_record(encode_ship_snapshot(12, pairs, dedup))
        fresh = Shard(0, shard_config)
        fresh.restore_snapshot(record.pairs, record.dedup)
        assert record.seq == 12
        assert fresh.export_snapshot() == (pairs, dedup)


# ----------------------------------------------------------------------
# Worker shutdown escalation (satellite a)
# ----------------------------------------------------------------------
class TestShutdownEscalation:
    def test_hung_worker_is_terminated_and_pipe_closed(self):
        async def main():
            server = FastServer(config(shards=1, supervise=False))
            handle = server._workers[0]
            # The control loop stops reading, so the graceful shutdown
            # message is never seen; shutdown() must escalate.
            assert handle.call("hang", 60.0) == ("hanging",)
            start = time.monotonic()
            handle.shutdown(timeout=0.3)
            elapsed = time.monotonic() - start
            assert not handle.alive
            assert handle.conn.closed
            assert elapsed < 10  # escalation, not a full hang wait
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Client retry budget (satellite b)
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_backoff_is_deterministic_and_capped(self):
        async def main():
            server = FastServer(config(shards=1, supervise=False))
            a = await open_client(server, retry_budget=1.0)
            b = await open_client(server, retry_budget=1.0)
            delays_a = [a._backoff_delay(5, n) for n in range(6)]
            delays_b = [b._backoff_delay(5, n) for n in range(6)]
            assert delays_a == delays_b  # same seed inputs, same delays
            assert all(d <= a._backoff_max for d in delays_a)
            # Jitter keeps delays in [0.5, 1.0) of the exponential value.
            for n, d in enumerate(delays_a):
                nominal = min(a._backoff_base * (2 ** n), a._backoff_max)
                assert 0.5 * nominal <= d < nominal
            await a.aclose()
            await b.aclose()
            await server.aclose()

        run(main())

    def test_budget_exhaustion_raises_distinct_error(self):
        async def main():
            server = FastServer(config(shards=1, supervise=False))
            client = await open_client(
                server, max_retries=50, retry_budget=0.05
            )
            server._workers[0].process.kill()
            server._workers[0].process.join(10)
            with pytest.raises(RetriesExhaustedError) as excinfo:
                await client.get(K(1))
            error = excinfo.value
            assert isinstance(error, ServerUnavailableError)  # compat
            assert error.attempts >= 1
            assert error.backoff_spent <= 0.05
            await client.aclose()
            await server.aclose()

        run(main())


# ----------------------------------------------------------------------
# Admission control under supervised restart (ISSUE 8)
# ----------------------------------------------------------------------
class TestOverloadDuringRestart:
    def test_throttled_clients_lose_nothing_across_restart(self):
        """Concurrent writers squeezed through a tiny write-debt cap
        while shard 0's worker dies at a shipped-but-unacked commit: the
        supervisor restores the shard, every OVERLOADED shed is retried
        through, zero acknowledged writes are lost, and the shipped
        commit deduplicates on retry instead of double-applying."""

        async def main():
            server = FastServer(
                config(max_write_debt=2, overload_retry_after=0.001)
            )
            try:
                clients = [await open_client(server) for _ in range(4)]
                shard = 0
                keys = shard_keys(server, shard, 96)
                # after_ship: the group commit the kill lands on was
                # shipped to the parent but never acked — the clients'
                # retries of its writes must dedup, not re-apply.
                server.arm_worker_kill(shard, 8, "after_ship")
                acked = {}
                applied_flags = []

                async def put(client, i):
                    applied_flags.append(await client.put(K(i), V(i)))
                    acked[i] = V(i)

                async def hammer(client, chunk):
                    # Two puts in flight per writer: they reach the shard
                    # in one event-loop turn, so the cap sheds however
                    # fast the engine drains its group commits.
                    for a, b in zip(chunk[::2], chunk[1::2]):
                        await asyncio.gather(put(client, a), put(client, b))

                await asyncio.gather(
                    *(
                        hammer(client, keys[n::4])
                        for n, client in enumerate(clients)
                    )
                )
                restarts = server.registry.value(
                    "supervisor.restarts", shard=shard
                )
                assert restarts >= 1, "the armed kill never fired"
                backoffs = sum(
                    client.stats.overload_backoffs for client in clients
                )
                assert backoffs > 0, "admission control never shed a write"
                # The shipped-unacked group commit held >= 1 write; each
                # of its retries was recognised as a duplicate.  Nothing
                # else may dedup, and nothing may be lost.
                dedups = applied_flags.count(False)
                assert 1 <= dedups <= len(clients)
                assert len(acked) == len(keys)
                reader = clients[0]
                for i, value in acked.items():
                    assert await reader.get(K(i)) == value, (
                        f"acknowledged key {i} lost across restart"
                    )
                for client in clients:
                    await client.aclose()
            finally:
                await server.aclose()

        run(main())

    def test_overload_alone_never_loses_or_duplicates(self):
        """No crash, just pressure: the cap sheds writes, every retry
        lands exactly once (all puts applied, none deduplicated)."""

        async def main():
            server = FastServer(
                config(max_write_debt=2, overload_retry_after=0.001)
            )
            try:
                clients = [await open_client(server) for _ in range(4)]
                keys = list(range(80))
                applied_flags = []

                async def hammer(client, chunk):
                    for i in chunk:
                        applied_flags.append(await client.put(K(i), V(i)))

                await asyncio.gather(
                    *(
                        hammer(client, keys[n::4])
                        for n, client in enumerate(clients)
                    )
                )
                backoffs = sum(
                    client.stats.overload_backoffs for client in clients
                )
                assert backoffs > 0, "admission control never shed a write"
                assert all(applied_flags)  # no spurious dedup
                reader = clients[0]
                for i in keys:
                    assert await reader.get(K(i)) == V(i)
                for client in clients:
                    await client.aclose()
            finally:
                await server.aclose()

        run(main())
