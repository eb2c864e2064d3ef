"""Multiprocessing serving mode: one OS process per shard, made durable.

The loopback :class:`~repro.net.server.KVServer` hosts every shard on one
asyncio event loop — fully deterministic, but one GIL means simulated
throughput never becomes wall-clock throughput.  This module runs the
*same* server, sharded across processes:

* Each **worker process** hosts ``KVServer(config, shard_ids=[i])`` — one
  shard with its global identity (``shardN/`` storage prefix, ``seed+N``
  engine seed), serving the ordinary CRC-framed wire protocol on a
  private TCP port.  Because the worker runs the identical engine with
  the identical seed on its own simulated device, a same-seed workload
  produces byte-identical shard state in both serving modes.
* The **parent** (:class:`ProcessKVServer`) supervises the workers over
  ``multiprocessing`` control pipes (startup handshake, digests,
  simulated clocks, shutdown) and is *not* on the data path: its HELLO
  reply carries one :class:`~repro.net.protocol.Route` per shard, the
  client dials the workers itself, and the parent's own connections
  answer only HELLO and ``Op.ADMIN``.

Worker state is **externalized by log shipping**: before a group commit
is acknowledged, the worker writes a :func:`~repro.net.protocol
.encode_ship_commit` record — the combined batch ops plus the fresh
``(client_id, request_id)`` pairs — to a dedicated one-way pipe, and the
parent appends it to a per-shard durable log in the parent's *own*
:class:`repro.Environment`.  Optionally (``snapshot_interval``) the
worker also ships compact snapshots that let the parent truncate the
log.  Because a record sits in the pipe before any acknowledgement
reaches the client, an acknowledged write survives the worker process.

On top of the log sit three recovery mechanisms:

* **Supervisor** — a heartbeat/deadline loop that detects worker death
  (``is_alive``) or hang (a ``ping`` that misses its deadline), restarts
  the worker with capped deterministic backoff, and replays snapshot +
  log — including the dedup table, so retried writes stay exactly-once
  across the crash.  ``max_consecutive_restarts`` failures inside the
  probation window trip a restart-storm breaker into sticky
  ``DEGRADED`` (mirroring the PR 2 persistent-fault taxonomy); an
  operator's :meth:`ProcessKVServer.resume_shard` clears it.
* **restart_shard** — the manual restart now *restores* the shard from
  the durable log instead of starting empty.
* **handoff_shard** — graceful rolling restart: drain the worker's
  queued commits, shut it down (its final ship records land first),
  replay into a fresh worker, and re-route.  Clients observe only
  transient retries, never data loss.

All three replace a worker through one routine, and a replacement's
address is published in the routes only after its replay returned: no
client can reach a worker that has not caught up with the ship log, and
a write the old worker acknowledged while draining or dying was shipped
before it was acknowledged, so it is in that log.

A full-log replay re-issues the exact ``write_batch`` sequence the
original worker executed, so the restored engine state is byte-identical
to an uninterrupted run — the differential durability tests assert
exactly that.  Snapshot-truncated replay is a *logical* restore (same
key-value state and dedup table, different physical sstable layout).

Determinism boundary: *within* a shard everything stays deterministic
(its engine, clock, and WAL see the same op sequence either way); what
the process mode gives up is the deterministic *interleaving across
shards* that the single loopback event loop provided.  Workloads that
need cross-shard determinism (the differential tests) drive operations
in a deterministic per-shard order, which both modes preserve.

Workers are started with the ``spawn`` method: forking a process that
already runs an asyncio loop (or threads) is unsafe, and spawn gives
identical semantics on Linux and macOS.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro
from repro.errors import InvalidArgumentError, ReproError
from repro.net.errors import TransientNetError
from repro.net.protocol import (  # noqa: F401  (shard states re-exported)
    SHARD_ACTIVE,
    SHARD_DEGRADED,
    SHARD_HANDOFF,
    SHARD_RESTARTING,
    SHIP_SNAPSHOT,
    Op,
    Request,
    Response,
    Route,
    Status,
    decode_ship_record,
    encode_ship_commit,
    encode_ship_snapshot,
)
from repro.net.server import (
    ClientLink,
    FrameServer,
    KVServer,
    ServerConfig,
    server_error,
    text_response,
)
from repro.obs.admin import aggregate_admin
from repro.obs.ledger import IoLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.sim.storage import IoAccount
from repro.wal.log import LogReader, LogWriter

#: Exit code a seeded kill-point uses, so a chaos-killed worker is
#: distinguishable from a real fault in test diagnostics.
KILL_POINT_EXIT = 17


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _CommitShipper:
    """Worker-side replication source: ships commits, applies replays.

    ``seq`` is the shard's commit ordinal.  It survives restarts through
    the replayed records, so the shipped stream stays monotonic across
    worker generations.  Also hosts the seeded kill-point used by the
    chaos tests: :meth:`arm` makes the worker ``os._exit`` at an exact
    group-commit boundary — ``before_ship`` (applied but never
    externalized nor acknowledged) or ``after_ship`` (externalized but
    never acknowledged; the retry must deduplicate).
    """

    def __init__(self, conn, shard, config: ServerConfig) -> None:
        self._conn = conn
        self._shard = shard
        self._config = config
        self.seq = 0
        self._kill_at: Optional[int] = None
        self._kill_mode = "after_ship"

    def arm(self, after_commits: int, mode: str) -> None:
        self._kill_at = self.seq + max(1, after_commits)
        self._kill_mode = mode

    def on_commit(self, ops: list, ids: List[Tuple[int, int]]) -> None:
        self.seq += 1
        dying = self._kill_at is not None and self.seq >= self._kill_at
        if dying and self._kill_mode == "before_ship":
            os._exit(KILL_POINT_EXIT)  # applied, never shipped, never acked
        self._ship(encode_ship_commit(self.seq, ids, ops))
        if dying:
            os._exit(KILL_POINT_EXIT)  # shipped, never acked: dedup territory
        interval = self._config.snapshot_interval
        if interval and self.seq % interval == 0:
            pairs, dedup = self._shard.export_snapshot()
            self._ship(encode_ship_snapshot(self.seq, pairs, dedup))

    def _ship(self, record: bytes) -> None:
        try:
            self._conn.send_bytes(record)
        except (BrokenPipeError, OSError):
            pass  # parent gone; the control-pipe EOF shuts us down next

    def replay(self, snapshot: Optional[bytes], records: List[bytes]):
        """Apply snapshot + commit records; returns (records, ops, bytes)."""
        applied_records = applied_ops = total_bytes = 0
        if snapshot is not None:
            record = decode_ship_record(snapshot)
            self._shard.restore_snapshot(record.pairs, record.dedup)
            self.seq = record.seq
            total_bytes += len(snapshot)
        for raw in records:
            record = decode_ship_record(raw)
            self._shard.apply_shipped_commit(record.ops, record.ids)
            self.seq = record.seq
            applied_records += 1
            applied_ops += len(record.ops)
            total_bytes += len(raw)
        return applied_records, applied_ops, total_bytes


def _shard_worker_main(conn, ship_conn, config: ServerConfig, shard_id: int) -> None:
    """Entry point of one shard worker (runs in the spawned process)."""
    try:
        asyncio.run(_shard_worker(conn, ship_conn, config, shard_id))
    except KeyboardInterrupt:  # pragma: no cover - operator interrupt
        pass
    finally:
        conn.close()
        ship_conn.close()


async def _shard_worker(conn, ship_conn, config: ServerConfig, shard_id: int) -> None:
    # The parent is the cluster's only minter of client ids.
    server = KVServer(config, shard_ids=[shard_id], mints_client_ids=False)
    shipper = _CommitShipper(ship_conn, server.shards[0], config)
    if config.ship_log:
        server.shards[0].on_commit = shipper.on_commit
    await server.serve_tcp()
    loop = asyncio.get_running_loop()
    conn.send(("ready", server.tcp_address[1]))
    try:
        while True:
            try:
                message = await loop.run_in_executor(None, conn.recv)
            except (EOFError, OSError):
                break  # parent died or closed the pipe; shut down
            cmd = message[0]
            if cmd == "shutdown":
                break
            elif cmd == "digest":
                await server.wait_idle()
                conn.send(("digest", server.state_digests()[0]))
            elif cmd == "sim_time":
                conn.send(("sim_time", server.shard_sim_times()[0]))
            elif cmd == "totals":
                conn.send(("totals", server.total_ops(), server.protocol_errors))
            elif cmd == "admin":
                # Raw per-shard stats parts (everything in them pickles);
                # the parent aggregates with the same function loopback
                # mode uses, so both modes expose identical sections.
                conn.send(("admin", server._admin_parts()))
            elif cmd == "wait_idle":
                await server.wait_idle()
                conn.send(("idle",))
            elif cmd == "ping":
                conn.send(("pong",))
            elif cmd == "replay":
                stats = shipper.replay(message[1], message[2])
                await server.wait_idle()
                conn.send(("replayed",) + stats)
            elif cmd == "arm_kill":
                shipper.arm(message[1], message[2])
                conn.send(("armed",))
            elif cmd == "hang":
                # Test hook: stop answering control traffic (the event
                # loop keeps serving) so the supervisor's ping deadline
                # can observe a hung worker.
                conn.send(("hanging",))
                await asyncio.sleep(message[1])
            else:  # pragma: no cover - protocol drift guard
                conn.send(("error", f"unknown control command {cmd!r}"))
    finally:
        await server.aclose()
    try:
        conn.send(("bye",))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


class _WorkerHandle:
    """Parent-side handle: process, control pipe, serving port."""

    def __init__(self, shard_id: int, process, conn, port: int) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.port = port
        #: Serializes control-pipe round-trips (they may run on executor
        #: threads, so this is a *thread* lock, not an asyncio one).
        self.lock = threading.Lock()
        #: Set by the ship drainer once the worker's replication stream
        #: is fully consumed (EOF after the process exited) — restarts
        #: wait on it so no shipped record is lost to a race.
        self.drained = threading.Event()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def call(self, *message, timeout: Optional[float] = None):
        """One control round-trip; raises TransientNetError when dead.

        With ``timeout``, a worker that does not answer inside the
        deadline raises too — the hung-worker case the supervisor kills.
        """
        with self.lock:
            if not self.alive:
                raise TransientNetError(
                    f"shard {self.shard_id} worker is not running"
                )
            try:
                self.conn.send(message)
                if timeout is not None and not self.conn.poll(timeout):
                    raise TransientNetError(
                        f"shard {self.shard_id} control call {message[0]!r} "
                        f"timed out after {timeout}s"
                    )
                return self.conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise TransientNetError(
                    f"shard {self.shard_id} worker control pipe failed: {exc}"
                ) from exc

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop with escalation, never leaking the worker.

        Shutdown message → join; still alive → ``terminate()`` (SIGTERM)
        → join; still alive → ``kill()`` (SIGKILL) → join.  The control
        pipe is closed unconditionally, so a worker that ignores every
        signal still cannot leak descriptors into later tests.
        """
        with self.lock:
            try:
                if self.alive:
                    try:
                        self.conn.send(("shutdown",))
                    except (BrokenPipeError, OSError):
                        pass
                self.process.join(timeout)
                if self.alive:
                    self.process.terminate()
                    self.process.join(timeout)
                if self.alive:  # pragma: no cover - SIGTERM ignored
                    self.process.kill()
                    self.process.join(timeout)
            finally:
                self.conn.close()


# ----------------------------------------------------------------------
# Parent: supervisor + routes
# ----------------------------------------------------------------------
class ProcessKVServer(FrameServer):
    """KVServer-shaped frontend over one worker process per shard.

    Duck-types the :class:`~repro.net.server.KVServer` surface the
    clients, benchmarks, and tests use (``connect_loopback``,
    ``serve_tcp``, ``wait_idle``, ``aclose``, ``state_digests``,
    ``total_ops``, ``sim_now``, ...), so :class:`ClusterClient` and
    :class:`BlockingClusterClient` work unchanged against it.

    Introspection calls are control-pipe round-trips to the workers;
    they are synchronous and intended for test/benchmark checkpoints,
    not the data path.  The data path does not touch this process at
    all: a client learns each shard's worker address from the routes in
    the HELLO reply and talks to the workers directly; a connection to
    the parent answers HELLO (the routes, a minted client id) and
    ``Op.ADMIN``, and any shard-routed frame with ``BAD_REQUEST``.

    Durability plumbing: every worker ships acknowledged commits over a
    dedicated pipe; a per-worker drainer thread appends them to the
    shard's durable log in :attr:`env` (the parent's own simulated
    Environment); the supervisor thread restarts dead/hung workers and
    replays the log.  :attr:`registry` exposes restart counts, heartbeat
    misses, ship/replay volumes, and handoff durations.
    """

    def __init__(self, config: Optional[ServerConfig] = None, **overrides) -> None:
        super().__init__(config, overrides)
        config = self.config
        #: Parent-side observability (supervisor/ship/replay/handoff).
        self.registry = MetricsRegistry()
        #: (shard_id, time.monotonic()) per completed restart — the
        #: availability benchmark derives time-to-recover from these.
        self.restart_events: List[Tuple[int, float]] = []
        #: The parent's own Environment: home of the durable ship logs.
        self.env = repro.Environment(cache_bytes=1 << 20)
        #: Parent-side flight recorder: supervisor events (heartbeat
        #: misses, restarts, breaker trips) land in its ring, and a
        #: supervised restart or breaker trip dumps it — a SIGKILLed
        #: worker cannot dump its own recorder, so the parent's is the
        #: one that survives to explain what happened.
        self.recorder = FlightRecorder(
            component="supervisor",
            seed=config.seed,
            clock=self.env.clock,
            mode="errors",
            dump_dir=config.trace_dump_dir,
        )
        self._log_lock = threading.Lock()
        self._log_account = IoAccount("shiplog", self.env.clock)
        self._log_writers: Dict[int, LogWriter] = {}
        self._kill_plans: Dict[int, Tuple[int, str]] = {}
        self._shard_states: List[str] = [SHARD_ACTIVE] * config.shards
        # Re-entrant: handoff_shard checks the state under the lock it
        # then replaces the worker under.
        self._shard_locks = [threading.RLock() for _ in range(config.shards)]
        self._consecutive_failures = [0] * config.shards
        self._last_restart = [0.0] * config.shards
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[_WorkerHandle] = [
            self._spawn_worker(i) for i in range(config.shards)
        ]
        self._supervisor: Optional[threading.Thread] = None
        if config.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-supervisor", daemon=True
            )
            self._supervisor.start()

    def _spawn_worker(self, shard_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        ship_recv, ship_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, ship_send, self.config, shard_id),
            name=f"repro-shard{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        ship_send.close()
        tag, port = parent_conn.recv()  # startup handshake
        assert tag == "ready", f"worker {shard_id} bad handshake: {tag}"
        handle = _WorkerHandle(shard_id, process, parent_conn, port)
        threading.Thread(
            target=self._drain_ship,
            args=(shard_id, ship_recv, handle.drained),
            name=f"repro-ship{shard_id}",
            daemon=True,
        ).start()
        plan = self._kill_plans.get(shard_id)
        if plan is not None:
            handle.call("arm_kill", plan[0], plan[1])
        return handle

    # ------------------------------------------------------------------
    # Durable ship log (parent Environment)
    # ------------------------------------------------------------------
    def _log_name(self, shard_id: int) -> str:
        return f"shard{shard_id}/ship.log"

    def _snap_name(self, shard_id: int) -> str:
        return f"shard{shard_id}/ship.snap"

    def _drain_ship(self, shard_id: int, ship_conn, drained: threading.Event) -> None:
        """Per-worker drainer thread: pipe records → durable log."""
        try:
            while True:
                try:
                    record = ship_conn.recv_bytes()
                except (EOFError, OSError):
                    break  # worker exited; every buffered record was read
                self._append_ship(shard_id, record)
        finally:
            try:
                ship_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            drained.set()

    def _append_ship(self, shard_id: int, record: bytes) -> None:
        with self._log_lock:
            storage = self.env.storage
            if record and record[0] == SHIP_SNAPSHOT:
                # A snapshot supersedes everything shipped before it:
                # persist it, then truncate the commit log.
                snap = self._snap_name(shard_id)
                if storage.exists(snap):
                    storage.delete(snap)
                LogWriter(storage, snap).append(
                    record, self._log_account, sync=True
                )
                log = self._log_name(shard_id)
                if storage.exists(log):
                    storage.delete(log)
                self._log_writers[shard_id] = LogWriter(storage, log)
            else:
                writer = self._log_writers.get(shard_id)
                if writer is None:
                    writer = LogWriter(storage, self._log_name(shard_id))
                    self._log_writers[shard_id] = writer
                writer.append(record, self._log_account, sync=True)
            self.registry.counter("shiplog.records", shard=shard_id).inc()
            self.registry.counter("shiplog.bytes", shard=shard_id).inc(len(record))

    def _read_ship_log(self, shard_id: int) -> Tuple[Optional[bytes], List[bytes]]:
        with self._log_lock:
            storage = self.env.storage
            snapshot: Optional[bytes] = None
            snap = self._snap_name(shard_id)
            if storage.exists(snap):
                for payload in LogReader(storage, snap).records(self._log_account):
                    snapshot = payload
            records: List[bytes] = []
            log = self._log_name(shard_id)
            if storage.exists(log):
                records = list(
                    LogReader(storage, log).records(self._log_account)
                )
            return snapshot, records

    def shiplog_sizes(self) -> List[Tuple[int, int]]:
        """Per-shard (snapshot bytes, log bytes) on the parent's storage."""
        with self._log_lock:
            storage = self.env.storage
            sizes = []
            for shard_id in range(self.config.shards):
                snap, log = self._snap_name(shard_id), self._log_name(shard_id)
                sizes.append(
                    (
                        storage.size(snap) if storage.exists(snap) else 0,
                        storage.size(log) if storage.exists(log) else 0,
                    )
                )
            return sizes

    def _replay_into(self, shard_id: int, handle: _WorkerHandle) -> None:
        snapshot, records = self._read_ship_log(shard_id)
        if snapshot is None and not records:
            return
        reply = handle.call("replay", snapshot, records)
        assert reply[0] == "replayed", f"bad replay reply: {reply[0]}"
        _, nrecords, nops, nbytes = reply
        self.registry.counter("replay.records", shard=shard_id).inc(nrecords)
        self.registry.counter("replay.ops", shard=shard_id).inc(nops)
        self.registry.counter("replay.bytes", shard=shard_id).inc(nbytes)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    @property
    def worker_ports(self) -> List[int]:
        """Each shard worker's TCP port (benchmark drivers connect direct)."""
        return [worker.port for worker in self._workers]

    def worker_alive(self, shard_id: int) -> bool:
        return self._workers[shard_id].alive

    def shard_state(self, shard_id: int) -> str:
        """The shard's serving state (active/restarting/handoff/degraded)."""
        return self._shard_states[shard_id]

    def arm_worker_kill(
        self,
        shard_id: int,
        after_commits: int = 1,
        mode: str = "after_ship",
        *,
        repeat: bool = False,
    ) -> None:
        """Chaos hook: make the worker die at a group-commit boundary.

        ``mode`` picks the crash point relative to log shipping (see
        :class:`_CommitShipper`); ``repeat`` re-arms every restarted
        worker — the restart-storm scenario that trips the breaker.
        """
        if mode not in ("before_ship", "after_ship"):
            raise InvalidArgumentError(f"unknown kill mode {mode!r}")
        if repeat:
            self._kill_plans[shard_id] = (after_commits, mode)
        self._workers[shard_id].call("arm_kill", after_commits, mode)

    def clear_worker_kill(self, shard_id: int) -> None:
        self._kill_plans.pop(shard_id, None)

    def _ping_worker(self, handle: _WorkerHandle) -> bool:
        """True when the worker answered (or is busy answering someone)."""
        if not handle.lock.acquire(blocking=False):
            return True  # a control call is mid-flight: the pipe is live
        try:
            if not handle.process.is_alive():
                return False
            try:
                handle.conn.send(("ping",))
                if handle.conn.poll(self.config.heartbeat_timeout):
                    handle.conn.recv()
                    return True
                # Deadline missed.  A late pong would desynchronize the
                # pipe, but the caller kills the worker for exactly this
                # case, so the pipe dies with it.
                return False
            except (EOFError, BrokenPipeError, OSError):
                return False
        finally:
            handle.lock.release()

    def _supervise(self) -> None:
        """Heartbeat loop: detect death/hang, restart, trip the breaker."""
        config = self.config
        probation = max(config.restart_probation, 2 * config.heartbeat_interval)
        while not self._closed:
            time.sleep(config.heartbeat_interval)
            for shard_id in range(config.shards):
                if self._closed:
                    return
                if self._shard_states[shard_id] != SHARD_ACTIVE:
                    continue
                handle = self._workers[shard_id]
                if handle.process.is_alive():
                    if self._ping_worker(handle):
                        if (
                            self._consecutive_failures[shard_id]
                            and time.monotonic() - self._last_restart[shard_id]
                            > probation
                        ):
                            self._consecutive_failures[shard_id] = 0
                        continue
                    # Hung: missed the ping deadline → kill, restart below.
                    self.registry.counter(
                        "supervisor.heartbeat_misses", shard=shard_id
                    ).inc()
                    self.recorder.point(
                        "supervisor.heartbeat_miss", shard=shard_id
                    )
                    handle.process.kill()
                    handle.process.join(config.heartbeat_timeout)
                else:
                    self.recorder.point(
                        "supervisor.worker_death",
                        shard=shard_id,
                        exitcode=handle.process.exitcode,
                    )
                try:
                    self._supervised_restart(shard_id)
                except ReproError:
                    # Spawn/replay failed; count it and let the next tick
                    # retry (or trip the breaker).
                    self._consecutive_failures[shard_id] += 1

    def _supervised_restart(self, shard_id: int) -> None:
        failures = self._consecutive_failures[shard_id]
        if failures >= self.config.max_consecutive_restarts:
            # Restart storm: breaker trips into sticky DEGRADED.
            self._shard_states[shard_id] = SHARD_DEGRADED
            self.registry.counter(
                "supervisor.breaker_trips", shard=shard_id
            ).inc()
            self.recorder.point(
                "supervisor.breaker_trip", shard=shard_id, failures=failures
            )
            self.recorder.dump(f"breaker-trip:shard{shard_id}")
            return
        delay = min(
            self.config.restart_backoff_base * (2 ** failures),
            self.config.restart_backoff_max,
        )
        time.sleep(delay)
        if self._closed:
            return
        self._consecutive_failures[shard_id] = failures + 1
        self._last_restart[shard_id] = time.monotonic()
        self.restart_shard(shard_id)
        self.recorder.point(
            "supervisor.restart", shard=shard_id, attempt=failures + 1
        )
        self.recorder.dump(f"worker-restart:shard{shard_id}")

    def _replace_worker(
        self, shard_id: int, state: str, *, drain: bool, replay: bool = True
    ) -> None:
        """The one way a worker is replaced: [drain →] stop → respawn →
        replay → publish.

        While it runs the shard's route says ``state`` and carries no
        address.  The replacement's address is published — and the state
        flipped back to ``active`` — only after its replay returned, so
        no client can reach a worker that has not caught up with the
        ship log.  On failure the shard keeps its previous state (and
        its old, dead worker's address, which refuses every dial) for
        the supervisor or the operator to try again.
        """
        with self._shard_locks[shard_id]:
            previous = self._shard_states[shard_id]
            self._shard_states[shard_id] = state
            try:
                old = self._workers[shard_id]
                if drain and old.alive:
                    try:
                        old.call("wait_idle", timeout=30.0)  # queued commits
                    except TransientNetError:
                        pass  # died mid-drain; the ship log still has it all
                old.shutdown(timeout=5.0)
                old.drained.wait(timeout=10.0)
                handle = self._spawn_worker(shard_id)
                if replay and self.config.ship_log:
                    self._replay_into(shard_id, handle)
            except BaseException:
                self._shard_states[shard_id] = previous
                raise
            self._workers[shard_id] = handle
            self._shard_states[shard_id] = SHARD_ACTIVE

    def restart_shard(self, shard_id: int, *, replay: bool = True) -> None:
        """Replace a (dead or live) worker and restore the shard's state.

        The replacement replays the durable ship log (newest snapshot +
        commit records) before it is routed to, so every acknowledged
        write — and the dedup table that keeps retries exactly-once —
        survives the old process.  ``replay=False`` restores the PR 6
        start-empty behaviour for tests that want a genuinely fresh
        shard.  A failure leaves the shard as it was: the breaker counts
        the miss and the supervisor (or the operator) tries again.
        """
        self._replace_worker(shard_id, SHARD_RESTARTING, drain=False, replay=replay)
        self.registry.counter("supervisor.restarts", shard=shard_id).inc()
        self.restart_events.append((shard_id, time.monotonic()))

    def resume_shard(self, shard_id: int) -> None:
        """Operator override: clear the restart-storm breaker and bring
        the shard back (replayed from the durable log)."""
        self._consecutive_failures[shard_id] = 0
        self.restart_shard(shard_id)

    def handoff_shard(self, shard_id: int) -> float:
        """Graceful rolling restart: drain → transfer → re-route.

        Queued group commits finish (their ship records land before the
        worker acknowledges the drain), the worker shuts down cleanly,
        a fresh worker replays the durable log, and the route flips to
        it.  In between, the shard's route says ``handoff`` — a
        transient state clients back off and retry through — so the
        rolling restart loses no acknowledged write and surfaces no
        permanent error.  Returns the handoff duration in seconds.
        """
        start = time.monotonic()
        with self._shard_locks[shard_id]:
            state = self._shard_states[shard_id]
            if state != SHARD_ACTIVE:
                raise InvalidArgumentError(
                    f"cannot hand off shard {shard_id} while {state}"
                )
            self._replace_worker(shard_id, SHARD_HANDOFF, drain=True)
            self._consecutive_failures[shard_id] = 0
        duration = time.monotonic() - start
        self.registry.counter("handoff.count", shard=shard_id).inc()
        self.registry.gauge("handoff.last_seconds", shard=shard_id).set(
            round(duration, 6)
        )
        return duration

    # ------------------------------------------------------------------
    # What a connection to the parent answers: routes and the admin plane
    # ------------------------------------------------------------------
    def _routes(self) -> List[Route]:
        """One route per shard; an address only while the shard is active.

        ``_replace_worker`` stores the replacement's handle before it
        flips the state, so an ``active`` read here pairs with a worker
        that has replayed (or with the old one, whose port refuses).
        """
        host = self.config.host
        if host in ("", "0.0.0.0", "::"):
            host = ""  # wildcard: the client substitutes the host it dialled
        return [
            Route(state, host, self._workers[shard].port)
            if state == SHARD_ACTIVE
            else Route(state)
            for shard, state in enumerate(self._shard_states)
        ]

    def _serve(self, link: ClientLink, request: Request) -> None:
        if request.op != Op.ADMIN:
            link.send(
                Response(
                    request_id=request.request_id,
                    status=Status.BAD_REQUEST,
                    message="shard ops are served by the shard's worker: "
                    "dial the route in the HELLO reply",
                )
            )
            return

        def answer(done: "asyncio.Future") -> None:
            try:
                response = text_response(request.request_id, done.result())
            except Exception as exc:  # one failed scrape must not wedge EOF
                response = server_error(request.request_id, exc)
            link.send(response)
            link.unpark()

        # Admin aggregates over every worker; control-pipe round-trips
        # block, so they run off the event loop and the request is parked.
        link.parked += 1
        asyncio.get_running_loop().run_in_executor(
            None, self.admin_text, request.name
        ).add_done_callback(answer)

    # ------------------------------------------------------------------
    # Introspection (control-pipe round-trips)
    # ------------------------------------------------------------------
    def state_digests(self) -> List[str]:
        """Per-shard on-storage digests, gathered from the workers."""
        return [worker.call("digest")[1] for worker in self._workers]

    def shard_sim_times(self) -> List[float]:
        return [worker.call("sim_time")[1] for worker in self._workers]

    def sim_now(self) -> float:
        return max(self.shard_sim_times())

    def total_ops(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for worker in self._workers:
            _, ops, _proto = worker.call("totals")
            for name, value in ops.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def worker_protocol_errors(self) -> int:
        """Bad frames seen by the workers (the CI smoke asserts 0)."""
        return sum(worker.call("totals")[2] for worker in self._workers)

    def metrics_text(self) -> str:
        """Cluster-wide exposition (the ``metrics`` admin section)."""
        return self.admin_text("metrics")

    def _admin_parts(self) -> List[Dict[str, object]]:
        """Per-shard stats parts, gathered over the control pipes.

        The worker ships the exact structure ``KVServer._admin_parts``
        builds; the parent overlays its own view of the shard state and
        substitutes a bare stub for dead/unreachable workers so the
        health section still reports the shard (as restarting/degraded)
        instead of silently dropping it.
        """
        parts: List[Dict[str, object]] = []
        for shard_id, worker in enumerate(self._workers):
            try:
                worker_parts = worker.call("admin", timeout=30.0)[1]
            except TransientNetError:
                worker_parts = [{"shard": shard_id}]
            for part in worker_parts:
                part["state"] = self._shard_states[shard_id]
                parts.append(part)
        return parts

    def admin_text(self, section: str) -> Optional[str]:
        """One aggregated admin section (``Op.ADMIN``); None if unknown.

        Same aggregation as the loopback :class:`KVServer`, plus the
        parent's supervisor registry and the ship-log ledger of the
        parent's own Environment — with ``ship_log`` and ``supervise``
        off those contribute nothing, so a same-seed cluster answers
        identically in both serving modes.
        """
        return aggregate_admin(
            section,
            self._admin_parts(),
            parent_registry=self.registry,
            parent_ledger=IoLedger.from_storage(self.env.storage),
        )

    async def wait_idle(self) -> None:
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            if worker.alive:
                await loop.run_in_executor(None, worker.call, "wait_idle")

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._supervisor.join, 15.0
            )
        await self._close_connections()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.shutdown)

    def close(self) -> None:
        """Synchronous close for callers outside an event loop."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.join(15.0)
        for worker in self._workers:
            worker.shutdown()


def make_server(config: Optional[ServerConfig] = None, *, serving_mode: str = "loopback", **overrides):
    """Build the server for a serving mode: KVServer or ProcessKVServer.

    ``"loopback"`` is the deterministic single-process asyncio server;
    ``"process"`` spawns one worker process per shard and routes clients
    to them.  Both accept the same config/overrides and serve the same
    protocol.
    """
    if serving_mode == "loopback":
        return KVServer(config, **overrides)
    if serving_mode == "process":
        return ProcessKVServer(config, **overrides)
    raise InvalidArgumentError(
        f"unknown serving_mode {serving_mode!r} (use 'loopback' or 'process')"
    )
