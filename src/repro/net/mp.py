"""Multiprocessing serving mode: one OS process per shard, made durable.

The loopback :class:`~repro.net.server.KVServer` hosts every shard on one
event loop: deterministic, but one GIL.  This module runs the *same*
server across processes (docs/architecture.md, "Process model", has the
full contract):

* Each **worker** is ``KVServer(config, shard_ids=[i])``: shard ``i`` with
  its global identity (``shardN/`` prefix, ``seed+N``) on a private TCP
  port, so a same-seed workload leaves byte-identical shard state in both
  serving modes.  Workers start from a ``spawn`` context: forking a
  process that runs an event loop or threads is unsafe.
* The **parent** (:class:`ProcessKVServer`) is off the data path.  Its
  HELLO reply carries one :class:`~repro.net.protocol.Route` per shard
  and clients dial the workers; its own connections answer HELLO and
  ``Op.ADMIN``.  It drives each worker over a control pipe: handshake,
  ``ping``, ``replay``, ``shutdown``, ``run`` (a worker ``KVServer``
  method by name: digests, clocks, op totals, admin parts) and two test
  hooks, ``arm_kill`` and ``hang``.

**Log shipping.**  Before a group commit is acknowledged, the worker
writes its record (combined ops plus the fresh ``(client_id,
request_id)`` pairs) to a one-way pipe, and the parent appends it to a
per-shard durable log in its *own* :class:`repro.Environment`; so an
acknowledged write survives the worker process.  ``snapshot_interval``
adds compact snapshots that truncate the log.  A full-log replay
re-issues the original ``write_batch`` sequence (byte-identical state);
a snapshot replay is a logical restore (same keys, values and dedup
table, different sstable layout).

**Recovery.**  The supervisor thread kills a worker that misses its ping
deadline, restarts dead ones with capped backoff and replays the log,
dedup table included, so retried writes stay exactly-once.
``MAX_CONSECUTIVE_RESTARTS`` restarts inside the probation window trip a
breaker into sticky ``DEGRADED`` until :meth:`ProcessKVServer.resume_shard`;
a replacement that exits before its handshake is one failed attempt
toward it.  :meth:`~ProcessKVServer.restart_shard` does the same by hand
and :meth:`~ProcessKVServer.handoff_shard` drains first (a rolling
restart).  All three go through one routine, which publishes the
replacement's address only after its replay returned.

Determinism holds *within* a shard; process mode gives up the loopback
loop's interleaving *across* shards, so the differential tests drive
operations in a fixed per-shard order.
"""

from __future__ import annotations

import asyncio
import inspect
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
            elif cmd == "run":
                # The parent's introspection: one KVServer method (awaited
                # when async) or attribute, by name; every result pickles.
                result = getattr(server, message[1])
                if callable(result):
                    result = result()
                if inspect.isawaitable(result):
                    result = await result
                conn.send(("result", result))
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

    def __init__(self, shard_id: int, process, conn) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        #: The worker's serving port, known once :meth:`handshake` returned.
        self.port = 0
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

    def handshake(self, timeout: float) -> None:
        """Take the port from the worker's ``("ready", port)``.  A worker
        that exits before it (its engine failed to open, its port to bind)
        or stays silent for ``timeout`` is shut down and reported as
        :class:`TransientNetError`, like any failed restart."""
        try:
            if self.conn.poll(timeout):
                self.port = self.conn.recv()[1]
                return
        except (EOFError, OSError):
            pass  # the worker exited: its end of the pipe closed
        self.shutdown(timeout=1.0)
        raise TransientNetError(
            f"shard {self.shard_id} worker did not complete its handshake "
            f"(exit code {self.process.exitcode})"
        )

    def run(self, name: str, timeout: Optional[float] = None):
        """The worker ``KVServer``'s ``name``: a method's result (awaited
        when async) or an attribute's value, in one control round-trip."""
        return self.call("run", name, timeout=timeout)[1]

    def call(self, *message, timeout: Optional[float] = None, wait: bool = True):
        """One control round-trip; raises TransientNetError when dead.

        With ``timeout``, a worker that does not answer inside the
        deadline raises too — the hung-worker case the supervisor kills.
        ``wait=False`` returns None at once while another round-trip is
        in flight.
        """
        if not self.lock.acquire(wait):
            return None
        try:
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
        finally:
            self.lock.release()

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

    Duck-types the :class:`~repro.net.server.KVServer` surface clients,
    benchmarks and tests use (``serve_tcp``, ``wait_idle``, ``aclose``,
    ``state_digests``, ``total_ops``, ...); its introspection is
    synchronous control-pipe round-trips, meant for checkpoints.  A
    connection to it answers HELLO (routes, a minted client id) and
    ``Op.ADMIN``, and any shard-routed frame with ``BAD_REQUEST``.  A
    drainer thread per worker appends shipped commits to the shard's log
    in :attr:`env`; :attr:`registry` counts restarts, heartbeat misses,
    ship/replay volumes and handoffs.
    """

    # Supervisor timing in wall-clock seconds, fixed; a test that needs a
    # faster supervisor overrides these in a subclass.
    HEARTBEAT_INTERVAL = 0.25  # between ticks
    HEARTBEAT_TIMEOUT = 5.0  # a ping unanswered this long: hung, killed
    MAX_CONSECUTIVE_RESTARTS = 5  # inside probation, then sticky DEGRADED
    RESTART_BACKOFF_BASE = 0.05  # doubled per consecutive restart,
    RESTART_BACKOFF_MAX = 2.0  # up to this
    RESTART_PROBATION = 1.0  # a worker alive this long resets the count
    HANDSHAKE_TIMEOUT = 60.0  # no port by then: the spawn failed

    def __init__(self, config: Optional[ServerConfig] = None, **overrides) -> None:
        super().__init__(config, overrides)
        config = self.config
        #: Parent-side observability (supervisor/ship/replay/handoff).
        self.registry = MetricsRegistry()
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
        self._workers: List[_WorkerHandle] = []
        try:
            for shard_id in range(config.shards):
                self._workers.append(self._spawn_worker(shard_id))
        except ReproError:
            for worker in self._workers:
                worker.shutdown()
            raise
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
        handle = _WorkerHandle(shard_id, process, parent_conn)
        # Drained from before the handshake, so the ship pipe of a worker
        # that dies before it is still read to EOF and closed.
        threading.Thread(
            target=self._drain_ship,
            args=(shard_id, ship_recv, handle.drained),
            name=f"repro-ship{shard_id}",
            daemon=True,
        ).start()
        handle.handshake(self.HANDSHAKE_TIMEOUT)
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
        """True when the worker answered (or is busy answering someone:
        a control call in flight means the pipe is live).

        On a missed deadline a late pong would desynchronize the pipe,
        but the caller kills the worker for exactly that case.
        """
        try:
            handle.call("ping", timeout=self.HEARTBEAT_TIMEOUT, wait=False)
        except TransientNetError:
            return False
        return True

    def _supervise(self) -> None:
        """Heartbeat loop: detect death/hang, restart, trip the breaker."""
        probation = max(self.RESTART_PROBATION, 2 * self.HEARTBEAT_INTERVAL)
        while not self._closed:
            time.sleep(self.HEARTBEAT_INTERVAL)
            for shard_id in range(self.config.shards):
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
                    handle.process.join(self.HEARTBEAT_TIMEOUT)
                else:
                    self.recorder.point(
                        "supervisor.worker_death",
                        shard=shard_id,
                        exitcode=handle.process.exitcode,
                    )
                try:
                    self._supervised_restart(shard_id)
                except ReproError as exc:
                    # Spawn or replay failed (say, the replacement died
                    # before its handshake).  The attempt is counted; the
                    # next tick retries or trips the breaker.
                    self.recorder.point(
                        "supervisor.restart_failed", shard=shard_id, error=str(exc)
                    )

    def _supervised_restart(self, shard_id: int) -> None:
        failures = self._consecutive_failures[shard_id]
        if failures >= self.MAX_CONSECUTIVE_RESTARTS:
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
            self.RESTART_BACKOFF_BASE * (2 ** failures), self.RESTART_BACKOFF_MAX
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

    def _replace_worker(self, shard_id: int, state: str, *, drain: bool) -> None:
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
            handle = None
            try:
                old = self._workers[shard_id]
                if drain and old.alive:
                    try:
                        old.run("wait_idle", timeout=30.0)  # queued commits
                    except TransientNetError:
                        pass  # died mid-drain; the ship log still has it all
                old.shutdown(timeout=5.0)
                old.drained.wait(timeout=10.0)
                handle = self._spawn_worker(shard_id)
                if self.config.ship_log:
                    self._replay_into(shard_id, handle)
            except BaseException:
                if handle is not None:  # spawned, but never published
                    handle.shutdown()
                self._shard_states[shard_id] = previous
                raise
            self._workers[shard_id] = handle
            self._shard_states[shard_id] = SHARD_ACTIVE

    def restart_shard(self, shard_id: int) -> None:
        """Replace a (dead or live) worker and restore the shard's state.

        The replacement replays the durable ship log (newest snapshot +
        commit records) before it is routed to, so every acknowledged
        write — and the dedup table that keeps retries exactly-once —
        survives the old process.  A failure leaves the shard as it was:
        the breaker counts the miss and the supervisor (or the operator)
        tries again.
        """
        self._replace_worker(shard_id, SHARD_RESTARTING, drain=False)
        self.registry.counter("supervisor.restarts", shard=shard_id).inc()

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
        """Per-shard on-storage digests, gathered from the idle workers."""
        for worker in self._workers:
            worker.run("wait_idle")
        return [worker.run("state_digests")[0] for worker in self._workers]

    def shard_sim_times(self) -> List[float]:
        return [worker.run("shard_sim_times")[0] for worker in self._workers]

    def total_ops(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for worker in self._workers:
            for name, value in worker.run("total_ops").items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def worker_protocol_errors(self) -> int:
        """Bad frames seen by the workers (the CI smoke asserts 0)."""
        return sum(worker.run("protocol_errors") for worker in self._workers)

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
                worker_parts = worker.run("_admin_parts", timeout=30.0)
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
                await loop.run_in_executor(None, worker.run, "wait_idle")

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
