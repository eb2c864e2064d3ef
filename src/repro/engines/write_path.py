"""The write path of an LSM-family store: WAL, memtables, stalls and flush.

:class:`WritePath` owns the sequence counter, the WAL, the active and the
immutable memtables, how long a write stalls and under which cause
(LevelDB's ``MakeRoomForWrite``), and when a memtable is flushed.  It
reaches the engine through ``engine``, a weak proxy (a cycle would keep a
dropped store alive until the next full collection): ``tracer``,
``_on_insert_key``, ``_level0_file_count``, ``_schedule_compactions`` and
the ``_l0_conflict_blocked`` it sets, the file counter, and what a flush
job runs through (``_run_protected``, ``_write_sstables``,
``_submit_job``, ``_install_flush``).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.engines.background import DELETE_WAL, BackgroundErrors
from repro.engines.options import StoreOptions
from repro.errors import StorageError
from repro.memtable import Memtable
from repro.obs.stats import StatsCounters
from repro.obs.windows import WindowedHistogram
from repro.sim.executor import BackgroundExecutor, Job
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable.format import ValuePointer
from repro.util.keys import KIND_PUT, KIND_VPTR
from repro.version import VersionEdit
from repro.version.lifecycle import WAL, file_name, numbered_files
from repro.vlog.log import ValueLog
from repro.wal import LogWriter, encode_batch


class WritePath:
    """One store's WAL, memtables, write stalls and flush scheduling."""

    def __init__(
        self,
        storage: SimulatedStorage,
        options: StoreOptions,
        executor: BackgroundExecutor,
        faults: BackgroundErrors,
        stats: StatsCounters,
        engine,
        *,
        prefix: str,
        seed: int,
        user_acct: IoAccount,
        vlog: Optional[ValueLog],
    ) -> None:
        self._storage = storage
        self._options = options
        self._executor = executor
        self._faults = faults
        self._stats = stats
        self._engine = engine
        self._prefix = prefix
        self._seed = seed
        self._clock = storage.clock
        self._cpu = storage.cpu
        self._user_acct = user_acct
        self._wal_acct = storage.foreground_account(prefix + "wal")
        self._vlog = vlog
        self._vlog_acct = storage.foreground_account(prefix + "vlog")
        self.last_sequence = 0
        self.mem = Memtable(seed)
        #: Immutable memtables oldest first, each with the WAL it was logged to.
        self.imm: List[Tuple[Memtable, int]] = []
        self.flush_job: Optional[Job] = None
        self.wal: Optional[LogWriter] = None  # opened by the store's recovery
        self.wal_number = 0
        self._user_bytes = stats.bind("user_bytes_written")
        self._wal_syncs = stats.registry.counter("wal.syncs")
        self._flush_seconds = stats.registry.histogram("flush.seconds")
        #: Sim time up to which stall seconds are charged to a cause
        #: (:meth:`attribute_stall`).
        self._stall_accounted_until = 0.0
        #: Per-write latency over simulated time (the ``write`` window).
        self.window = WindowedHistogram(window_seconds=0.5)

    def open_wal(self, number: int) -> None:
        """Send every later record to a fresh WAL file ``number``."""
        self.wal = LogWriter(self._storage, file_name(self._prefix, number, WAL))
        self.wal_number = number

    def close(self) -> None:
        """Sync the WAL's tail."""
        try:
            self.wal.sync(self._wal_acct)
        except StorageError:
            # Closing anyway: unsynced tail records are lost exactly as
            # an ordinary crash would lose them, which recovery handles.
            pass

    # ==================================================================
    # The write
    # ==================================================================
    def write(self, ops: List[Tuple[int, bytes, bytes]], sync: bool = False) -> None:
        """Apply ``ops`` (keys and values already ``bytes``, keys non-empty)."""
        if not ops:
            return
        trc = self._engine.tracer
        clock = self._clock
        t0 = clock.now
        try:
            if trc is None:
                self._write_impl(ops, sync)
                return
            with trc.span("write", ops=len(ops)) as span:
                self._write_impl(ops, sync, span)
        finally:
            self.window.record(t0, clock.now - t0)

    def _write_impl(
        self, ops: List[Tuple[int, bytes, bytes]], sync: bool, span=None
    ) -> None:
        """The one write path (WAL, then memtable): straight down for the
        common write, each rare case — due job, stall, vlog, sync — a branch."""
        opts = self._options
        cpu = self._cpu
        engine = self._engine
        faults = self._faults
        pending = self._executor.pending
        if pending and pending[0].completion <= self._clock.now:
            self._executor.drain()
        if faults.error is not None:
            raise faults.error
        if (  # the two marks short of which ``_make_room`` has nothing to do
            len(self.imm) > opts.max_immutable_memtables
            or engine._level0_file_count() >= opts.level0_slowdown_trigger
        ):
            self._make_room()
            # Stall waits run background apply callbacks, which may have
            # just moved the store into degraded mode.
            faults.raise_if_failed()
        seq = self.last_sequence + 1
        sync = sync or opts.sync_writes
        # Key–value separation happens *before* the WAL append (BVLSM):
        # large values go to the value log now and the WAL record carries
        # only the pointer, so the value travels through exactly one
        # durable append instead of WAL + every later compaction.
        tree_ops = ops
        vlog = self._vlog
        if vlog is not None:
            threshold = opts.value_separation_bytes
            pointers: List[ValuePointer] = []
            if any(
                kind == KIND_PUT and len(value) >= threshold
                for kind, _, value in ops
            ):
                tree_ops = list(ops)
                try:
                    for i, (kind, key, value) in enumerate(ops):
                        if kind == KIND_PUT and len(value) >= threshold:
                            pointer = vlog.append(
                                key, value, seq + i, self._vlog_acct
                            )
                            pointers.append(pointer)
                            tree_ops[i] = (KIND_VPTR, key, pointer.encode())
                    if sync:
                        vlog.sync(self._vlog_acct)
                except StorageError:
                    # A torn value-log record, or complete records whose
                    # batch then failed: nothing references them, but they
                    # occupy their segment.  Burn the batch's sequence
                    # numbers (a phantom record carries its sequence; were
                    # a later write to reuse it, repair tools rebuilding
                    # from log records could shadow acknowledged data with
                    # the phantom) and count the orphan bytes dead.
                    self.last_sequence = seq + len(ops) - 1
                    vlog.abandon_tail(pointers)
                    raise
        payload = encode_batch(seq, tree_ops)
        wal = self.wal
        assert wal is not None
        try:
            wal.append(payload, self._wal_acct, sync=sync)
        except StorageError:
            # The failed append may have left a torn record; a later
            # record appended after it would be unreachable at replay
            # (the reader stops at the first bad record), so no
            # acknowledged write may ever land in this file again.
            # The memtable was not touched: the write fails cleanly.
            if self._storage.size(wal.name) != wal.size:
                # Bytes landed despite the failure — a torn record, or
                # a *complete* record whose sync failed.  A complete
                # record replays at recovery, so burn its sequence
                # numbers: were a later acknowledged write to reuse
                # them, replay would apply this phantom record first
                # and skip the acknowledged one as a duplicate,
                # silently replacing acknowledged data.
                self.last_sequence = seq + len(ops) - 1
            if vlog is not None and tree_ops is not ops:
                # The batch's value-log records are unreferenced now.
                vlog.abandon_tail(pointers)
            self._switch_wal_file()
            raise
        self._wal_acct.charge_cpu(cpu, "wal_record", cpu.wal_record * len(ops))
        if sync:
            self._wal_syncs.value += 1
            if span is not None:
                span.set(wal_sync=True)
        mem = self.mem
        charge_cpu = self._user_acct.charge_cpu
        on_insert_key = engine._on_insert_key
        bytes_written = 0
        for i, (kind, key, value) in enumerate(tree_ops):
            mem.add(seq + i, kind, key, value)
            charge_cpu(cpu, "memtable_insert", cpu.memtable_insert)
            # User bytes count the *original* value size: write
            # amplification must keep its meaning when the memtable holds
            # a 20-byte pointer in place of a 64 KiB value.
            bytes_written += len(key) + len(ops[i][2])
            on_insert_key(key)
        self._user_bytes.value += bytes_written
        if span is not None:
            span.set(bytes=bytes_written)
        self.last_sequence = seq + len(ops) - 1
        if mem.approximate_bytes >= opts.memtable_bytes:
            self._rotate_memtable()

    def _switch_wal_file(self) -> None:
        """Abandon the current WAL file after a failed append.

        The memtable's earlier records stay readable in the old file (the
        reader stops exactly at the failed record, which was never
        acknowledged); subsequent records go to a fresh file.  The flush
        that makes this memtable durable reclaims both files.
        """
        try:
            self.open_wal(self._engine._alloc_file_number())
        except StorageError as exc:  # pragma: no cover - create is not faulted
            self._faults.fail("WAL rotation", exc)

    # ==================================================================
    # Backpressure
    # ==================================================================
    def _make_room(self) -> None:
        opts = self._options
        engine = self._engine
        clock = self._clock
        # Backpressure from unflushed immutable memtables.
        self._flush_down_to(opts.max_immutable_memtables, "imm_backpressure")
        # Level-0 file count: slow down, then stop.
        l0 = engine._level0_file_count()
        if l0 >= opts.level0_stop_trigger:
            engine._schedule_compactions()
            guard = 0
            while (
                engine._level0_file_count() >= opts.level0_stop_trigger
                and self._executor.pending_count
                and guard < 10000
            ):
                before = clock.now
                cause = (
                    "l0_stop_conflict" if engine._l0_conflict_blocked else "l0_stop"
                )
                self._stall_until(self._executor.peek_next(), cause)
                if engine._l0_conflict_blocked:
                    # The L0 compaction that would relieve this stall was
                    # rejected by the conflict map; charge the wait to it.
                    self._stats.conflict_stall_seconds += clock.now - before
                engine._schedule_compactions()
                guard += 1
        elif l0 >= opts.level0_slowdown_trigger and opts.slowdown_delay > 0.0:
            # Slowdown band: a fixed per-write delay, LevelDB's sleep.
            before = clock.now
            clock.advance(opts.slowdown_delay)
            self.attribute_stall("l0_slowdown", before, clock.now)

    def attribute_stall(self, cause: str, start: float, end: float) -> None:
        """Charge the stall interval ``[start, end]`` to ``cause``.

        Only the part past the attribution watermark is charged, and the
        watermark then advances to ``end`` — so when stall sites nest or
        chain within one write, each sim-clock second lands in exactly
        one ``stall.cause_seconds`` label and the per-cause counters
        always sum to ``stall.seconds``.
        """
        start = max(start, self._stall_accounted_until)
        if end <= start:
            return
        self._stall_accounted_until = end
        waited = end - start
        self._stats.stall_seconds += waited
        self._stats.registry.counter("stall.cause_seconds", cause=cause).value += waited
        trc = self._engine.tracer
        if trc is not None:
            trc.start_span("stall", start=start, cause=cause).end(at=end)

    def _stall_until(self, job: Job, cause: Optional[str]) -> None:
        """Wait for ``job``: a write stall charged to ``cause`` unless None."""
        before = self._clock.now
        self._executor.wait_for(job)
        if cause is not None:
            self.attribute_stall(cause, before, self._clock.now)

    # ==================================================================
    # Memtables and flushing
    # ==================================================================
    def _rotate_memtable(self) -> None:
        engine = self._engine
        self.imm.append((self.mem, self.wal_number))
        self.mem = Memtable(self._seed + len(self.imm) + engine._next_file_number)
        self.open_wal(engine._alloc_file_number())
        self.maybe_schedule_flush()

    def flush(self) -> None:
        """Move the active memtable (if it holds anything) to Level 0, with
        every immutable one, and wait for them."""
        if len(self.mem):
            self._rotate_memtable()
        self._flush_down_to(0)
        if self.imm:
            # Degraded mode: the flush cannot be scheduled; report instead
            # of spinning forever on the unflushable memtable.
            self._faults.raise_if_failed()
        self._executor.drain()

    def _flush_down_to(self, limit: int, cause: Optional[str] = None) -> None:
        """Flush the oldest immutable memtable and wait for it (a stall
        under ``cause``, if given) until at most ``limit`` remain; stop
        when no flush can be scheduled."""
        while len(self.imm) > limit:
            self.maybe_schedule_flush()
            if self.flush_job is None:
                return
            self._stall_until(self.flush_job, cause)

    def maybe_schedule_flush(self) -> None:
        """Compute a flush of the oldest immutable memtable and submit it.

        The sstable is *written* now (so the job's cost is exact) but only
        becomes part of the version — and the memtable only goes away —
        when the job's completion time passes, mirroring a real background
        flush thread.
        """
        if self.flush_job is not None or not self.imm:
            return
        if self._faults.error is not None:
            return
        engine = self._engine
        imm, _ = self.imm[0]
        acct = self._storage.background_account(self._prefix + "flush")
        metas = engine._run_protected(
            "flush", lambda: engine._write_sstables(iter(imm), acct, split_bytes=None)
        )
        if metas is None:  # degraded: the sstable could not be written
            return
        edit = VersionEdit(
            last_sequence=imm.max_sequence,
            next_file_number=engine._next_file_number,
        )
        edit.log_number = self.imm[1][1] if len(self.imm) > 1 else self.wal_number
        cpu = self._cpu
        acct.charge(
            cpu.charge(
                "flush_build", (cpu.merge_entry + cpu.bloom_build_per_key) * len(imm)
            )
        )

        def settle(durable: bool) -> None:
            self.imm.pop(0)
            self.flush_job = None
            self._reclaim_wals(edit.log_number, durable)
            self._stats.flushes += 1

        def span(job: Job):
            return "flush", dict(
                files_out=len(metas),
                bytes_out=sum(m.file_size for m in metas),
                entries=sum(m.num_entries for m in metas),
            )

        self._flush_seconds.record(acct.seconds)
        # The flushed files join Level 0 (and the edit) only at apply time.
        self.flush_job = engine._submit_job(
            "flush", acct.seconds, edit, settle, span,
            prepare=lambda: engine._install_flush(metas, edit),
        )

    def _reclaim_wals(self, log_number: int, durable: bool) -> None:
        """Delete WALs superseded by a flush whose edit is in the MANIFEST.

        All logs numbered below the edit's ``log_number`` are obsolete
        (this also reclaims files abandoned by :meth:`_switch_wal_file`).
        When the edit did *not* reach the MANIFEST the deletions wait for
        resume(): crash recovery would replay the old version, drop the
        flushed sstable as an orphan, and need the WAL as the only
        remaining copy of the data.
        """
        for number, name in numbered_files(self._storage, self._prefix, (WAL,)):
            if number < log_number:
                delete = partial(self._storage.delete, name, missing_ok=True)
                if durable:
                    delete()
                else:
                    self._faults.defer(DELETE_WAL, delete)
