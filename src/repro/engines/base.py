"""The machinery shared by all LSM-family engines.

:class:`LSMStoreBase` keeps what LSM and FLSM engines have in common
beyond their two paths — the public operations, snapshots, the level
objects (:mod:`repro.core.guards`), the one sstable writer, recovery, stats
and properties — and leaves to subclasses what a compaction picks and
computes.  It constructs the collaborators that own the rest: the write
path (:mod:`repro.engines.write_path`: WAL, memtables, stalls, flush), the
read path (:mod:`repro.engines.read_path`: table cache, pins, probe loop,
scan walker), the MANIFEST (:mod:`repro.version.lifecycle`), retries and
the sticky background error (:mod:`repro.engines.background`), and the
compaction lifecycle (:mod:`repro.engines.compaction`).  The store
interface (:mod:`repro.engines.interface`) and the stats plane
(:mod:`repro.obs.stats`) are re-exported here under their old names.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs.admin import compact_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.stats import STAT_METRICS, StatsCounters, StoreStats  # noqa: F401 (re-exports)
from repro.obs.trace import Tracer
from repro.obs.windows import WindowedHistogram
from repro.errors import CorruptionError, InvalidArgumentError, StorageError, StoreClosedError
from repro.memtable import Memtable
from repro.memtable.memtable import GetResult
from repro.sim.executor import BackgroundExecutor
from repro.sim.ratelimit import TokenBucket
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable import SSTableBuilder, SSTableReader
from repro.sstable.format import Entry
from repro.util.keys import KIND_DELETE, KIND_PUT
from repro.vlog.log import ValueLog
from repro.version import ManifestWriter, VersionEdit, read_current
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_NONE
from repro.version.lifecycle import (
    TABLE,
    ManifestLog,
    create_manifest,
    file_name,
    next_file_number,
    remove_orphans,
    replay_manifest,
    replay_wals,
    write_table,
)
from repro.engines.background import BackgroundErrors
from repro.engines.compaction import CompactionRunner
from repro.engines.interface import (
    DBIterator,
    KeyValueStore,
    Snapshot,
    check_snapshot,
    checked_bytes,
    validate_key,
)
from repro.engines.options import StoreOptions
from repro.engines.read_path import ReadPath
from repro.engines.write_path import WritePath


def _delegated(owner: str, name: str) -> property:
    """Attribute ``name`` of the collaborator ``owner``, read and replaced
    through the store under its old name (tests reach in by it)."""
    get_owner = attrgetter(owner)
    return property(
        lambda self: getattr(get_owner(self), name),
        lambda self, value: setattr(get_owner(self), name, value),
    )


class LSMStoreBase(CompactionRunner, KeyValueStore):
    """Common operations, levels, recovery and stats over the two paths.

    An engine builds ``self._levels`` before calling this constructor and
    supplies the compaction hooks (:mod:`repro.engines.compaction`) and
    the seek bookkeeping ``_note_positioned`` (:meth:`_table_iterators`).
    """

    #: The write and read paths' state, under the names it had on the store.
    _mem = _delegated("_writes", "mem")
    _imm = _delegated("_writes", "imm")
    _wal = _delegated("_writes", "wal")
    _last_sequence = _delegated("_writes", "last_sequence")
    _soft_limit_delay = _delegated("_writes", "soft_limit_delay")
    _attribute_stall = _delegated("_writes", "attribute_stall")
    _table_cache = _delegated("_reads", "table_cache")
    _block_cache = _delegated("_reads", "block_cache")
    _read_pins = _delegated("_reads", "read_pins")
    _retired_files = _delegated("_reads", "retired_files")
    _pin_reads = _delegated("_reads", "pin_reads")
    _unpin_reads = _delegated("_reads", "unpin_reads")
    _retire_file = _delegated("_reads", "retire_file")
    _walk_runs = _delegated("_reads", "walk_runs")
    #: Replaceable: every table open of the store goes through it.
    _get_reader = _delegated("_reads", "get_reader")

    def __init__(
        self,
        storage: SimulatedStorage,
        options: Optional[StoreOptions] = None,
        prefix: str = "db/",
        seed: int = 0,
    ) -> None:
        self.storage = storage
        self.options = opts = options if options is not None else StoreOptions()
        self.prefix = prefix
        self.seed = seed
        self.clock = storage.clock
        self.cpu = storage.cpu
        self.executor = BackgroundExecutor(self.clock, opts.background_workers)
        #: Compaction jobs submitted but not yet applied, and whether the
        #: latest scheduling pass left a due Level-0 compaction blocked on
        #: range conflicts (used to attribute stop-trigger stall time).
        self._compactions_inflight = 0
        self._l0_conflict_blocked = False
        #: Numbers of the sstables some in-flight compaction consumes.
        self._busy: Set[int] = set()
        #: Optional dispatch policy for schedule exploration: given the
        #: deterministic list of runnable compaction candidates, returns
        #: the index to submit next (None = engine priority order).
        self._dispatch_policy: Optional[Callable[[List], int]] = None
        self._next_file_number = 1
        self._snapshots: List[int] = []
        #: Key–value separation: None unless ``value_separation_bytes`` is
        #: set.  Constructed before recovery so WAL replay can validate
        #: pointers against it.
        self._vlog: Optional[ValueLog] = (
            ValueLog(
                storage,
                prefix,
                segment_bytes=opts.vlog_segment_bytes,
                gc_dead_ratio=opts.vlog_gc_dead_ratio,
                alloc_number=self._alloc_file_number,
            )
            if opts.value_separation_bytes is not None
            else None
        )
        #: Typed metrics registry; ``_stats`` is the mutable attribute
        #: façade engines write through, and :meth:`stats` builds the
        #: public StoreStats *view* from the same registry.
        self.registry = MetricsRegistry()
        self._stats = StatsCounters(self.registry)
        self._op_puts = self._stats.bind("puts")
        self._op_gets = self._stats.bind("gets")
        self._op_deletes = self._stats.bind("deletes")
        self._op_seeks = self._stats.bind("seeks")
        self._op_next_calls = self._stats.bind("next_calls")
        #: Token-bucket pacing of compaction job start times (None = no
        #: limit).  Flushes and due-L0 drains bypass it; see
        #: :meth:`CompactionRunner._compaction_start_time`.
        self._compaction_limiter: Optional[TokenBucket] = None
        if opts.compaction_rate_bytes_per_sec is not None:
            self._compaction_limiter = TokenBucket(opts.compaction_rate_bytes_per_sec)
            self._rate_limited_jobs = self.registry.counter("compaction.rate_limited_jobs")
            self._rate_limit_delay = self.registry.counter(
                "compaction.rate_limit_delay_seconds"
            )
        #: Build-lane tallies, bumped once per sstable built: entries the
        #: builder appended as the encoded record they arrived with, and
        #: entries it framed itself.  Folded into ``build.records_passed``
        #: / ``build.records_encoded`` when stats are read.
        self._records_passed = self._records_encoded = 0
        self._compaction_seconds = self.registry.histogram("compaction.seconds")
        #: Always-on flight recorder (``trace_sample`` knob).  In the
        #: default ``"errors"`` mode the hot path stays uninstrumented
        #: (``tracer`` stays None) and only degraded/faulted paths record;
        #: ``"1/N"`` installs a sampling tracer.  A tracer only reads the
        #: simulated clock, so tracing cannot change a simulated outcome.
        self.recorder = FlightRecorder(
            component=prefix or "store",
            seed=seed,
            clock=self.clock,
            mode=opts.trace_sample,
            capacity=opts.trace_ring_capacity,
            dump_dir=opts.trace_dump_dir,
        )
        self.tracer: Optional[Tracer] = self.recorder.sampling_tracer
        #: The collaborators reach the engine through a weak proxy: no
        #: cycle, so a dropped store is freed at once rather than at the
        #: next full garbage collection.
        engine = weakref.proxy(self)
        #: Retries, the sticky background error (while set, no new
        #: background work is scheduled) and the live MANIFEST.
        self._faults = BackgroundErrors(
            self.clock, self._stats, self.recorder, lambda: engine.tracer
        )
        self._manifest = ManifestLog(storage, prefix, self._faults)
        self._user_acct = storage.foreground_account(prefix + "user")
        self._writes = WritePath(
            storage, opts, self.executor, self._faults, self._stats, engine,
            prefix=prefix, seed=seed, user_acct=self._user_acct, vlog=self._vlog,
        )
        self._reads = ReadPath(
            storage, opts, engine, self._writes,
            prefix=prefix, user_acct=self._user_acct, vlog=self._vlog,
        )
        #: Per-op latency percentiles over simulated time (admin plane
        #: ``windows`` section).  Recorded on the sim clock, so the
        #: series is byte-identical traced or untraced.
        self.op_windows: Dict[str, WindowedHistogram] = {
            "get": WindowedHistogram(window_seconds=0.5),
            "write": self._writes.window,
        }
        self._open_or_recover()

    # ==================================================================
    # Levels: ``self._levels[i]`` is level i's GuardedLevel or SortedLevel
    # (repro.core.guards); what a level holds is asked of it alone.
    # ==================================================================
    @property
    def _level0(self) -> List[FileMetadata]:
        """Level 0 newest first: its search, merge and compaction-input order."""
        return self._levels[0].all_files()

    def _level0_file_count(self) -> int:
        """Files currently in Level 0 (write stall input)."""
        return self._levels[0].num_files

    def level_sizes(self) -> List[int]:
        """Bytes per level (diagnostics and size triggers)."""
        return [level.size_bytes for level in self._levels]

    def files_per_level(self) -> List[int]:
        """Live sstable count per level."""
        return [level.num_files for level in self._levels]

    def live_files(self) -> List[FileMetadata]:
        """Metadata of every live sstable, each level in search order."""
        return [f for level in self._levels for f in level.all_files()]

    def _install_flush(self, metas: List[FileMetadata], edit: VersionEdit) -> None:
        """Add freshly flushed files to Level 0 and to ``edit``."""
        for meta in metas:
            self._levels[0].attach(meta)
            edit.add_file(0, meta, GUARD_NONE)

    def _level_candidates(self, level: int, key: bytes) -> Optional[Iterable[FileMetadata]]:
        """The run of ``level`` covering ``key``, newest first; None when the
        level has nothing to bisect (the search moves on, charging nothing)."""
        runs, idx = self._levels[level].runs(key)
        if not runs:
            return None
        return reversed(runs[idx]) if idx < len(runs) else ()

    def _level_runs(
        self, level: int, key: Optional[bytes], reverse: bool
    ) -> Tuple[Sequence[Sequence[FileMetadata]], int]:
        """Level ``level``'s runs and the index of the one a walk from ``key``
        starts in (``key`` None: the last), as its ``runs``; but none when
        the level holds no data: forward index 0, reverse -1."""
        lvl = self._levels[level]
        if not lvl.size_bytes:
            return (), -1 if reverse else 0
        return lvl.runs(key, reverse)

    def _is_bottom(self, level: int) -> bool:
        """No live data below ``level``: its tombstones can be dropped."""
        return not any(lvl.size_bytes for lvl in self._levels[level + 1 :])

    def _recover_guard(self, level: int, key: bytes) -> None:
        """Re-install a committed guard (FLSM only)."""

    def _recover_guard_deletion(self, level: int, key: bytes) -> None:
        """Apply a guard deletion (FLSM only)."""

    def _search_span_attrs(self, level: int, key: bytes) -> Dict[str, object]:
        """Engine attributes of a ``table.search`` span that found ``key`` at ``level``."""
        return {}

    def _parallel_seek_level(self) -> int:
        """The level whose covering run a forward seek positions in parallel
        (paper section 4.2); 0 means none."""
        return 0

    def sstable_file_numbers(self) -> List[int]:
        """Numbers of every live sstable."""
        return [f.number for f in self.live_files()]

    def sstable_sizes(self) -> List[int]:
        """Sizes of all live sstables (Table 5.1 input)."""
        return [f.file_size for f in self.live_files()]

    def check_invariants(self) -> None:
        """Raise AssertionError if internal invariants are violated: an
        engine's layout rules, each level's, then for every sstable a number,
        a file, a sequence bound no lower than its boundary keys and a
        resident filter (if any) built over as many keys as the file holds.
        With no job pending, no file is busy and no compaction in flight."""
        if not self.executor.pending_count:
            assert not self._busy, f"idle store has busy files: {sorted(self._busy)}"
            assert not self._compactions_inflight, "idle store has compactions in flight"
        for level in self._levels:
            level.check_invariants()
        files = self.live_files()
        assert len(files) == len({f.number for f in files}), "duplicate file numbers"
        for f in files:
            if f.number not in self._busy:
                assert self.storage.exists(self._sst_name(f.number)), (
                    f"live sstable missing on storage: {f.number}"
                )
            assert (
                max(f.smallest.sequence, f.largest.sequence)
                <= f.largest_seq
                <= self._writes.last_sequence
            ), f"sstable {f.number}: sequence bound {f.largest_seq} out of range"
            assert f.bloom is None or f.bloom.keys_added == f.num_entries, (
                f"sstable {f.number}: resident filter is not this file's"
            )

    # ==================================================================
    # Public operations
    # ==================================================================
    def put(self, key: bytes, value: bytes) -> None:
        if type(key) is not bytes or not key:
            key = checked_bytes(key, key=True)
        if type(value) is not bytes:
            value = checked_bytes(value)
        self._write([(KIND_PUT, key, value)])
        self._op_puts.value += 1

    def _write(self, ops: List[Tuple[int, bytes, bytes]], sync: bool = False) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")
        self._writes.write(ops, sync)

    def delete(self, key: bytes) -> None:
        if type(key) is not bytes or not key:
            key = checked_bytes(key, key=True)
        self._write([(KIND_DELETE, key, b"")])
        self._op_deletes.value += 1

    def write_batch(
        self, ops: List[Tuple[int, bytes, bytes]], sync: bool = False
    ) -> None:
        checked = [
            (kind, checked_bytes(key, key=True), checked_bytes(value))
            for kind, key, value in ops
        ]
        self._write(checked, sync=sync)
        for kind, _, _ in checked:
            if kind == KIND_PUT:
                self._op_puts.value += 1
            else:
                self._op_deletes.value += 1

    def get(self, key: bytes, snapshot: Optional[Snapshot] = None) -> Optional[bytes]:
        self._check_open()
        validate_key(key)
        check_snapshot(snapshot)
        self.executor.drain()
        self._op_gets.value += 1
        trc = self.tracer
        t0 = self.clock.now
        # One body for both paths (an extra call per get is measurable);
        # the try/finally is free on 3.11 when nothing raises.
        span = trc.span("get") if trc is not None else None
        try:
            acct = self._user_acct
            cpu = self.cpu
            writes = self._writes
            seq = snapshot.sequence if snapshot is not None else writes.last_sequence
            # The active memtable, then the immutable ones newest first,
            # then the tables: the first to hold a version of ``key`` answers.
            source = "memtable"
            acct.charge_cpu(cpu, "memtable_lookup", cpu.memtable_lookup)
            result = writes.mem.get(key, seq)
            if not result.found:
                source = "immutable"
                for imm, _ in reversed(writes.imm):
                    acct.charge_cpu(cpu, "memtable_lookup", cpu.memtable_lookup)
                    result = imm.get(key, seq)
                    if result.found:
                        break
                else:
                    source = "table"
                    result = self._get_from_tables(key, seq, acct)
            found = result.found and not result.is_deleted
            if span is not None:
                if result.found:
                    span.set(source=source)
                span.set(found=found)
            if not found:
                return None
            return self._reads.resolve_value(result.value, result.kind, acct)
        except BaseException as exc:
            if span is not None:
                span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.op_windows["get"].record(t0, self.clock.now - t0)
            if span is not None:
                span.end()

    def seek(self, key: bytes, snapshot: Optional[Snapshot] = None) -> DBIterator:
        return self._seek(key, snapshot, False)

    def seek_reverse(self, key: bytes, snapshot: Optional[Snapshot] = None) -> DBIterator:
        """Iterator over keys <= ``key``, walking backward."""
        return self._seek(key, snapshot, True)

    def scan(
        self, start: Optional[bytes] = None, snapshot: Optional[Snapshot] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Generator over all visible pairs from ``start`` onward."""
        return self._scan(start, snapshot, False)

    def scan_reverse(
        self, start: Optional[bytes] = None, snapshot: Optional[Snapshot] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """All visible pairs with key <= ``start`` (None: all), descending."""
        return self._scan(start, snapshot, True)

    def _seek(self, key: bytes, snapshot: Optional[Snapshot], reverse: bool) -> DBIterator:
        self._check_open()
        validate_key(key)
        check_snapshot(snapshot)
        self.executor.drain()
        self._op_seeks.value += 1
        if not reverse:  # a reverse seek does not feed the seek trigger
            self._note_seek()
        return DBIterator(
            self._reads.visible_entries(self, key, snapshot, reverse),
            on_next=self._count_next,
        )

    def _scan(
        self, start: Optional[bytes], snapshot: Optional[Snapshot], reverse: bool
    ) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        check_snapshot(snapshot)
        self.executor.drain()
        return self._reads.visible_entries(self, start, snapshot, reverse)

    def _count_next(self) -> None:
        self._op_next_calls.value += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def get_snapshot(self) -> Snapshot:
        """Pin the current state; reads through it never see later writes."""
        self._check_open()
        snap = Snapshot(self._writes.last_sequence)
        insort(self._snapshots, snap.sequence)
        return snap

    def release_snapshot(self, snapshot: Snapshot) -> None:
        """Unpin; versions kept only for this snapshot become collectable."""
        if snapshot._released:
            return
        snapshot._released = True
        idx = bisect_left(self._snapshots, snapshot.sequence)
        if idx < len(self._snapshots) and self._snapshots[idx] == snapshot.sequence:
            del self._snapshots[idx]

    # ------------------------------------------------------------------
    def flush_memtable(self) -> None:
        """Force the active memtable to Level 0 and wait for it."""
        self._check_open()
        self._writes.flush()

    def compact_all(self) -> None:
        """Drive compaction until the store reaches a steady state."""
        self._check_open()
        self.flush_memtable()
        self.executor.wait_all()
        for _ in range(200):
            before = self.executor.jobs_run
            self._schedule_compactions()
            if self.executor.jobs_run == before:
                break
            self.executor.wait_all()

    def wait_idle(self) -> None:
        """Let all scheduled background work finish (advances the clock)."""
        self.executor.wait_all()

    def close(self) -> None:
        if self._closed:
            return
        self.executor.wait_all()
        self._writes.close()
        self._closed = True

    # ------------------------------------------------------------------
    @property
    def preset(self) -> str:
        return self.options.preset

    def _refresh_derived(self) -> None:
        """Fold the read path's and the build lane's tallies into their
        counters and set the read-time gauges (layout, memory, value log)."""
        reg = self.registry
        self._reads.fold(reg)
        reg.counter("build.records_passed").value += self._records_passed
        reg.counter("build.records_encoded").value += self._records_encoded
        self._records_passed = self._records_encoded = 0
        reg.gauge("store.memory_bytes").set(self.memory_bytes())
        reg.gauge("store.sstables").set(len(self.sstable_file_numbers()))
        for level, size in enumerate(self.level_sizes()):
            reg.gauge("store.level_bytes", level=level).set(size)
        if self._vlog is not None:
            vl = self._vlog
            reg.counter("vlog.bytes_written").value = vl.bytes_written
            reg.counter("vlog.records_written").value = vl.records_written
            reg.counter("vlog.gc_relocated").value = vl.gc_relocated_bytes
            reg.counter("vlog.segments_retired").value = vl.segments_retired
            reg.gauge("vlog.segments").set(len(vl.segment_numbers()))
            reg.gauge("vlog.data_bytes").set(vl.data_bytes())
            reg.gauge("vlog.dead_bytes").set(vl.dead_bytes())

    def memory_bytes(self) -> int:
        """Resident memory: memtables, the filter of every live file, and
        the indexes of the readers in the table cache."""
        writes = self._writes
        mem = writes.mem.approximate_bytes
        mem += sum(imm.approximate_bytes for imm, _ in writes.imm)
        mem += sum(
            f.bloom.size_bytes for f in self.live_files() if f.bloom is not None
        )
        mem += sum(r.memory_bytes for r in self._reads.table_cache.values())
        return mem

    @property
    def last_sequence(self) -> int:
        return self._writes.last_sequence

    def approximate_size(self, lo: bytes, hi: bytes) -> int:
        """Estimated on-storage bytes of keys in ``[lo, hi]``.

        LevelDB's ``GetApproximateSizes``: derived from file metadata
        only — full size for files contained in the range, half for files
        straddling a boundary — so it costs no IO.
        """
        if hi < lo:
            raise InvalidArgumentError("approximate_size: hi < lo")
        total = 0
        for meta in self.live_files():
            if not meta.overlaps(lo, hi):
                continue
            contained = meta.smallest.user_key >= lo and meta.largest.user_key <= hi
            total += meta.file_size if contained else meta.file_size // 2
        return total

    # ------------------------------------------------------------------
    # Introspection (LevelDB's GetProperty)
    # ------------------------------------------------------------------
    def _scheduler_line(self) -> str:
        s = self._stats
        return (
            f"mode={self._scheduler_mode()} workers={self.executor.workers} "
            f"inflight={self._compactions_inflight} "
            f"peak={s.compactions_parallel_peak} "
            f"conflicts={s.compaction_conflicts} "
            f"conflict-stall={s.conflict_stall_seconds:.6f}s"
        )

    def _files_at_level(self, level: int) -> Optional[str]:
        counts = self.files_per_level()
        return str(counts[level]) if level < len(counts) else None

    PROPERTIES = {
        **KeyValueStore.PROPERTIES,
        "repro.levels": lambda db: " ".join(map(str, db.level_sizes())),
        "repro.sstables": lambda db: db.layout(),
        "repro.approximate-memory-usage": lambda db: str(db.memory_bytes()),
        "repro.block-cache": lambda db: db._reads.block_cache_line(),
        "repro.compaction-scheduler": _scheduler_line,
        "repro.vlog": lambda db: (
            db._vlog.state_line() if db._vlog is not None else "disabled"
        ),
        "repro.flight-recorder": lambda db: compact_json(db.recorder.summary()),
        "repro.num-files-at-level<N>": _files_at_level,
    }

    def set_dispatch_policy(
        self, policy: Optional[Callable[[List], int]]
    ) -> None:
        """Install a compaction dispatch policy (None restores default).

        Schedule-exploration hook: given the runnable compaction
        candidates of the first trigger tier that has any, as
        ``(trigger, level, pick)`` tuples, ``policy(candidates)`` picks the
        index to submit next instead of the first.  Candidates are
        collected deterministically, so a seeded policy yields a
        replayable schedule; every schedule must produce the same
        user-visible state.
        """
        self._dispatch_policy = policy

    # ==================================================================
    # Fault handling and graceful degradation
    # ==================================================================
    def _run_protected(self, kind: str, compute: Callable):
        """Run a background compute step with retries.

        A compute takes no scheduling state before its last write, so a
        failed attempt leaves behind only its partially written sstables,
        which are deleted; a :class:`TransientIOError` then reruns the step
        after a backoff.  A persistent fault, corruption, or an exhausted
        retry budget sets the sticky background error instead and returns
        None.
        """
        start = self._next_file_number

        def attempt():
            nonlocal start
            start = self._next_file_number
            return compute()

        def undo() -> None:
            # File numbers stay monotonic — the counter is *not* rewound —
            # so a stale table- or block-cache entry keyed by number never
            # aliases a later file.
            for number in range(start, self._next_file_number):
                self._reads.drop_table_file(number)

        try:
            return self._faults.retry(kind, attempt, undo)
        except (CorruptionError, StorageError) as exc:
            self._faults.fail(kind, exc)
            return None

    def resume(self) -> bool:
        """Attempt to leave degraded mode (RocksDB's ``Resume``).

        Waits out in-flight background work, reads back and checks every
        live sstable's footer and index, persists any queued version edits
        into a fresh MANIFEST, completes deferred file deletions, then
        clears the error and re-schedules background work.  Returns True
        when the store is healthy again; on failure the store stays
        degraded (reads keep working) and resume() may be called again.
        """
        self._check_open()
        self.executor.wait_all()
        if self._faults.error is None:
            return True

        def repair() -> None:
            acct = self.storage.foreground_account(self.prefix + "recover")
            for number in self.sstable_file_numbers():
                # A cold open, whatever parsed form the read path holds.
                SSTableReader.open(self.storage, self._sst_name(number), acct, load_bloom=False)
            if self._manifest.pending or self._manifest.suspect:
                if self._vlog is not None:
                    # A held edit may reference relocated records whose
                    # sync failed: they go durable before the edit does.
                    self._vlog.sync(acct)
                self._manifest.rotate(acct, self._alloc_file_number)

        if not self._faults.resume(repair):
            return False
        # wait_all() ran above: nothing is in flight, any marker is stale.
        self._busy.clear()
        self._compactions_inflight = 0
        self._reset_scheduling_state()
        # Rescheduled work may hit the same fault and re-degrade the
        # store immediately; report the post-reschedule health honestly.
        self._writes.maybe_schedule_flush()
        self._schedule_compactions()
        self.executor.drain()
        return self._faults.error is None

    # ------------------------------------------------------------------
    # Shared sstable writing
    # ------------------------------------------------------------------
    def _write_sstables(
        self,
        entries: Iterator[Entry],
        account: IoAccount,
        split_bytes: Optional[int],
    ) -> List[FileMetadata]:
        """Write an ordered entry stream as sstables (the one sstable writer).

        ``split_bytes`` caps each output file; None writes a single file.
        An entry is handed to the builder whole: a memtable's ``(key,
        value)`` is framed there, a compaction's ``(key, value, record)``
        is appended as the bytes its input block held.
        Consuming ``entries`` may itself allocate file numbers (value-log
        relocation rotates segments off the same counter), so *when* an
        output takes its number is part of the on-storage result: a
        single-file output takes it once its last entry is in, a split
        output takes each file's number at that file's first entry.
        """
        opts = self.options
        metas: List[FileMetadata] = []

        def finish(builder: SSTableBuilder, number: int) -> None:
            meta = write_table(
                self.storage, self.prefix, number, builder, account,
                compression_ratio=opts.compression_ratio, bloom=opts.enable_sstable_bloom,
            )
            self._records_passed += builder.records_passed
            self._records_encoded += meta.num_entries - builder.records_passed
            self._reads.add_table(meta, builder.footer, builder.index)
            metas.append(meta)

        if split_bytes is None:
            builder = SSTableBuilder()
            add = builder.add
            for entry in entries:
                add(*entry)
            if builder.num_entries:
                finish(builder, self._alloc_file_number())
            return metas

        builder = None
        number = 0
        pending_split = False
        prev_user_key: Optional[bytes] = None
        for entry in entries:
            user_key = entry[0].user_key
            # Never split between versions of one user key: two files at
            # the same level sharing a user key would break the disjoint
            # level invariant (matters when snapshots preserve versions).
            if pending_split and user_key != prev_user_key:
                finish(builder, number)
                builder = None
                pending_split = False
            if builder is None:
                number = self._alloc_file_number()
                builder = SSTableBuilder()
            builder.add(*entry)
            prev_user_key = user_key
            if builder.estimated_size >= split_bytes:
                pending_split = True
        if builder is not None:
            finish(builder, number)
        return metas

    # ==================================================================
    # The two paths' entry points the engines and the tracer see
    # ==================================================================
    def _get_from_tables(self, key: bytes, snapshot: int, account: IoAccount) -> GetResult:
        return self._reads.get_from_tables(key, snapshot, account)

    def _table_iterators(
        self, start: Optional[bytes], account: IoAccount, reverse: bool = False
    ) -> List[Iterator[Entry]]:
        return self._reads.table_iterators(start, account, reverse)

    def _note_seek(self) -> None:
        """Hook for seek-triggered compaction policies."""

    def _on_insert_key(self, key: bytes) -> None:
        """Hook invoked for every inserted key (FLSM guard selection)."""

    # ==================================================================
    # Recovery
    # ==================================================================
    def _open_or_recover(self) -> None:
        acct = self.storage.foreground_account(self.prefix + "recover")
        current = read_current(self.storage, acct, self.prefix)
        if current is not None:
            self._recover(current, acct)
        else:  # a fresh store: MANIFEST 1, then WAL 2
            self._next_file_number = 2
            wal_number = self._alloc_file_number()
            edit = VersionEdit(
                last_sequence=0,
                next_file_number=self._next_file_number,
                log_number=wal_number,
            )
            self._manifest.writer = create_manifest(self.storage, self.prefix, 1, edit, acct)
            self._writes.open_wal(wal_number)
        self._post_recover()

    def _post_recover(self) -> None:
        """Hook run after recovery (FLSM re-seeds uncommitted guards)."""

    def _recover(self, manifest_name: str, acct: IoAccount) -> None:
        """Reinstall the MANIFEST's version, then flush the live WALs'
        records to Level 0 and start a fresh WAL."""
        storage, prefix, writes = self.storage, self.prefix, self._writes
        version = replay_manifest(storage, manifest_name, acct, self)
        self._manifest.writer = ManifestWriter(storage, manifest_name)
        # Files written by in-flight background jobs that never committed
        # are orphans.
        remove_orphans(storage, prefix, set(self.sstable_file_numbers()))
        self._next_file_number = next_file_number(storage, prefix, version.next_file_number)
        if self._vlog is not None:
            # Before WAL replay: replayed pointer ops validate against the
            # recovered segments.
            self._vlog.recover(version.vlog_dead, version.vlog_deleted)
        wals, writes.last_sequence = replay_wals(
            storage, prefix, version.log_number, acct, writes.mem, version.last_sequence,
            strict=self.options.sync_writes, vlog=self._vlog,
        )
        if len(writes.mem):
            metas = self._write_sstables(iter(writes.mem), acct, split_bytes=None)
            edit = VersionEdit(
                last_sequence=writes.last_sequence,
                next_file_number=self._next_file_number,
            )
            self._install_flush(metas, edit)
            self._manifest.writer.append(edit, acct)
            writes.mem = Memtable(self.seed)
        for name in wals:
            storage.delete(name)
        writes.open_wal(self._alloc_file_number())
        edit = VersionEdit(
            last_sequence=writes.last_sequence,
            next_file_number=self._next_file_number,
            log_number=writes.wal_number,
        )
        self._manifest.writer.append(edit, acct)
        remove_orphans(storage, prefix, set(self.sstable_file_numbers()))

    # ==================================================================
    # Naming and bookkeeping
    # ==================================================================
    def _alloc_file_number(self) -> int:
        number = self._next_file_number
        self._next_file_number += 1
        return number

    def _sst_name(self, number: int) -> str:
        return file_name(self.prefix, number, TABLE)
