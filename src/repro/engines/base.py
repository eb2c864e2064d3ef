"""The machinery shared by all LSM-family engines.

:class:`LSMStoreBase` implements everything LSM and FLSM engines have in
common — write-ahead logging, memtable rotation, background flush
scheduling, Level-0 write stalls, the table cache, the read and scan
paths, the level objects (:mod:`repro.core.guards`) — and leaves to
subclasses what a compaction picks and computes.  It composes the
collaborators that own the rest: the MANIFEST and recovery (:mod:`repro.version.lifecycle`),
retries and the sticky background error
(:mod:`repro.engines.background`), and the compaction lifecycle
(:mod:`repro.engines.compaction`).  The store interface
(:mod:`repro.engines.interface`) and the stats plane
(:mod:`repro.obs.stats`) are re-exported here under their old names.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.obs.admin import compact_json
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.stats import STAT_METRICS, StatsCounters, StoreStats  # noqa: F401 (re-exports)
from repro.obs.trace import Tracer
from repro.obs.windows import WindowedHistogram
from repro.errors import CorruptionError, InvalidArgumentError, StorageError, StoreClosedError
from repro.memtable import Memtable
from repro.memtable.memtable import GetResult
from repro.sim.executor import BackgroundExecutor, Job
from repro.sim.ratelimit import TokenBucket
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable import (
    DecodedBlockCache,
    SSTableBuilder,
    SSTableReader,
    merge_entries,
    merging_iterator,
)
from repro.sstable.format import Entry, ValuePointer
from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_SEEK, KIND_VPTR, MAX_SEQUENCE, InternalKey
from repro.util.murmur import murmur3_64
from repro.vlog.log import ValueLog
from repro.version import ManifestWriter, VersionEdit, read_current
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_NONE
from repro.version.lifecycle import (
    TABLE,
    WAL,
    ManifestLog,
    create_manifest,
    file_name,
    next_file_number,
    numbered_files,
    remove_orphans,
    replay_manifest,
    replay_wals,
    write_table,
)
from repro.wal import LogWriter, encode_batch
from repro.engines.background import DELETE_WAL, BackgroundErrors
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


def _merged(iters: List[Iterator[Entry]], reverse: bool = False) -> Iterator[Entry]:
    """One run's entries: its files' iterators merged (one needs no heap)."""
    return iters[0] if len(iters) == 1 else merge_entries(iters, reverse)


class LSMStoreBase(CompactionRunner, KeyValueStore):
    """Common write path, stalls, table cache, levels and recovery.

    An engine builds ``self._levels`` before calling this constructor and
    supplies the compaction hooks (:mod:`repro.engines.compaction`) and
    the seek bookkeeping ``_note_positioned`` (:meth:`_table_iterators`).
    """

    def __init__(
        self,
        storage: SimulatedStorage,
        options: Optional[StoreOptions] = None,
        prefix: str = "db/",
        seed: int = 0,
    ) -> None:
        self.storage = storage
        self.options = options if options is not None else StoreOptions()
        self.prefix = prefix
        self.seed = seed
        self.clock = storage.clock
        self.cpu = storage.cpu
        self.executor = BackgroundExecutor(self.clock, self.options.background_workers)
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

        self._user_acct = storage.foreground_account(prefix + "user")
        self._wal_acct = storage.foreground_account(prefix + "wal")
        self._vlog_acct = storage.foreground_account(prefix + "vlog")

        self._mem = Memtable(seed)
        self._imm: List[Tuple[Memtable, int]] = []
        self._flush_job: Optional[Job] = None
        self._last_sequence = 0
        self._next_file_number = 1
        self._wal_number = 0
        self._wal: Optional[LogWriter] = None
        self._table_cache: "OrderedDict[int, SSTableReader]" = OrderedDict()
        #: Host-side memoization of parsed data blocks, shared by every
        #: reader this store opens (keyed by sstable file number).  None
        #: when disabled; simulated metrics are identical either way.
        self._block_cache: Optional[DecodedBlockCache] = (
            DecodedBlockCache(self.options.block_cache_bytes)
            if self.options.block_cache_bytes > 0
            else None
        )
        #: Read pins held by open iterators, oldest first (insertion
        #: order), and the sstables retired while any pin was held, each
        #: with the newest pin number issued before its retirement.
        self._read_pins: Dict[int, None] = {}
        self._pin_seq = 0
        self._retired_files: "deque[Tuple[int, int]]" = deque()
        self._snapshots: List[int] = []
        self._closed = False
        #: Key–value separation: None unless ``value_separation_bytes`` is
        #: set.  Constructed before recovery so WAL replay can validate
        #: pointers against it.
        self._vlog: Optional[ValueLog] = (
            ValueLog(
                storage,
                prefix,
                segment_bytes=self.options.vlog_segment_bytes,
                gc_dead_ratio=self.options.vlog_gc_dead_ratio,
                alloc_number=self._alloc_file_number,
            )
            if self.options.value_separation_bytes is not None
            else None
        )

        #: Typed metrics registry; ``_stats`` is the mutable attribute
        #: façade engines write through, and :meth:`stats` builds the
        #: public StoreStats *view* from the same registry.
        self.registry = MetricsRegistry()
        self._stats = StatsCounters(self.registry)
        self._op_puts = self._stats.bind("puts")
        self._user_bytes = self._stats.bind("user_bytes_written")
        self._op_gets = self._stats.bind("gets")
        self._op_deletes = self._stats.bind("deletes")
        self._op_seeks = self._stats.bind("seeks")
        self._op_next_calls = self._stats.bind("next_calls")
        self._stall_cause_counters: Dict[str, Counter] = {}
        #: Exactly-once stall attribution: sim time up to which stall
        #: seconds have already been charged to a cause.  Nested or
        #: back-to-back stall sites (imm backpressure draining straight
        #: into an L0 stop inside one write) attribute only the part of
        #: their interval past this watermark, so no sim-clock second is
        #: ever reported under two causes.
        self._stall_accounted_until = 0.0
        #: Token-bucket pacing of compaction job start times (None = no
        #: limit).  Flushes and due-L0 drains bypass it; see
        #: :meth:`CompactionRunner._compaction_start_time`.
        self._compaction_limiter: Optional[TokenBucket] = None
        if self.options.compaction_rate_bytes_per_sec is not None:
            self._compaction_limiter = TokenBucket(
                self.options.compaction_rate_bytes_per_sec
            )
            self._rate_limited_jobs = self.registry.counter(
                "compaction.rate_limited_jobs"
            )
            self._rate_limit_delay = self.registry.counter(
                "compaction.rate_limit_delay_seconds"
            )
        #: Read-path tallies: per level, and per table-cache lookup.  The
        #: per-probe path does a plain add; the sums fold into the
        #: ``read.files_probed`` / ``read.bloom_skipped`` /
        #: ``read.seq_skipped`` / ``read.table_cache_hits`` /
        #: ``read.table_cache_misses`` registry counters when stats are
        #: read.  Per level, the three probe tallies sum to the candidate
        #: files whose key range covered the key.  Likewise the tables a
        #: seek positions an iterator on, into ``seek.positioned_tables``.
        self._probe_files = [0] * (self.options.num_levels + 1)
        self._probe_bloom = [0] * (self.options.num_levels + 1)
        self._probe_seq = [0] * (self.options.num_levels + 1)
        self._seek_tables = [0] * (self.options.num_levels + 1)
        self._table_hits = self._table_misses = 0
        #: Build-lane tallies, bumped once per sstable built: entries the
        #: builder appended as the encoded record they arrived with, and
        #: entries it framed itself.  Folded into ``build.records_passed``
        #: / ``build.records_encoded`` when stats are read.
        self._records_passed = self._records_encoded = 0
        self._wal_sync_counter = self.registry.counter("wal.syncs")
        self._flush_seconds = self.registry.histogram("flush.seconds")
        self._compaction_seconds = self.registry.histogram("compaction.seconds")
        #: Span tracer; None (the default) keeps every instrumentation
        #: site down to a single attribute check.  The tracer only reads
        #: the simulated clock — it never advances it or charges IO, so
        #: enabling tracing cannot change any simulated outcome.
        self.tracer: Optional[Tracer] = None
        #: Always-on flight recorder (``trace_sample`` knob).  In the
        #: default ``"errors"`` mode the hot path stays uninstrumented
        #: (``tracer`` above remains None) and only degraded/faulted
        #: paths record; ``"1/N"`` installs a sampling tracer.
        self.recorder = FlightRecorder(
            component=prefix or "store",
            seed=seed,
            clock=self.clock,
            mode=self.options.trace_sample,
            capacity=self.options.trace_ring_capacity,
            dump_dir=self.options.trace_dump_dir,
        )
        if self.recorder.sampling_tracer is not None:
            self.tracer = self.recorder.sampling_tracer
        #: Retries, the sticky background error (while set, no new
        #: background work is scheduled) and the live MANIFEST.
        #: (Through a weak proxy: no cycle, so a dropped store is freed at
        #: once rather than at the next full garbage collection.)
        store = weakref.proxy(self)
        self._faults = BackgroundErrors(
            self.clock, self._stats, self.recorder, lambda: store.tracer
        )
        self._manifest = ManifestLog(storage, prefix, self._faults)
        #: Per-op latency percentiles over simulated time (admin plane
        #: ``windows`` section).  Recorded on the sim clock, so the
        #: series is byte-identical traced or untraced.
        self.op_windows: Dict[str, WindowedHistogram] = {
            "get": WindowedHistogram(window_seconds=0.5),
            "write": WindowedHistogram(window_seconds=0.5),
        }
        self._write_window = self.op_windows["write"]
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
        resident filter (if any) built over as many keys as the file holds."""
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
                <= self._last_sequence
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
            acct.charge_cpu(cpu, "memtable_lookup", cpu.memtable_lookup)
            seq = snapshot.sequence if snapshot is not None else self._last_sequence
            result = self._mem.get(key, seq)
            if result.found:
                if span is not None:
                    span.set(source="memtable", found=not result.is_deleted)
                if result.is_deleted:
                    return None
                return self._resolve_value(result.value, result.kind, acct)
            for imm, _ in reversed(self._imm):
                acct.charge_cpu(cpu, "memtable_lookup", cpu.memtable_lookup)
                result = imm.get(key, seq)
                if result.found:
                    if span is not None:
                        span.set(source="immutable", found=not result.is_deleted)
                    if result.is_deleted:
                        return None
                    return self._resolve_value(result.value, result.kind, acct)
            result = self._get_from_tables(key, seq, acct)
            found = result.found and not result.is_deleted
            if span is not None:
                if result.found:
                    span.set(source="table")
                span.set(found=found)
            if not found:
                return None
            return self._resolve_value(result.value, result.kind, acct)
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
            self._visible_entries(key, snapshot, reverse), on_next=self._count_next
        )

    def _scan(
        self, start: Optional[bytes], snapshot: Optional[Snapshot], reverse: bool
    ) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        check_snapshot(snapshot)
        self.executor.drain()
        return self._visible_entries(start, snapshot, reverse)

    def _count_next(self) -> None:
        self._op_next_calls.value += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def get_snapshot(self) -> Snapshot:
        """Pin the current state; reads through it never see later writes."""
        self._check_open()
        snap = Snapshot(self._last_sequence)
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
        if len(self._mem):
            self._rotate_memtable()
        while self._imm:
            self._maybe_schedule_flush()
            if self._flush_job is None:
                # Degraded mode: the flush cannot be scheduled; report
                # instead of spinning forever on the unflushable memtable.
                self._faults.raise_if_failed()
                break
            self.executor.wait_for(self._flush_job)
        self.executor.drain()

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
        if self._wal is not None:
            try:
                self._wal.sync(self._wal_acct)
            except StorageError:
                # Closing anyway: unsynced tail records are lost exactly as
                # an ordinary crash would lose them, which recovery handles.
                pass
        self._closed = True

    # ------------------------------------------------------------------
    @property
    def preset(self) -> str:
        return self.options.preset

    def _refresh_derived(self) -> None:
        """Fold the per-level read-path tallies into their counters and
        set the read-time gauges (layout, memory, block cache, value log)."""
        reg = self.registry
        for name, tallies in (
            ("read.files_probed", self._probe_files),
            ("read.bloom_skipped", self._probe_bloom),
            ("read.seq_skipped", self._probe_seq),
            ("seek.positioned_tables", self._seek_tables),
        ):
            for level, n in enumerate(tallies):
                if n:
                    reg.counter(name, level=level).value += n
                    tallies[level] = 0
        reg.counter("read.table_cache_hits").value += self._table_hits
        reg.counter("read.table_cache_misses").value += self._table_misses
        self._table_hits = self._table_misses = 0
        reg.counter("build.records_passed").value += self._records_passed
        reg.counter("build.records_encoded").value += self._records_encoded
        self._records_passed = self._records_encoded = 0
        reg.gauge("store.memory_bytes").set(self.memory_bytes())
        reg.gauge("store.sstables").set(len(self.sstable_file_numbers()))
        for level, size in enumerate(self.level_sizes()):
            reg.gauge("store.level_bytes", level=level).set(size)
        if self._block_cache is not None:
            reg.gauge("block_cache.hits").set(self._block_cache.stats.hits)
            reg.gauge("block_cache.misses").set(self._block_cache.stats.misses)
            reg.gauge("block_cache.bytes").set(self._block_cache.size_bytes)
        if self._vlog is not None:
            vl = self._vlog
            reg.counter("vlog.bytes_written").value = vl.bytes_written
            reg.counter("vlog.records_written").value = vl.records_written
            reg.counter("vlog.gc_relocated").value = vl.gc_relocated_bytes
            reg.counter("vlog.segments_retired").value = vl.segments_retired
            reg.gauge("vlog.segments").set(len(vl.segment_numbers()))
            reg.gauge("vlog.data_bytes").set(vl.data_bytes())
            reg.gauge("vlog.dead_bytes").set(vl.dead_bytes())

    def _stall_cause(self, cause: str) -> Counter:
        counter = self._stall_cause_counters.get(cause)
        if counter is None:
            counter = self.registry.counter("stall.cause_seconds", cause=cause)
            self._stall_cause_counters[cause] = counter
        return counter

    def memory_bytes(self) -> int:
        """Resident memory: memtables, the filter of every live file, and
        the indexes of the readers in the table cache."""
        mem = self._mem.approximate_bytes
        mem += sum(imm.approximate_bytes for imm, _ in self._imm)
        mem += sum(
            f.bloom.size_bytes for f in self.live_files() if f.bloom is not None
        )
        mem += sum(r.memory_bytes for r in self._table_cache.values())
        return mem

    @property
    def last_sequence(self) -> int:
        return self._last_sequence

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
    def _block_cache_line(self) -> str:
        if self._block_cache is None:
            return "disabled"
        bc = self._block_cache.stats
        return (
            f"hits={bc.hits} misses={bc.misses} "
            f"hit-rate={bc.hit_rate:.3f} "
            f"bytes={self._block_cache.size_bytes} "
            f"blocks={len(self._block_cache)} evictions={bc.evictions}"
        )

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
        "repro.block-cache": _block_cache_line,
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
    # Write path
    # ==================================================================
    def _write(self, ops: List[Tuple[int, bytes, bytes]], sync: bool = False) -> None:
        """Apply ``ops`` (keys and values already ``bytes``, keys non-empty)."""
        if self._closed:
            raise StoreClosedError("store is closed")
        if not ops:
            return
        trc = self.tracer
        clock = self.clock
        t0 = clock.now
        try:
            if trc is None:
                self._write_impl(ops, sync)
                return
            with trc.span("write", ops=len(ops)) as span:
                self._write_impl(ops, sync, span)
        finally:
            self._write_window.record(t0, clock.now - t0)

    def _write_impl(
        self, ops: List[Tuple[int, bytes, bytes]], sync: bool, span=None
    ) -> None:
        """The one write path (WAL, then memtable): straight down for the
        common write, each rare case — due job, stall, vlog, sync — a branch."""
        opts = self.options
        cpu = self.cpu
        pending = self.executor.pending
        if pending and pending[0].completion <= self.clock.now:
            self.executor.drain()
        if self._faults.error is not None:
            raise self._faults.error
        if (  # the two marks short of which ``_make_room`` has nothing to do
            len(self._imm) > opts.max_immutable_memtables
            or self._level0_file_count() >= opts.level0_slowdown_trigger
        ):
            self._make_room()
            # Stall waits run background apply callbacks, which may have
            # just moved the store into degraded mode.
            self._faults.raise_if_failed()
        seq = self._last_sequence + 1
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
                    self._last_sequence = seq + len(ops) - 1
                    vlog.abandon_tail(pointers)
                    raise
        payload = encode_batch(seq, tree_ops)
        wal = self._wal
        assert wal is not None
        try:
            wal.append(payload, self._wal_acct, sync=sync)
        except StorageError:
            # The failed append may have left a torn record; a later
            # record appended after it would be unreachable at replay
            # (the reader stops at the first bad record), so no
            # acknowledged write may ever land in this file again.
            # The memtable was not touched: the write fails cleanly.
            if self.storage.size(wal.name) != wal.size:
                # Bytes landed despite the failure — a torn record, or
                # a *complete* record whose sync failed.  A complete
                # record replays at recovery, so burn its sequence
                # numbers: were a later acknowledged write to reuse
                # them, replay would apply this phantom record first
                # and skip the acknowledged one as a duplicate,
                # silently replacing acknowledged data.
                self._last_sequence = seq + len(ops) - 1
            if vlog is not None and tree_ops is not ops:
                # The batch's value-log records are unreferenced now.
                vlog.abandon_tail(pointers)
            self._switch_wal_file()
            raise
        self._wal_acct.charge_cpu(cpu, "wal_record", cpu.wal_record * len(ops))
        if sync:
            self._wal_sync_counter.value += 1
            if span is not None:
                span.set(wal_sync=True)
        mem = self._mem
        charge_cpu = self._user_acct.charge_cpu
        bytes_written = 0
        for i, (kind, key, value) in enumerate(tree_ops):
            mem.add(seq + i, kind, key, value)
            charge_cpu(cpu, "memtable_insert", cpu.memtable_insert)
            # User bytes count the *original* value size: write
            # amplification must keep its meaning when the memtable holds
            # a 20-byte pointer in place of a 64 KiB value.
            bytes_written += len(key) + len(ops[i][2])
            self._on_insert_key(key)
        self._user_bytes.value += bytes_written
        if span is not None:
            span.set(bytes=bytes_written)
        self._last_sequence = seq + len(ops) - 1
        if mem.approximate_bytes >= opts.memtable_bytes:
            self._rotate_memtable()

    def _make_room(self) -> None:
        opts = self.options
        # Backpressure from unflushed immutable memtables.
        while len(self._imm) > opts.max_immutable_memtables:
            self._maybe_schedule_flush()
            if self._flush_job is None:
                break
            self._stall_until(self._flush_job, cause="imm_backpressure")
        # Level-0 file count: slow down, then stop.
        l0 = self._level0_file_count()
        if l0 >= opts.level0_stop_trigger:
            self._schedule_compactions()
            guard = 0
            while (
                self._level0_file_count() >= opts.level0_stop_trigger
                and self.executor.pending_count
                and guard < 10000
            ):
                before = self.clock.now
                cause = (
                    "l0_stop_conflict" if self._l0_conflict_blocked else "l0_stop"
                )
                self._stall_until(self.executor.peek_next(), cause=cause)
                if self._l0_conflict_blocked:
                    # The L0 compaction that would relieve this stall was
                    # rejected by the conflict map; charge the wait to it.
                    self._stats.conflict_stall_seconds += self.clock.now - before
                self._schedule_compactions()
                guard += 1
        elif l0 >= opts.level0_slowdown_trigger:
            # Soft-limit band.  Both backpressure modes inject their delay
            # at exactly this decision point and nowhere else, so the
            # background schedule — and therefore the MANIFEST — is
            # byte-identical across modes; only the *amount* differs.
            delay = self._soft_limit_delay(l0)
            if delay > 0.0:
                before = self.clock.now
                self.clock.advance(delay)
                cause = (
                    "l0_slowdown"
                    if opts.backpressure == "cliff"
                    else "l0_graduated"
                )
                self._attribute_stall(cause, before, self.clock.now)

    def _soft_limit_delay(self, l0: int) -> float:
        """Per-write delay while Level 0 sits in the slowdown band.

        ``cliff`` mode returns the fixed historical ``slowdown_delay``.
        ``graduated`` mode ramps linearly with debt: ``slowdown_delay``
        at the soft limit, rising to ``slowdown_delay_max`` one file
        short of the stop trigger, further scaled up by immutable-
        memtable debt — monotone in both, so heavier debt always means
        at least as much delay.
        """
        opts = self.options
        if opts.backpressure == "cliff":
            return opts.slowdown_delay
        band = max(1, opts.level0_stop_trigger - 1 - opts.level0_slowdown_trigger)
        l0_debt = (l0 - opts.level0_slowdown_trigger) / band
        imm_debt = len(self._imm) / max(1, opts.max_immutable_memtables)
        debt = min(1.0, max(0.0, l0_debt, imm_debt))
        return opts.slowdown_delay + (opts.slowdown_delay_max - opts.slowdown_delay) * debt

    def _attribute_stall(self, cause: str, start: float, end: float) -> None:
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
        self._stall_cause(cause).value += waited
        trc = self.tracer
        if trc is not None:
            span = trc.start_span("stall", start=start, cause=cause)
            span.end(at=end)

    def _stall_until(self, job: Optional[Job], cause: str = "flush_wait") -> None:
        if job is None:
            return
        before = self.clock.now
        self.executor.wait_for(job)
        self._attribute_stall(cause, before, self.clock.now)

    def _rotate_memtable(self) -> None:
        self._imm.append((self._mem, self._wal_number))
        self._mem = Memtable(self.seed + len(self._imm) + self._next_file_number)
        self._wal_number = self._alloc_file_number()
        self._wal = LogWriter(self.storage, self._wal_name(self._wal_number))
        self._maybe_schedule_flush()

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _maybe_schedule_flush(self) -> None:
        """Compute a flush of the oldest immutable memtable and submit it.

        The sstable is *written* now (so the job's cost is exact) but only
        becomes part of the version — and the memtable only goes away —
        when the job's completion time passes, mirroring a real background
        flush thread.
        """
        if self._flush_job is not None or not self._imm:
            return
        if self._faults.error is not None:
            return
        imm, _ = self._imm[0]
        acct = self.storage.background_account(self.prefix + "flush")
        metas = self._run_protected(
            "flush", lambda: self._write_sstables(iter(imm), acct, split_bytes=None)
        )
        if metas is None:  # degraded: the sstable could not be written
            return
        edit = VersionEdit(
            last_sequence=imm.max_sequence,
            next_file_number=self._next_file_number,
        )
        edit.log_number = self._imm[1][1] if len(self._imm) > 1 else self._wal_number
        cpu_cost = self.cpu.charge(
            "flush_build",
            (self.cpu.merge_entry + self.cpu.bloom_build_per_key) * len(imm),
        )
        acct.charge(cpu_cost)

        def settle(durable: bool) -> None:
            self._imm.pop(0)
            self._flush_job = None
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
        self._flush_job = self._submit_job(
            "flush", acct.seconds, edit, settle, span,
            prepare=lambda: self._install_flush(metas, edit),
        )

    def _reclaim_wals(self, log_number: Optional[int], durable: bool) -> None:
        """Delete WALs superseded by a flush whose edit is in the MANIFEST.

        All logs numbered below the edit's ``log_number`` are obsolete
        (this also reclaims files abandoned by :meth:`_switch_wal_file`).
        When the edit did *not* reach the MANIFEST the deletions wait for
        resume(): crash recovery would replay the old version, drop the
        flushed sstable as an orphan, and need the WAL as the only
        remaining copy of the data.
        """
        if log_number is None:
            return
        for number, name in numbered_files(self.storage, self.prefix, (WAL,)):
            if number < log_number:
                delete = partial(self.storage.delete, name, missing_ok=True)
                if durable:
                    delete()
                else:
                    self._faults.defer(DELETE_WAL, delete)

    # ==================================================================
    # Fault handling and graceful degradation
    # ==================================================================
    def _run_protected(self, kind: str, compute: Callable):
        """Run a background compute step with retries and state rollback.

        After a failed attempt its partially written sstables are deleted
        and the scheduling state is restored from a pre-attempt snapshot;
        a :class:`TransientIOError` then reruns the step after a backoff.
        A persistent fault, corruption, or an exhausted retry budget sets
        the sticky background error instead and returns None.
        """
        saved = []

        def attempt():
            saved[:] = (
                self._next_file_number, set(self._busy),
                self._compactions_inflight, self._capture_scheduling_state(),
            )
            return compute()

        def undo() -> None:
            start, self._busy, self._compactions_inflight, state = saved
            # Delete the attempt's sstables.  File numbers stay monotonic —
            # the counter is *not* rewound — so a stale table- or block-cache
            # entry keyed by number never aliases a later file.
            for number in range(start, self._next_file_number):
                self._drop_table_file(number)
            self._restore_scheduling_state(state)

        try:
            return self._faults.retry(kind, attempt, undo)
        except (CorruptionError, StorageError) as exc:
            self._faults.fail(kind, exc)
            return None

    def resume(self) -> bool:
        """Attempt to leave degraded mode (RocksDB's ``Resume``).

        Waits out in-flight background work, re-verifies that every live
        sstable still opens cleanly, persists any queued version edits
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
                # Opening checks the footer magic and parses the index.
                self._get_reader(number, acct)
            if self._manifest.pending or self._manifest.suspect:
                self._manifest.rotate(acct, self._alloc_file_number)

        if not self._faults.resume(repair):
            return False
        # wait_all() ran above: nothing is in flight, any marker is stale.
        self._busy.clear()
        self._compactions_inflight = 0
        self._reset_scheduling_state()
        # Rescheduled work may hit the same fault and re-degrade the
        # store immediately; report the post-reschedule health honestly.
        self._maybe_schedule_flush()
        self._schedule_compactions()
        self.executor.drain()
        return self._faults.error is None

    def _switch_wal_file(self) -> None:
        """Abandon the current WAL file after a failed append.

        The memtable's earlier records stay readable in the old file (the
        reader stops exactly at the failed record, which was never
        acknowledged); subsequent records go to a fresh file.  The flush
        that makes this memtable durable reclaims both files.
        """
        try:
            number = self._alloc_file_number()
            self._wal = LogWriter(self.storage, self._wal_name(number))
            self._wal_number = number
        except StorageError as exc:  # pragma: no cover - create is not faulted
            self._faults.fail("WAL rotation", exc)

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

    # ------------------------------------------------------------------
    # Table cache and file lifecycle
    # ------------------------------------------------------------------
    def _get_reader(self, number: int, account: IoAccount) -> SSTableReader:
        cache = self._table_cache
        reader = cache.get(number)
        if reader is not None:
            cache.move_to_end(number)
            self._table_hits += 1
            return reader
        self._table_misses += 1
        try:
            reader = SSTableReader.open(
                self.storage,
                self._sst_name(number),
                account,
                load_bloom=False,  # filters live with the file metadata
                block_cache=self._block_cache,
                cache_key=number,
            )
        except (CorruptionError, StorageError):
            # A failed open may have cached partial metadata for this
            # file; evict so a later retry starts from storage, not from
            # a half-populated cache entry.
            if self._block_cache is not None:
                self._block_cache.drop_file(number)
            raise
        cache[number] = reader
        while len(cache) > self.options.table_cache_size:
            cache.popitem(last=False)
        return reader

    def _pin_reads(self) -> int:
        """Keep every sstable and value-log segment that is live now on
        storage until unpinned.

        One pin covers a whole iterator: consumer code between its yields
        may trigger compactions, and whatever file lists, guard views or
        value pointers the iterator captured after taking the pin stay
        readable however many of those files are retired meanwhile.
        """
        self._pin_seq += 1
        self._read_pins[self._pin_seq] = None
        if self._vlog is not None:
            self._vlog.pin()
        return self._pin_seq

    def _unpin_reads(self, pin: int) -> None:
        """Release a pin; delete the retired files no older pin can see."""
        if self._vlog is not None:
            self._vlog.unpin()
        del self._read_pins[pin]
        oldest = next(iter(self._read_pins), None)
        retired = self._retired_files
        while retired and (oldest is None or retired[0][0] < oldest):
            self._drop_table_file(retired.popleft()[1])

    def _retire_file(self, number: int) -> None:
        """Delete a file once every pin taken before now is released."""
        if self._read_pins:
            self._retired_files.append((self._pin_seq, number))
        else:
            self._drop_table_file(number)

    def _drop_table_file(self, number: int) -> None:
        self._table_cache.pop(number, None)
        if self._block_cache is not None:
            self._block_cache.drop_file(number)
        self.storage.delete(self._sst_name(number), missing_ok=True)

    # ------------------------------------------------------------------
    # Read helpers
    # ------------------------------------------------------------------
    def _get_from_tables(self, key: bytes, snapshot: int, account: IoAccount) -> GetResult:
        """Search persistent state, Level 0 downward; the first level
        holding a visible version of ``key`` answers."""
        # One body for both the traced and untraced paths (an extra call
        # per get is measurable); the try/finally is free when nothing
        # raises.
        trc = self.tracer
        span = trc.span("table.search") if trc is not None else None
        try:
            # One interned probe key serves every table probed for this
            # lookup (readers would otherwise rebuild it, and its sort
            # tuple, per file), and one murmur digest serves every bloom
            # filter screened.
            probe = InternalKey(key, min(snapshot, MAX_SEQUENCE), KIND_SEEK)
            kh = murmur3_64(key)
            candidates = self._level_candidates
            get_reader = self._get_reader
            charge_cpu = account.charge_cpu
            cpu = self.cpu
            level_search = cpu.level_binary_search
            use_bloom = self.options.enable_sstable_bloom
            # The one filter test, applied to whatever holds the filter —
            # here the file's metadata.  Looked up per search: the pinned
            # benchmark's tracer patches it on the class and counts it
            # against files_probed + bloom_skipped.
            screen = SSTableReader.may_contain
            probed = bloom_skipped = seq_skipped = 0
            for level in range(self.options.num_levels):
                files = candidates(level, key)
                if files is None:
                    continue
                if level:
                    # Below Level 0 the candidates were found by bisecting
                    # the level's file or guard boundaries.
                    charge_cpu(cpu, "level_binary_search", level_search)
                # Candidates may overlap arbitrarily, and their order is
                # not version order (a guard re-homes old files after new
                # ones; RepairDB places anything), so the newest version
                # wins by sequence number.  A file is read only if it may
                # hold something newer than the best so far and its filter
                # — resident, consulted before any table is opened — says
                # the key may be there.
                best: Optional[GetResult] = None
                best_seq = -1
                level_probed = level_bloom = level_seq = 0
                for meta in files:
                    if meta.largest.user_key < key or meta.smallest.user_key > key:
                        continue
                    if meta.largest_seq <= best_seq:
                        level_seq += 1
                        continue
                    if meta.bloom is None and use_bloom:
                        # Recovered from the MANIFEST: fetched by the first
                        # get to consult the file, resident from then on.
                        meta.bloom = get_reader(meta.number, account).read_filter(
                            account
                        )
                    if not screen(meta, key, account, kh, cpu):
                        level_bloom += 1
                        continue
                    level_probed += 1
                    result = get_reader(meta.number, account).get(
                        key, snapshot, account, probe
                    )
                    if result.found and result.sequence > best_seq:
                        best, best_seq = result, result.sequence
                if level_seq:
                    self._probe_seq[level] += level_seq
                    seq_skipped += level_seq
                if level_bloom:
                    self._probe_bloom[level] += level_bloom
                    bloom_skipped += level_bloom
                if level_probed:
                    self._probe_files[level] += level_probed
                    probed += level_probed
                if best is not None:
                    if span is not None:
                        span.set(
                            level=level,
                            **self._search_span_attrs(level, key),
                            files_probed=probed,
                            bloom_skipped=bloom_skipped,
                            seq_skipped=seq_skipped,
                            found=True,
                        )
                    return best
            if span is not None:
                span.set(
                    files_probed=probed,
                    bloom_skipped=bloom_skipped,
                    seq_skipped=seq_skipped,
                    found=False,
                )
            return GetResult(False, False, None)
        except BaseException as exc:
            if span is not None:
                span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.end()

    def _resolve_value(self, value, kind: int, account: IoAccount) -> bytes:
        """Materialize one result value, chasing a value-log pointer."""
        if kind == KIND_VPTR:
            assert self._vlog is not None
            return self._vlog.read_value(
                ValuePointer.decode(bytes(value)), account
            )
        # bytes() materializes zero-copy (memoryview) sstable values; a
        # no-op for memtable values (bytes already).
        return bytes(value)

    def _visible_entries(
        self, start: Optional[bytes], snap: Optional[Snapshot], reverse: bool
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Newest visible version of each user key: from ``start`` onward,
        or when ``reverse`` descending from ``start`` (None: the top).

        A reverse merge is in descending internal-key order, so the
        versions of one user key arrive oldest first: the newest visible
        one is held until the user key changes.
        """
        acct = self._user_acct
        snapshot = snap.sequence if snap is not None else self._last_sequence
        pin = self._pin_reads()
        try:
            if not reverse and start is None:
                start = b""
            mems = [self._mem, *(imm for imm, _ in self._imm)]
            iters: List[Iterator[Entry]] = [
                mem.reverse_iter(start) if reverse else mem.seek(start) for mem in mems
            ]
            iters.extend(self._table_iterators(start, acct, reverse))
            merged = merging_iterator(iters, cpu=self.cpu, account=acct, reverse=reverse)
            prev: Optional[bytes] = None
            held: Optional[Entry] = None
            for key, value in merged:
                if key.sequence > snapshot:
                    continue
                if key.user_key == prev:
                    if reverse:  # ascending sequence: a later entry is newer
                        held = key, value
                    continue
                prev = key.user_key
                if reverse:  # the previous user key's newest version is known
                    held, entry = (key, value), held
                    if entry is None:
                        continue
                    key, value = entry
                if key.kind != KIND_DELETE:
                    yield key.user_key, self._resolve_value(value, key.kind, acct)
            if held is not None and held[0].kind != KIND_DELETE:
                key, value = held
                yield key.user_key, self._resolve_value(value, key.kind, acct)
        finally:
            self._unpin_reads(pin)

    def _table_iterators(
        self, start: Optional[bytes], account: IoAccount, reverse: bool = False
    ) -> List[Iterator[Entry]]:
        """One walk per Level-0 file that may hold keys past ``start`` in
        the walk's direction, then one per deeper level with data there.

        A forward seek charges ``iterator_seek`` once for every table it
        positions — the Level-0 files and each level's covering run — and
        reports them to the engine's ``_note_positioned(level, key,
        files)``; a reverse one does neither.
        """
        walk = self._walk_runs
        if reverse:
            level0 = [m for m in self._level0 if start is None or m.smallest.user_key <= start]
            key = start
        else:
            level0 = [m for m in self._level0 if m.largest.user_key >= start]
            key = InternalKey(start, MAX_SEQUENCE, KIND_SEEK)
        iters = [walk(((meta,),), 0, key, account, reverse) for meta in level0]
        seek_tables = self._seek_tables
        positioned = len(level0)
        if not reverse:
            for meta in level0:
                self._note_positioned(0, start, (meta,))
            seek_tables[0] += positioned
        parallel_level = self._parallel_seek_level()
        for level in range(1, self.options.num_levels):
            runs, first = self._level_runs(level, start, reverse)
            if not 0 <= first < len(runs):
                continue
            iters.append(walk(runs, first, key, account, reverse, level == parallel_level))
            if not reverse:
                files = runs[first]
                self._note_positioned(level, start, files)
                seek_tables[level] += len(files)
                positioned += len(files)
        if positioned and not reverse:
            account.charge(
                self.cpu.charge(
                    "iterator_seek", self.cpu.iterator_seek_per_table * positioned
                )
            )
        return iters

    def _walk_runs(
        self,
        runs: Sequence[Sequence[FileMetadata]],
        first: int,
        key: Union[InternalKey, bytes, None],
        account: IoAccount,
        reverse: bool = False,
        parallel: bool = False,
    ) -> Iterator[Entry]:
        """Entries of a key-ordered sequence of runs, from run ``first``;
        a run's readers open when the walk reaches it.

        Forward, run ``first`` is positioned at the internal key ``key`` (by
        the engine's ``_position_parallel`` when ``parallel`` and the run
        has several files) and every later run is read whole; reverse, runs
        ``first`` down to 0 are read backward from the user key ``key``
        (None: unbounded).  The files of one run are merged.  The caller holds a
        read pin, so compactions meanwhile neither hide keys from the
        walk nor delete its files.
        """
        get_reader = self._get_reader
        order = range(first, -1, -1) if reverse else range(first, len(runs))
        for idx in order:
            files = runs[idx]
            if reverse:
                iters = [
                    get_reader(f.number, account).iter_reverse(account, max_user_key=key)
                    for f in files
                ]
            elif idx != first:
                iters = [get_reader(f.number, account).iter_all(account) for f in files]
            elif parallel and len(files) > 1:
                iters = self._position_parallel(files, key, account)
            else:
                iters = [get_reader(f.number, account).seek(key, account) for f in files]
            if iters:
                yield from _merged(iters, reverse)

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
            self._wal_number = self._alloc_file_number()
            edit = VersionEdit(
                last_sequence=0,
                next_file_number=self._next_file_number,
                log_number=self._wal_number,
            )
            self._manifest.writer = create_manifest(self.storage, self.prefix, 1, edit, acct)
            self._wal = LogWriter(self.storage, self._wal_name(self._wal_number))
        self._post_recover()

    def _post_recover(self) -> None:
        """Hook run after recovery (FLSM re-seeds uncommitted guards)."""

    def _recover(self, manifest_name: str, acct: IoAccount) -> None:
        """Reinstall the MANIFEST's version, then flush the live WALs'
        records to Level 0 and start a fresh WAL."""
        storage, prefix = self.storage, self.prefix
        version = replay_manifest(storage, manifest_name, acct, self)
        self._last_sequence = version.last_sequence
        self._manifest.writer = ManifestWriter(storage, manifest_name)
        # Files written by in-flight background jobs that never committed
        # are orphans.
        remove_orphans(storage, prefix, set(self.sstable_file_numbers()))
        self._next_file_number = next_file_number(storage, prefix, version.next_file_number)
        if self._vlog is not None:
            # Before WAL replay: replayed pointer ops validate against the
            # recovered segments.
            self._vlog.recover(version.vlog_dead, version.vlog_deleted)
        wals, self._last_sequence = replay_wals(
            storage, prefix, version.log_number, acct, self._mem, self._last_sequence,
            strict=self.options.sync_writes, vlog=self._vlog,
        )
        if len(self._mem):
            metas = self._write_sstables(iter(self._mem), acct, split_bytes=None)
            edit = VersionEdit(
                last_sequence=self._last_sequence,
                next_file_number=self._next_file_number,
            )
            self._install_flush(metas, edit)
            self._manifest.writer.append(edit, acct)
            self._mem = Memtable(self.seed)
        for name in wals:
            storage.delete(name)
        self._wal_number = self._alloc_file_number()
        self._wal = LogWriter(storage, self._wal_name(self._wal_number))
        edit = VersionEdit(
            last_sequence=self._last_sequence,
            next_file_number=self._next_file_number,
            log_number=self._wal_number,
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

    def _wal_name(self, number: int) -> str:
        return file_name(self.prefix, number, WAL)
