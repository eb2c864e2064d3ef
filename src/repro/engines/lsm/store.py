"""Classic leveled LSM store (LevelDB-family baseline).

Invariant (paper section 2.2): every level except Level 0 holds sstables
with pairwise-disjoint key ranges, so a lookup reads at most one file per
level.  The price is the write amplification the paper attacks: compacting
a file into level *i+1* rewrites every overlapping file there.

Presets (see :mod:`repro.engines.options`) differentiate LevelDB,
HyperLevelDB, and RocksDB by memtable size, Level-0 limits, worker count,
and how many files one compaction pass takes.  LevelDB's trivial-move
optimization is implemented: a file that overlaps nothing in the next
level moves by metadata edit alone, which is why sequential insertion is
nearly free for LSM but not for FLSM (paper section 4.5).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engines.base import Entry, LSMStoreBase
from repro.engines.compaction import CompactionContext, CompactionResult
from repro.memtable.memtable import GetResult
from repro.sim.storage import IoAccount
from repro.util.keys import InternalKey, KIND_PUT, KIND_SEEK, MAX_SEQUENCE
from repro.util.murmur import murmur3_64
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_NONE


class LeveledLSMStore(LSMStoreBase):
    """Leveled-compaction LSM engine."""

    def __init__(self, *args, **kwargs) -> None:
        self._levels: List[List[FileMetadata]] = []
        self._compact_pointer: Dict[int, bytes] = {}
        self._seek_overflow: List[Tuple[int, FileMetadata]] = []
        #: Optional compaction trace for the Figure 2.1 illustration:
        #: (from_level, input_numbers, output_numbers, bytes_written).
        self.compaction_trace: Optional[List[Tuple[int, List[int], List[int], int]]] = None
        super().__init__(*args, **kwargs)
        while len(self._levels) < self.options.num_levels:
            self._levels.append([])

    # ==================================================================
    # State installation
    # ==================================================================
    def _install_flush(self, metas: List[FileMetadata], edit: VersionEdit) -> None:
        while not self._levels:  # recovery may flush before levels exist
            self._levels.append([])
        for meta in metas:
            self._levels[0].insert(0, meta)
            edit.add_file(0, meta, GUARD_NONE)

    def _level0_file_count(self) -> int:
        return len(self._levels[0]) if self._levels else 0

    def level_sizes(self) -> List[int]:
        return [sum(f.file_size for f in level) for level in self._levels]

    def sstable_file_numbers(self) -> List[int]:
        return [f.number for level in self._levels for f in level]

    def sstable_sizes(self) -> List[int]:
        """Sizes of all live sstables (Table 5.1 input)."""
        return [f.file_size for level in self._levels for f in level]

    def files_per_level(self) -> List[int]:
        return [len(level) for level in self._levels]

    def live_files(self) -> List[FileMetadata]:
        return [f for level in self._levels for f in level]

    def compact_range(self, lo: bytes, hi: bytes) -> None:
        """Compact all data overlapping ``[lo, hi]`` to the deepest level
        holding it (LevelDB's CompactRange restricted to a key range)."""
        self.flush_memtable()
        self.executor.wait_all()
        for level in range(0, len(self._levels) - 1):
            while True:
                inputs = [
                    f
                    for f in self._levels[level]
                    if f.overlaps(lo, hi) and f.number not in self._busy
                ]
                if not inputs:
                    break
                next_inputs = self._overlapping(level + 1, inputs)
                if any(f.number in self._busy for f in next_inputs):
                    break
                if not self._run_compaction(level, (inputs, next_inputs)):
                    return
                self.executor.wait_all()

    # ==================================================================
    # Reads
    # ==================================================================
    def _get_from_tables(self, key: bytes, snapshot: int, account: IoAccount) -> GetResult:
        # One body for both the traced and untraced paths (an extra call
        # per get is measurable); the try/finally is free when nothing
        # raises.
        trc = self.tracer
        span = trc.span("table.search") if trc is not None else None
        try:
            # Level 0: files may overlap arbitrarily (e.g. after RepairDB
            # placed everything there), so the newest matching version
            # across all candidates wins, decided by sequence number.
            # One interned probe key serves every table probed below, and
            # one murmur digest serves every bloom filter screened.
            probe = InternalKey(key, min(snapshot, MAX_SEQUENCE), KIND_SEEK)
            kh = murmur3_64(key)
            get_reader = self._get_reader
            charge_cpu = account.charge_cpu
            cpu = self.cpu
            level_search = cpu.level_binary_search
            probed = 0
            bloom_skipped = 0
            best: Optional[GetResult] = None
            level_probed = level_skipped = 0
            for meta in self._levels[0]:
                if meta.largest.user_key < key or meta.smallest.user_key > key:
                    continue
                reader = get_reader(meta.number, account)
                if not reader.may_contain(key, account, kh):
                    level_skipped += 1
                    continue
                level_probed += 1
                result = reader.get(key, snapshot, account, probe)
                if result.found and (best is None or result.sequence > best.sequence):
                    best = result
            if level_skipped:
                self._probe_bloom[0] += level_skipped
                bloom_skipped += level_skipped
            if level_probed:
                self._probe_files[0] += level_probed
                probed += level_probed
            if best is not None:
                if span is not None:
                    span.set(
                        level=0,
                        files_probed=probed,
                        bloom_skipped=bloom_skipped,
                        found=True,
                    )
                return best
            # Deeper levels: at most one candidate file each.
            for level in range(1, len(self._levels)):
                files = self._levels[level]
                if not files:
                    continue
                charge_cpu(cpu, "level_binary_search", level_search)
                meta = self._find_file(files, key)
                if meta is None:
                    continue
                reader = get_reader(meta.number, account)
                if not reader.may_contain(key, account, kh):
                    self._probe_bloom[level] += 1
                    bloom_skipped += 1
                    continue
                self._probe_files[level] += 1
                probed += 1
                result = reader.get(key, snapshot, account, probe)
                if result.found:
                    if span is not None:
                        span.set(
                            level=level,
                            files_probed=probed,
                            bloom_skipped=bloom_skipped,
                            found=True,
                        )
                    return result
            if span is not None:
                span.set(files_probed=probed, bloom_skipped=bloom_skipped, found=False)
            return GetResult(False, False, None)
        except BaseException as exc:
            if span is not None:
                span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.end()

    @staticmethod
    def _find_file(files: List[FileMetadata], key: bytes) -> Optional[FileMetadata]:
        """The single file in a disjoint level that may contain ``key``."""
        lo, hi = 0, len(files)
        while lo < hi:
            mid = (lo + hi) // 2
            if files[mid].largest.user_key < key:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(files):
            return None
        meta = files[lo]
        return meta if meta.smallest.user_key <= key else None

    def _table_iterators(
        self, start: Optional[bytes], account: IoAccount
    ) -> List[Iterator[Entry]]:
        start_key = start if start is not None else b""
        probe = InternalKey(start_key, MAX_SEQUENCE, KIND_SEEK)
        iters: List[Iterator[Entry]] = []
        touched: List[FileMetadata] = []
        for meta in list(self._levels[0]):
            if meta.largest.user_key < start_key:
                continue
            touched.append(meta)
            iters.append(self._file_iter(meta, probe, account))
        for level in range(1, len(self._levels)):
            files = list(self._levels[level])
            if not files:
                continue
            idx = self._file_index_for(files, start_key)
            if idx >= len(files):
                continue
            touched.append(files[idx])
            iters.append(self._level_iter(files, idx, probe, account))
        self._charge_seek_costs(touched, account)
        return iters

    def _charge_seek_costs(self, metas: List[FileMetadata], account: IoAccount) -> None:
        if metas:
            account.charge(
                self.cpu.charge(
                    "iterator_seek",
                    self.cpu.iterator_seek_per_table * len(metas),
                )
            )
        for meta in metas:
            meta.allowed_seeks -= 1
            if meta.allowed_seeks == 0:
                level = self._level_of(meta.number)
                if level is not None:
                    self._seek_overflow.append((level, meta))

    @staticmethod
    def _file_index_for(files: List[FileMetadata], key: bytes) -> int:
        lo, hi = 0, len(files)
        while lo < hi:
            mid = (lo + hi) // 2
            if files[mid].largest.user_key < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _level_iter(
        self,
        files: List[FileMetadata],
        idx: int,
        probe: InternalKey,
        account: IoAccount,
    ) -> Iterator[Entry]:
        first = True
        for meta in files[idx:]:
            reader = self._get_reader(meta.number, account)
            if first:
                yield from reader.seek(probe, account)
                first = False
            else:
                yield from reader.iter_all(account)

    def _table_iterators_reverse(
        self, start: Optional[bytes], account: IoAccount
    ) -> List[Iterator[Entry]]:
        bound = start  # None = unbounded
        iters: List[Iterator[Entry]] = []
        for meta in list(self._levels[0]):
            if bound is not None and meta.smallest.user_key > bound:
                continue
            iters.append(self._file_iter_reverse(meta, bound, account))
        for level in range(1, len(self._levels)):
            files = list(self._levels[level])
            if not files:
                continue
            iters.append(self._level_iter_reverse(files, bound, account))
        return iters

    def _level_iter_reverse(
        self, files: List[FileMetadata], bound: Optional[bytes], account: IoAccount
    ) -> Iterator[Entry]:
        for meta in reversed(files):
            if bound is not None and meta.smallest.user_key > bound:
                continue
            reader = self._get_reader(meta.number, account)
            yield from reader.iter_reverse(account, max_user_key=bound)

    # ==================================================================
    # Compaction: pick, compute, install (the lifecycle between them is
    # repro.engines.compaction)
    # ==================================================================
    COMPACTION_CAUSE = "compaction.level"

    def _pick_and_submit(self) -> bool:
        self._l0_conflict_blocked = False
        spec = self._pick_compaction()
        return spec is not None and self._run_compaction(spec[0], spec[1:])

    def _scheduler_mode(self) -> str:
        # Leveled compaction already serializes at file granularity: jobs
        # conflict only when their input/output file sets intersect.
        return "file"

    def _capture_scheduling_state(self):
        return dict(self._compact_pointer), list(self._seek_overflow)

    def _restore_scheduling_state(self, snapshot) -> None:
        self._compact_pointer, self._seek_overflow = snapshot

    def _pick_compaction(
        self,
    ) -> Optional[Tuple[int, List[FileMetadata], List[FileMetadata]]]:
        opts = self.options
        # Priority 1: Level 0 file count.
        l0 = [f for f in self._levels[0] if f.number not in self._busy]
        if len(self._levels[0]) >= opts.level0_compaction_trigger:
            if len(l0) == len(self._levels[0]):  # nothing already being compacted
                next_inputs = self._overlapping(1, l0)
                if all(f.number not in self._busy for f in next_inputs):
                    return (0, l0, next_inputs)
            self._l0_conflict_blocked = True
            self._stats.compaction_conflicts += 1
        # Priority 2: level size vs target.
        best_level, best_score = -1, opts.compaction_eagerness
        sizes = self.level_sizes()
        for level in range(1, len(self._levels) - 1):
            if not self._levels[level]:
                continue
            score = sizes[level] / opts.level_target_bytes(level)
            if score >= best_score:
                best_level, best_score = level, score
        if best_level > 0:
            picked = self._pick_level_inputs(best_level)
            if picked is not None:
                return picked
        # Priority 3: seek-triggered compaction.
        while self._seek_overflow:
            level, meta = self._seek_overflow.pop(0)
            if meta.number in self._busy or self._level_of(meta.number) != level:
                continue
            if level >= len(self._levels) - 1:
                continue
            next_inputs = self._overlapping(level + 1, [meta])
            if all(f.number not in self._busy for f in next_inputs):
                return (level, [meta], next_inputs)
        return None

    def _pick_level_inputs(
        self, level: int
    ) -> Optional[Tuple[int, List[FileMetadata], List[FileMetadata]]]:
        opts = self.options
        files = [f for f in self._levels[level] if f.number not in self._busy]
        if not files:
            return None
        count = opts.compaction_max_input_files
        if opts.compaction_policy == "min_overlap":
            inputs = self._min_overlap_window(level, files, count)
        else:
            pointer = self._compact_pointer.get(level, b"")
            start = 0
            for i, meta in enumerate(files):
                if meta.largest.user_key > pointer:
                    start = i
                    break
            inputs = files[start : start + count]
            if not inputs:
                inputs = files[:count]
        next_inputs = self._overlapping(level + 1, inputs)
        if any(f.number in self._busy for f in next_inputs):
            return None
        return (level, inputs, next_inputs)

    def _min_overlap_window(
        self, level: int, files: List[FileMetadata], count: int
    ) -> List[FileMetadata]:
        """HyperLevelDB's compaction choice: the contiguous window of
        files whose next-level overlap is smallest relative to its size,
        minimizing the rewrite IO of the pass."""
        best: List[FileMetadata] = files[:count]
        best_score = float("inf")
        for start in range(len(files)):
            window = files[start : start + count]
            input_bytes = sum(f.file_size for f in window)
            if input_bytes == 0:
                continue
            overlap = sum(
                f.file_size for f in self._overlapping(level + 1, window)
            )
            score = overlap / input_bytes
            if score < best_score:
                best_score = score
                best = window
        return best

    def _overlapping(self, level: int, inputs: List[FileMetadata]) -> List[FileMetadata]:
        if level >= len(self._levels):
            return []
        lo = min(f.smallest.user_key for f in inputs)
        hi = max(f.largest.user_key for f in inputs)
        return [f for f in self._levels[level] if f.overlaps(lo, hi)]

    def _compute_compaction(
        self, level: int, pick, ctx: CompactionContext
    ) -> CompactionResult:
        inputs, next_inputs = pick
        opts = self.options
        target = level + 1
        self._busy.update(f.number for f in inputs + next_inputs)
        consumed = [(level, f) for f in inputs] + [(target, f) for f in next_inputs]
        # Trivial move: nothing to merge with and inputs mutually disjoint —
        # a metadata-only edit, no IO.  This is LevelDB's fast path that
        # makes sequential insertion so cheap (paper section 4.5).
        if (
            opts.allow_trivial_move
            and not next_inputs
            and self._mutually_disjoint(inputs)
        ):
            moved = [(target, f, GUARD_NONE, b"") for f in inputs]
            return CompactionResult(consumed, moved)
        merged = ctx.merge(inputs + next_inputs, self._is_bottom(target))
        metas = ctx.write(merged, split_bytes=opts.target_file_bytes)
        if inputs:
            self._compact_pointer[level] = max(f.largest.user_key for f in inputs)
        if self.compaction_trace is not None:
            self.compaction_trace.append(
                (
                    level,
                    [f.number for _, f in consumed],
                    [m.number for m in metas],
                    sum(m.file_size for m in metas),
                )
            )
        return CompactionResult(
            consumed, [(target, m, GUARD_NONE, b"") for m in metas]
        )

    def _install_compaction(self, result: CompactionResult) -> None:
        for level, meta in result.consumed:
            self._remove_from_level(level, meta.number)
        for level, meta, _, _ in result.outputs:
            insort(self._levels[level], meta, key=lambda f: f.smallest)

    @staticmethod
    def _mutually_disjoint(metas: List[FileMetadata]) -> bool:
        ordered = sorted(metas, key=lambda f: f.smallest)
        return all(
            a.largest.user_key < b.smallest.user_key
            for a, b in zip(ordered, ordered[1:])
        )

    def _remove_from_level(self, level: int, number: int) -> None:
        self._levels[level] = [f for f in self._levels[level] if f.number != number]

    def _is_bottom(self, level: int) -> bool:
        """True when no live data exists below ``level``."""
        return all(not self._levels[l] for l in range(level + 1, len(self._levels)))

    def _level_of(self, number: int) -> Optional[int]:
        for level, files in enumerate(self._levels):
            if any(f.number == number for f in files):
                return level
        return None

    def force_full_compaction(self) -> None:
        """LevelDB's ``CompactRange``: merge every level into the next
        until all data sits at the deepest populated level and tombstones
        are garbage collected."""
        self.flush_memtable()
        self.executor.wait_all()
        for level in range(0, len(self._levels) - 1):
            while self._levels[level]:
                inputs = [
                    f for f in self._levels[level] if f.number not in self._busy
                ]
                if not inputs:
                    break
                next_inputs = self._overlapping(level + 1, inputs)
                if any(f.number in self._busy for f in next_inputs):
                    break
                if not self._run_compaction(level, (inputs, next_inputs)):
                    return
                self.executor.wait_all()

    # ==================================================================
    # Recovery plumbing
    # ==================================================================
    def _recover_file(
        self, level: int, meta: FileMetadata, marker: int, guard_key: bytes
    ) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
        if level == 0:
            self._levels[0].insert(0, meta)
        else:
            insort(self._levels[level], meta, key=lambda f: f.smallest)

    def _recover_drop_file(self, level: int, number: int) -> None:
        if level < len(self._levels):
            self._remove_from_level(level, number)

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def layout(self) -> str:
        """Human-readable level map (the Figure 2.1 style illustration)."""
        lines = []
        for level, files in enumerate(self._levels):
            if not files and level > 1:
                continue
            parts = [
                f"[{f.smallest.user_key!r}..{f.largest.user_key!r}#{f.number}]"
                for f in files
            ]
            lines.append(f"Level {level}: " + (" ".join(parts) if parts else "(empty)"))
        return "\n".join(lines)

    def check_invariants(self) -> None:
        for level in range(1, len(self._levels)):
            files = self._levels[level]
            for a, b in zip(files, files[1:]):
                assert a.smallest <= a.largest, "file range inverted"
                assert a.largest.user_key < b.smallest.user_key, (
                    f"level {level} files overlap: {a.largest!r} vs {b.smallest!r}"
                )
        numbers = self.sstable_file_numbers()
        assert len(numbers) == len(set(numbers)), "duplicate file numbers"
        for number in numbers:
            if number not in self._busy:
                assert self.storage.exists(self._sst_name(number)), (
                    f"live sstable missing on storage: {number}"
                )
