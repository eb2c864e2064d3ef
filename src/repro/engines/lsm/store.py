"""Classic leveled LSM store (LevelDB-family baseline).

Invariant (paper section 2.2): every level except Level 0 holds sstables
with pairwise-disjoint key ranges, so a lookup reads at most one file per
level.  The price is the write amplification the paper attacks: compacting
a file into level *i+1* rewrites every overlapping file there.

Presets (see :mod:`repro.engines.options`) differentiate LevelDB,
HyperLevelDB, and RocksDB by Level-0 limits and worker count, and — the
``_POLICIES`` table below — by which files one compaction pass takes, how
many, and how early a level starts.  LevelDB's trivial-move
optimization is implemented: a file that overlaps nothing in the next
level moves by metadata edit alone, which is why sequential insertion is
nearly free for LSM but not for FLSM (paper section 4.5).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engines.base import LSMStoreBase
from repro.engines.compaction import CompactionContext, CompactionResult
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_NONE


class _Policy(NamedTuple):
    """How a preset compacts a level that is over its size target."""

    #: ``pick(store, level, idle_files, count)``: the window of inputs.
    pick: Callable[..., List[FileMetadata]]
    #: Input files one pass takes from the level.
    max_input_files: int
    #: Fraction of a level's size target at which compacting it starts.
    start_at: float
    #: Move files that overlap nothing below by metadata edit alone.
    trivial_move: bool


def _from_cursor(
    store: "LeveledLSMStore", level: int, files: List[FileMetadata], count: int
) -> List[FileMetadata]:
    """LevelDB's choice: the next files past the level's cursor (where its
    previous compaction ended), wrapping to the start."""
    pointer = store._compact_pointer.get(level, b"")
    start = next(
        (i for i, meta in enumerate(files) if meta.largest.user_key > pointer), 0
    )
    return files[start : start + count]


def _min_overlap_window(
    store: "LeveledLSMStore", level: int, files: List[FileMetadata], count: int
) -> List[FileMetadata]:
    """HyperLevelDB's choice: the contiguous window of files whose
    next-level overlap is smallest relative to its size, minimizing the
    rewrite IO of the pass."""
    best: List[FileMetadata] = files[:count]
    best_score = float("inf")
    for start in range(len(files)):
        window = files[start : start + count]
        input_bytes = sum(f.file_size for f in window)
        if input_bytes == 0:
            continue
        overlap = sum(f.file_size for f in store._overlapping(level + 1, window))
        score = overlap / input_bytes
        if score < best_score:
            best_score = score
            best = window
    return best


#: ``options.preset`` -> policy; the presets' other differences (memtable
#: count, workers, Level-0 limits) are plain ``StoreOptions`` fields.
#: LevelDB starts a level early; RocksDB takes narrower passes and never
#: moves trivially — its default compaction rewrites in far more
#: situations, a large part of its higher amplification.
_POLICIES = {
    "leveldb": _Policy(_from_cursor, 4, 0.75, True),
    "hyperleveldb": _Policy(_min_overlap_window, 4, 1.0, True),
    "rocksdb": _Policy(_from_cursor, 3, 1.0, False),
}
_DEFAULT_POLICY = _Policy(_from_cursor, 4, 1.0, True)


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

    def files_per_level(self) -> List[int]:
        return [len(level) for level in self._levels]

    def live_files(self) -> List[FileMetadata]:
        return [f for level in self._levels for f in level]

    def compact_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> None:
        """Compact all data overlapping ``[lo, hi]`` to the deepest level
        holding it (LevelDB's CompactRange; a None bound is open)."""
        self.flush_memtable()
        self.executor.wait_all()
        for level in range(0, len(self._levels) - 1):
            while True:
                inputs = [
                    f
                    for f in self._levels[level]
                    if f.overlaps(lo, hi) and f.number not in self._busy
                ]
                pick = self._with_overlaps(level, inputs) if inputs else None
                if pick is None:
                    break
                if not self._run_compaction(level, pick):
                    return
                self.executor.wait_all()

    # ==================================================================
    # Reads
    # ==================================================================
    @property
    def _level0(self) -> List[FileMetadata]:
        return self._levels[0]

    def _level_candidates(self, level: int, key: bytes):
        files = self._levels[level]
        if not files:
            return None
        if level == 0:
            return files
        # Deeper levels are disjoint: the first file ending at or after
        # ``key`` is the single one that may contain it.
        idx = bisect_left(files, key, key=lambda f: f.largest.user_key)
        return files[idx : idx + 1]

    def _level_runs(
        self, level: int, key: Optional[bytes], reverse: bool
    ) -> Tuple[Tuple[Tuple[FileMetadata], ...], int]:
        # A run is one file, and a key may fall between two files: forward
        # it is covered by the first file ending at or after it, in reverse
        # by the last file starting at or before it.
        runs = tuple(zip(self._levels[level]))
        if key is None:
            return runs, len(runs) - 1
        if reverse:
            return runs, bisect_right(runs, key, key=lambda run: run[0].smallest.user_key) - 1
        return runs, bisect_left(runs, key, key=lambda run: run[0].largest.user_key)

    def _note_positioned(self, level: int, key: bytes, files: Sequence[FileMetadata]) -> None:
        for meta in files:
            meta.allowed_seeks -= 1
            if meta.allowed_seeks == 0:
                self._seek_overflow.append((level, meta))

    # ==================================================================
    # Compaction: pick, compute, install (the lifecycle between them is
    # repro.engines.compaction)
    # ==================================================================
    COMPACTION_CAUSE = "compaction.level"

    def _scheduler_mode(self) -> str:
        # Leveled compaction already serializes at file granularity: jobs
        # conflict only when their input/output file sets intersect.
        return "file"

    def _capture_scheduling_state(self):
        return dict(self._compact_pointer)

    def _restore_scheduling_state(self, snapshot) -> None:
        self._compact_pointer = snapshot

    @property
    def _policy(self) -> _Policy:
        return _POLICIES.get(self.options.preset, _DEFAULT_POLICY)

    #: Level 0 and level sizes first; a seek-exhausted file only when
    #: neither has runnable work.
    COMPACTION_TRIGGERS = (("level0", "size"), ("seek",))

    def _trigger_level0(self):
        """All of Level 0, at its file-count trigger."""
        if len(self._levels[0]) >= self.options.level0_compaction_trigger:
            pick = self._with_overlaps(0, list(self._levels[0]))
            if pick is not None:
                yield 0, pick
            else:
                self._l0_conflict_blocked = True
                self._stats.compaction_conflicts += 1

    def _trigger_size(self):
        """The preset's window of idle files from the level furthest past
        its policy's share of its size target."""
        opts, policy = self.options, self._policy
        best_level, best_score = -1, policy.start_at
        sizes = self.level_sizes()
        for level in range(1, len(self._levels) - 1):
            if not self._levels[level]:
                continue
            score = sizes[level] / opts.level_target_bytes(level)
            if score >= best_score:
                best_level, best_score = level, score
        if best_level < 0:
            return
        files = [f for f in self._levels[best_level] if f.number not in self._busy]
        if files:
            inputs = policy.pick(self, best_level, files, policy.max_input_files)
            pick = self._with_overlaps(best_level, inputs)
            if pick is not None:
                yield best_level, pick

    def _trigger_seek(self):
        """The oldest runnable file that ran out of ``allowed_seeks``
        (LevelDB's seek compaction); the entries it passes are dropped."""
        while self._seek_overflow:
            level, meta = self._seek_overflow.pop(0)
            if self._level_of(meta.number) != level or level >= len(self._levels) - 1:
                continue
            pick = self._with_overlaps(level, [meta])
            if pick is not None:
                yield level, pick
                return

    def _with_overlaps(
        self, level: int, inputs: List[FileMetadata]
    ) -> Optional[Tuple[List[FileMetadata], List[FileMetadata]]]:
        """``(inputs, next_inputs)`` for compacting ``inputs`` out of
        ``level``, or None when a file on either side is busy.

        Level-0 files overlap each other: one may only sink together with
        every Level-0 file its range touches, or an older version left
        behind would shadow it (LevelDB's GetOverlappingInputs widens the
        same way).
        """
        if level == 0:
            while len(wider := self._overlapping(0, inputs)) > len(inputs):
                inputs = wider
        next_inputs = self._overlapping(level + 1, inputs)
        if any(f.number in self._busy for f in inputs + next_inputs):
            return None
        return inputs, next_inputs

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
            self._policy.trivial_move
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
        super().check_invariants()
