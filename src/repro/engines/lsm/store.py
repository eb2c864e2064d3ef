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

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.guards import GuardedLevel, SortedLevel
from repro.engines.base import LSMStoreBase
from repro.engines.compaction import CompactionContext, CompactionResult
from repro.engines.options import StoreOptions
from repro.sim.storage import SimulatedStorage
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

    def __init__(
        self,
        storage: SimulatedStorage,
        options: Optional[StoreOptions] = None,
        prefix: str = "db/",
        seed: int = 0,
    ) -> None:
        opts = options if options is not None else StoreOptions()
        #: Level 0 is one run of overlapping files in flush order; every
        #: deeper level is disjoint files in key order.
        self._levels = [GuardedLevel(0)] + [
            SortedLevel(level) for level in range(1, opts.num_levels)
        ]
        self._compact_pointer: Dict[int, bytes] = {}
        self._seek_overflow: List[Tuple[int, FileMetadata]] = []
        #: Optional compaction trace for the Figure 2.1 illustration:
        #: (from_level, input_numbers, output_numbers, bytes_written).
        self.compaction_trace: Optional[List[Tuple[int, List[int], List[int], int]]] = None
        super().__init__(storage, opts, prefix=prefix, seed=seed)

    def compact_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> None:
        """Compact all data overlapping ``[lo, hi]`` to the deepest level
        holding it (LevelDB's CompactRange; a None bound is open)."""
        self.flush_memtable()
        self.executor.wait_all()
        for level in range(0, len(self._levels) - 1):
            while True:
                inputs = [
                    f
                    for f in self._levels[level].all_files()
                    if f.overlaps(lo, hi) and f.number not in self._busy
                ]
                pick = self._with_overlaps(level, inputs) if inputs else None
                if pick is None:
                    break
                if not self._run_compaction(level, pick):
                    return
                self.executor.wait_all()

    # ==================================================================
    # Seek bookkeeping
    # ==================================================================
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

    @property
    def _policy(self) -> _Policy:
        return _POLICIES.get(self.options.preset, _DEFAULT_POLICY)

    #: Level 0 and level sizes first; a seek-exhausted file only when
    #: neither has runnable work.
    COMPACTION_TRIGGERS = (("level0", "size"), ("seek",))

    def _trigger_level0(self):
        """All of Level 0, at its file-count trigger."""
        if self._level0_file_count() >= self.options.level0_compaction_trigger:
            pick = self._with_overlaps(0, self._level0)
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
            if not sizes[level]:
                continue
            score = sizes[level] / opts.level_target_bytes(level)
            if score >= best_score:
                best_level, best_score = level, score
        if best_level < 0:
            return
        files = [f for f in self._levels[best_level].all_files() if f.number not in self._busy]
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
            if meta.number not in self._levels[level] or level >= len(self._levels) - 1:
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
        return [f for f in self._levels[level].all_files() if f.overlaps(lo, hi)]

    def _compute_compaction(
        self, level: int, pick, ctx: CompactionContext
    ) -> CompactionResult:
        inputs, next_inputs = pick
        opts = self.options
        target = level + 1
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

    @staticmethod
    def _mutually_disjoint(metas: List[FileMetadata]) -> bool:
        ordered = sorted(metas, key=lambda f: f.smallest)
        return all(
            a.largest.user_key < b.smallest.user_key
            for a, b in zip(ordered, ordered[1:])
        )

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def layout(self) -> str:
        """Human-readable level map (the Figure 2.1 style illustration)."""
        lines = []
        for level, files in enumerate(lvl.all_files() for lvl in self._levels):
            if not files and level > 1:
                continue
            parts = [
                f"[{f.smallest.user_key!r}..{f.largest.user_key!r}#{f.number}]"
                for f in files
            ]
            lines.append(f"Level {level}: " + (" ".join(parts) if parts else "(empty)"))
        return "\n".join(lines)
