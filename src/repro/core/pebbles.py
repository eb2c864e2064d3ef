"""PebblesDB: a key-value store over Fragmented Log-Structured Merge trees.

The FLSM rules implemented here (paper chapter 3):

* Levels 1..N-1 are partitioned by **guards**; sstables inside a guard may
  overlap, guards never do.
* Guard keys are selected probabilistically from inserted keys by the
  MurmurHash trailing-bits rule and collected in an in-memory
  *uncommitted* set per level; they take effect — and are persisted — only
  at the next compaction into that level (section 3.3).
* Compaction of a guard merge-sorts its sstables and *partitions* the
  stream by the next level's guards, appending one fragment per child
  guard.  Data is rewritten only (a) in the last level, where fragments
  must merge with a full guard, and (b) in the second-to-last level when
  merging into the last level would cost more than
  ``LAST_LEVEL_MERGE_IO_RATIO`` times the input (section 3.4).
* An sstable that an uncommitted guard would split (a *straddler*) joins
  the compaction committing the guard and re-lands partitioned in its own
  level; the paper pushes it one level down instead (section 3.3).  The
  ``compaction.straddler_bytes{level}`` counter measures the difference.
* Guard deletion is asynchronous and metadata-only: the deleted guard's
  range is absorbed by its left neighbour (section 3.3).

On top of FLSM, the PebblesDB optimizations (chapter 4): per-sstable bloom
filters, seek-based compaction of the multi-sstable guards a run of
consecutive seeks touched, and parallel seeks in the last level, each
independently switchable for the ablation study.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.guards import Guard, GuardedLevel, GuardPicker
from repro.engines.base import Entry, LSMStoreBase
from repro.engines.compaction import CompactionContext, CompactionResult
from repro.engines.options import StoreOptions
from repro.sim.cpu import CpuCosts
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.util.keys import InternalKey, KIND_DELETE
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_KEY, GUARD_SENTINEL

#: A second-to-last-level guard is rewritten in place instead of pushed
#: down when merging it into the last level would cost at least this many
#: times its own bytes (the paper's 25x heuristic, section 3.4).
LAST_LEVEL_MERGE_IO_RATIO = 25.0


def _key_label(key: Optional[bytes]) -> str:
    """Readable, deterministic span-attribute form of a guard key."""
    if key is None:
        return "<sentinel>"
    return key.decode("ascii", "backslashreplace")


def _placed(
    level: int, guard_key: Optional[bytes], meta: FileMetadata
) -> Tuple[int, FileMetadata, int, bytes]:
    """A version-edit file entry for ``meta`` under ``guard_key`` (None = sentinel)."""
    if guard_key is None:
        return (level, meta, GUARD_SENTINEL, b"")
    return (level, meta, GUARD_KEY, guard_key)


class _SwitchAccount:
    """An account that accumulates until attached to a real account.

    Used to *measure* the positioning cost of each sstable during a
    parallel seek: the per-table costs are collected separately, the
    foreground is charged ``max`` of them (the tables are probed by
    concurrent threads, paper section 4.2), and subsequent iteration
    charges flow through to the foreground account.
    """

    __slots__ = ("name", "measured", "_target")

    def __init__(self, name: str) -> None:
        self.name = name
        self.measured = 0.0
        self._target: Optional[IoAccount] = None

    def charge(self, seconds: float) -> None:
        if self._target is None:
            self.measured += seconds
        else:
            self._target.charge(seconds)

    def charge_cpu(self, cpu: CpuCosts, name: str, amount: float) -> None:
        self.charge(cpu.charge(name, amount))

    def attach(self, target: IoAccount) -> None:
        self._target = target


class _Peekable:
    """Iterator wrapper with one-entry lookahead (partitioning helper)."""

    __slots__ = ("_it", "_head")

    def __init__(self, it: Iterator[Entry]) -> None:
        self._it = it
        self._head: Optional[Entry] = next(it, None)

    @property
    def has_next(self) -> bool:
        return self._head is not None

    def peek(self) -> Entry:
        assert self._head is not None
        return self._head

    def take_until(self, hi: Optional[bytes]) -> Iterator[Entry]:
        """Yield entries with user_key < hi (all remaining if hi is None).

        The lookahead is refilled *before* an entry is handed out: the
        merge reads its inputs one entry ahead of the table being built,
        and that interleaving is what the page cache sees.
        """
        it = self._it
        entry = self._head
        while entry is not None and (hi is None or entry[0].user_key < hi):
            self._head = next(it, None)
            yield entry
            entry = self._head


class PebblesDBStore(LSMStoreBase):
    """The paper's key-value store, built on FLSM."""

    def __init__(
        self,
        storage: SimulatedStorage,
        options: Optional[StoreOptions] = None,
        prefix: str = "db/",
        seed: int = 0,
    ) -> None:
        opts = options if options is not None else StoreOptions.pebblesdb()
        #: One guarded level per level.  Level 0 never gains a guard, so
        #: all of it sits in its sentinel, in flush order.
        self._levels = self._guarded = [
            GuardedLevel(level, overfull_files=max(2, opts.max_sstables_per_guard))
            for level in range(opts.num_levels)
        ]
        self._uncommitted: List[Set[bytes]] = [set() for _ in range(opts.num_levels)]
        #: Guard keys removed from the uncommitted set at job submission
        #: but not yet applied to the level (the job is in flight).
        self._committing: Set[Tuple[int, bytes]] = set()
        self._pending_guard_deletions: Set[bytes] = set()
        self._picker = GuardPicker(
            opts.top_level_bits, opts.bit_decrement, opts.num_levels
        )
        self._consecutive_seeks = 0
        self._seek_compaction_due = False
        self._touched_guards: List[Tuple[int, Optional[bytes]]] = []
        #: The touched guards this scheduling pass's seek tier took.
        self._seek_taken: Optional[List[Tuple[int, Guard]]] = None
        self.guards_selected = 0
        # Conflict map for in-flight compactions.  Each job holds one
        # claim per level it touches, a half-open key range ``(level, lo,
        # hi)`` with None as the open end; a new job may only start when
        # none of its claims overlaps a held claim on the same level.
        # Guard commits apply at job completion, so a job's target claim
        # is widened to the *committed-guard boundaries* covering its
        # range — any guard the job may commit, split, or force-merge
        # falls inside the claim, and disjointly-claimed guard jobs can
        # run concurrently on separate worker timelines.  With
        # ``compaction_scheduler="level"`` claims degrade to whole-level
        # ranges, reproducing the historical per-level serialization.
        self._claims: dict = {}
        self._claim_seq = 0
        # Bytes an in-flight job will remove from its source level when
        # it applies; size triggers subtract this so several workers do
        # not over-compact the same level (write-amp stability).
        self._inflight_outflow: dict = {}
        super().__init__(storage, opts, prefix=prefix, seed=seed)

    # ==================================================================
    # Guard selection (paper section 4.4)
    # ==================================================================
    def _on_insert_key(self, key: bytes) -> None:
        self._consecutive_seeks = 0
        self._user_acct.charge_cpu(self.cpu, "guard_hash", 0.3e-6)
        level = self._picker.guard_level(key)
        if level is None:
            return
        self.guards_selected += 1
        for lvl in range(level, self.options.num_levels):
            guarded = self._guarded[lvl]
            if not guarded.has_guard(key):
                self._uncommitted[lvl].add(key)

    # ==================================================================
    # State installation
    # ==================================================================
    # Bound here, as the pinned benchmark's tracer looks it up on this class
    # (likewise ``_get_from_tables`` and ``_table_iterators`` below).
    _install_flush = LSMStoreBase._install_flush

    def compact_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> None:
        """Compact every guard whose data overlaps ``[lo, hi]`` downward.

        The FLSM equivalent of LevelDB's CompactRange (a None bound is
        open): Level 0 drains first (its files may span any range), then
        overlapping guards are compacted level by level.
        """
        self.flush_memtable()
        self.executor.wait_all()
        if any(f.overlaps(lo, hi) for f in self._level0):
            if self._claims_available(self._level0_claims()):
                if not self._run_compaction(0, None):
                    return
                self.executor.wait_all()
        for level in range(1, self.options.num_levels):
            guarded = self._guarded[level]
            for guard in list(guarded.guards()):
                if not guard.files or self._guard_busy(guard):
                    continue
                if not any(f.overlaps(lo, hi) for f in guard.files):
                    continue
                if self._claims_available(self._guard_claims(level, guard)):
                    if not self._run_compaction(level, guard):
                        return
                    self.executor.wait_all()
            self.executor.wait_all()

    PROPERTIES = {
        **LSMStoreBase.PROPERTIES,
        "repro.guards": lambda db: " ".join(map(str, db.guard_counts())),
        "repro.empty-guards": lambda db: " ".join(map(str, db.empty_guard_counts())),
        "repro.uncommitted-guards": lambda db: " ".join(
            str(len(s)) for s in db._uncommitted
        ),
    }

    def guard_counts(self) -> List[int]:
        """Committed guards per level (diagnostics, Figure 3.1/5.4)."""
        return [len(guarded) for guarded in self._guarded]

    def empty_guard_counts(self) -> List[int]:
        return [guarded.empty_guards for guarded in self._guarded]

    # ==================================================================
    # Reads (paper sections 3.4 and 4.3)
    # ==================================================================
    _get_from_tables = LSMStoreBase._get_from_tables

    def _search_span_attrs(self, level: int, key: bytes) -> Dict[str, object]:
        if level == 0:  # its one "guard" would say nothing about the key
            return {}
        guard = self._guarded[level].find_guard(key)
        return {"guard": _key_label(guard.key), "guard_files": len(guard.files)}

    # ------------------------------------------------------------------
    _table_iterators = LSMStoreBase._table_iterators

    def _note_positioned(self, level: int, key: bytes, files: Sequence[FileMetadata]) -> None:
        if level:
            touched = self._touched_guards
            touched.append((level, self._guarded[level].find_guard(key).key))
            if len(touched) > 128:
                del touched[:-64]

    def _position_parallel(
        self, files: Sequence[FileMetadata], probe: InternalKey, account: IoAccount
    ) -> List[Iterator[Entry]]:
        """Position iterators on every file of a guard "in parallel".

        Each table's positioning cost is measured on a private account;
        the foreground pays the maximum plus a per-thread dispatch cost
        instead of the sum (paper section 4.2).
        """
        out: List[Iterator[Entry]] = []
        switches: List[_SwitchAccount] = []
        costs: List[float] = []
        for meta in files:
            switch = _SwitchAccount(account.name)
            reader = self._get_reader(meta.number, account)
            gen = reader.seek(probe, switch)  # type: ignore[arg-type]
            head = next(gen, None)
            costs.append(switch.measured)
            switches.append(switch)
            if head is not None:
                out.append(chain([head], gen))
        dispatch = self.cpu.parallel_seek_dispatch * len(files)
        account.charge(max(costs) + self.cpu.charge("parallel_seek", dispatch))
        for switch in switches:
            switch.attach(account)
        return out

    def _parallel_seek_level(self) -> int:
        """The level parallel seeks apply to (paper section 4.2).

        The paper's heuristic is "the last level": it holds the most
        data, which is cold and therefore actually pays storage IO when
        probed.  In a partially compacted store the bulk of the data can
        sit one level above the deepest one, so we pick the deepest level
        holding the largest share of bytes — the same intent.
        """
        if not self.options.enable_parallel_seeks:
            return 0
        best_level, best_bytes = 0, 0
        for level in range(1, self.options.num_levels):
            size = self._guarded[level].size_bytes
            if size and size >= best_bytes:
                best_level, best_bytes = level, size
        return best_level

    # ------------------------------------------------------------------
    #: Consecutive seek() calls that trigger seek-based compaction.
    SEEK_COMPACTION_THRESHOLD = 10

    def _note_seek(self) -> None:
        self._consecutive_seeks += 1
        if (
            self.options.enable_seek_based_compaction
            and self._consecutive_seeks % self.SEEK_COMPACTION_THRESHOLD == 0
        ):
            self._seek_compaction_due = True
            self._schedule_compactions()

    # ==================================================================
    # Compaction (paper sections 3.4, 4.2)
    # ==================================================================
    COMPACTION_CAUSE = "compaction.guard"

    def _schedule_compactions(self) -> None:
        # Guard deletions are metadata-only; they go first.
        if self._pending_guard_deletions and self._faults.error is None:
            self._apply_guard_deletions()
        self._seek_taken = None
        super()._schedule_compactions()

    #: Level 0, over-full guards and level sizes first; the seek trigger
    #: only when none of those has runnable work.
    COMPACTION_TRIGGERS = (("level0", "overfull", "size"), ("seek_guard",))

    def _trigger_level0(self):
        """All of Level 0, at its file-count trigger."""
        if self._level0_due():
            if self._claims_available(self._level0_claims()):
                yield 0, None
            else:
                self._l0_conflict_blocked = True
                self._stats.compaction_conflicts += 1

    def _trigger_overfull(self):
        """Guards holding ``max_sstables_per_guard`` files (section 3.5)."""
        for level in range(1, self.options.num_levels):
            for guard in self._guarded[level].overfull_guards():
                if self._guard_busy(guard):
                    continue
                if not self._claims_available(self._guard_claims(level, guard)):
                    self._stats.compaction_conflicts += 1
                elif not self._starves_level0(level, guard):
                    yield level, guard

    def _trigger_size(self):
        """The largest idle guard of each level over its size target, net
        of in-flight outflow (an over-full one is the trigger above's)."""
        opts, sizes = self.options, self.level_sizes()
        for level in range(1, opts.num_levels - 1):
            outflow = self._inflight_outflow.get(level, 0)
            if sizes[level] - outflow < opts.level_target_bytes(level):
                continue
            guarded = self._guarded[level]
            idle = [g for g in guarded.guards() if g.files and not self._guard_busy(g)]
            free = [g for g in idle if self._guard_idle(level, g)]
            if not free:
                if idle:
                    self._stats.compaction_conflicts += 1
                continue
            guard = max(free, key=lambda g: g.size_bytes)
            if guard in guarded.overfull_guards() or self._starves_level0(level, guard):
                continue
            yield level, guard

    def _trigger_seek_guard(self):
        """Seek-based compaction (section 4.2): once a run of consecutive
        seeks makes it due, every multi-sstable guard the seeks touched.
        The first pass to get this far takes the touched guards, for that
        pass only."""
        if self._seek_compaction_due:
            self._seek_compaction_due = False
            touched, self._touched_guards = self._touched_guards, []
            self._seek_taken = list(dict.fromkeys(
                (level, self._guarded[level].find_guard(key or b""))
                for level, key in dict.fromkeys(touched)
            ))
        for level, guard in self._seek_taken or ():
            if guard.num_files > 1 and self._guard_idle(level, guard):
                yield level, guard

    def _reset_scheduling_state(self) -> None:
        self._claims.clear()
        self._inflight_outflow.clear()

    def _guard_busy(self, guard: Guard) -> bool:
        return any(f.number in self._busy for f in guard.files)

    def _guard_idle(self, level: int, guard: Guard) -> bool:
        """No file of ``guard`` is busy and its claims are free."""
        return not self._guard_busy(guard) and self._claims_available(
            self._guard_claims(level, guard)
        )

    def _starves_level0(self, level: int, guard: Guard) -> bool:
        """A due Level-0 compaction is waiting on the conflict map and
        ``guard``'s job would claim ranges it needs: starting it would
        starve Level 0, so only disjoint work may start meanwhile."""
        return self._l0_conflict_blocked and self._claims_conflict(
            self._guard_claims(level, guard), self._level0_claims()
        )

    def _level0_due(self) -> bool:
        """Level 0 is at its file-count trigger and nothing is compacting it."""
        level0 = self._guarded[0].sentinel
        return (
            level0.num_files >= self.options.level0_compaction_trigger
            and not self._guard_busy(level0)
        )

    # ------------------------------------------------------------------
    # Conflict map: per-(level, key-range) claims held by in-flight jobs
    # ------------------------------------------------------------------
    def _scheduler_mode(self) -> str:
        return self.options.compaction_scheduler

    def _has_parallel_slot(self) -> bool:
        # One job per worker: more would only queue on busy timelines
        # while inflating write amplification.  With every slot busy, note
        # whether a due Level-0 compaction is held back (stall attribution).
        free = len(self._claims) < self.executor.workers
        if not free:
            self._l0_conflict_blocked = self._level0_due()
        return free

    @staticmethod
    def _ranges_overlap(
        lo1: Optional[bytes],
        hi1: Optional[bytes],
        lo2: Optional[bytes],
        hi2: Optional[bytes],
    ) -> bool:
        """Half-open range intersection test; None is an open end."""
        if hi1 is not None and lo2 is not None and hi1 <= lo2:
            return False
        if hi2 is not None and lo1 is not None and hi2 <= lo1:
            return False
        return True

    def _claims_conflict(self, a, b) -> bool:
        return any(
            la == lb and self._ranges_overlap(loa, hia, lob, hib)
            for la, loa, hia in a
            for lb, lob, hib in b
        )

    def _claims_available(self, claims) -> bool:
        """True when no in-flight job holds an overlapping claim."""
        return not any(
            self._claims_conflict(held, claims)
            for held, _, _ in self._claims.values()
        )

    def _acquire_claims(self, claims, source_level: int, outflow: int) -> int:
        """Register a job's claims; returns the token its apply releases."""
        self._claim_seq += 1
        token = self._claim_seq
        self._claims[token] = (tuple(claims), source_level, outflow)
        self._inflight_outflow[source_level] = (
            self._inflight_outflow.get(source_level, 0) + outflow
        )
        return token

    def _release_claims(self, token: Optional[int]) -> None:
        if token is None:
            return
        entry = self._claims.pop(token, None)
        if entry is None:
            return  # reset_scheduling_state already dropped it
        _, source_level, outflow = entry
        remaining = self._inflight_outflow.get(source_level, 0) - outflow
        if remaining > 0:
            self._inflight_outflow[source_level] = remaining
        else:
            self._inflight_outflow.pop(source_level, None)

    def _level0_claims(self):
        """A Level-0 compaction may touch any key: whole-level claims.

        Level-0 files overlap arbitrarily and the job commits guards
        across all of Level 1, so it claims both levels end to end.
        """
        return [(0, None, None), (1, None, None)]

    def _guard_claims(self, level: int, guard: Guard):
        """Claims for compacting ``guard`` at ``level`` into ``level+1``.

        The source claim is the guard's own range.  The target claim is
        that range *widened to the committed-guard boundaries covering
        it*: guard commits, straddler consumption, forced merges with
        full guards, and the splits ``add_guard`` performs at apply
        all stay inside the covering guards of the source range, so two
        jobs with disjoint widened claims cannot touch the same target
        guard.  A range end that is itself a committed target boundary
        needs no widening — which is what lets adjacent source guards
        compact concurrently once their shared boundary is committed.
        """
        opts = self.options
        last = opts.num_levels - 1
        if opts.compaction_scheduler == "level":
            if level == last:
                return [(level, None, None)]
            return [(level, None, None), (level + 1, None, None)]
        guarded = self._guarded[level]
        lo, hi = guarded.guard_range(guard)
        claims = [(level, lo, hi)]
        if level == last:
            # Rewrite-in-place touches only the guard itself.
            return claims
        target_guarded = self._guarded[level + 1]
        if lo is None:
            lo_t: Optional[bytes] = None
        else:
            lo_t = target_guarded.guard_range(target_guarded.find_guard(lo))[0]
        if hi is None:
            hi_t: Optional[bytes] = None
        elif target_guarded.has_guard(hi):
            hi_t = hi
        else:
            hi_t = target_guarded.guard_range(target_guarded.find_guard(hi))[1]
        claims.append((level + 1, lo_t, hi_t))
        return claims

    # ------------------------------------------------------------------
    # Compute: Level 0 -> Level 1, or a guard at level i -> level i+1
    # ------------------------------------------------------------------
    def _compute_compaction(
        self, level: int, guard: Optional[Guard], ctx: CompactionContext
    ) -> Optional[CompactionResult]:
        # ``guard`` None: all of Level 0.  Decide, merge and write (the
        # only steps that can fault), then take the claims and the guard
        # commits: a faulted attempt has taken nothing to put back.
        inputs = list(self._level0 if guard is None else guard.files)
        if not inputs:
            return None
        claims = (
            self._level0_claims() if guard is None else self._guard_claims(level, guard)
        )
        input_bytes = sum(f.file_size for f in inputs)
        last = self.options.num_levels - 1
        target = level + 1
        lo = hi = None
        if guard is not None:
            lo, hi = self._guarded[level].guard_range(guard)
        if level == last or (
            guard is not None
            and target == last
            and self._push_down_too_costly(target, lo, hi, input_bytes)
        ):
            result = self._rewrite_guard_in_place(level, inputs, ctx)
        else:
            new_keys, straddlers = self._commit_target_guards(target, lo, hi)
            outputs, merged_away = self._partition_into(
                inputs + straddlers, target, ctx, new_keys
            )
            # Counted after the last step that can fail: a retried attempt's
            # straddlers are not counted twice.
            if straddlers:
                self.registry.counter("compaction.straddler_bytes", level=target).inc(
                    sum(f.file_size for f in straddlers)
                )
            result = CompactionResult(
                [(level, f) for f in inputs]
                + [(target, f) for f in straddlers + merged_away],
                outputs,
                [(target, key) for key in new_keys],
            )
        result.claim = self._acquire_claims(claims, level, input_bytes)
        for target_level, key in result.new_guards:
            self._uncommitted[target_level].discard(key)
            self._committing.add((target_level, key))
        return result

    def _install_compaction(self, result: CompactionResult) -> None:
        for level, key in result.new_guards:
            guarded = self._guarded[level]
            guarded.add_guard(key)
            self._committing.discard((level, key))
        super()._install_compaction(result)
        self._release_claims(result.claim)

    def _compaction_span(self, result: CompactionResult, job):
        files = [meta for _, meta in result.consumed]
        return "compaction.guard", {
            "guard_lo": _key_label(min(f.smallest.user_key for f in files)),
            "guard_hi": _key_label(max(f.largest.user_key for f in files)),
            "new_guards": len(result.new_guards),
            "conflict_wait": job.queue_wait,
        }

    # ------------------------------------------------------------------
    # Compaction building blocks
    # ------------------------------------------------------------------
    def _commit_target_guards(
        self, target: int, lo: Optional[bytes], hi: Optional[bytes]
    ) -> Tuple[List[bytes], List[FileMetadata]]:
        """The uncommitted guards of ``target`` within ``[lo, hi)`` that a
        push-down commits, and their *straddlers*; read-only.

        A straddler is an idle sstable an uncommitted guard would split.
        The paper compacts it into the next level (section 3.3); here it
        is merged into this job and re-lands partitioned in ``target``.
        The compute takes both once its last write is done.
        """
        keys = sorted(
            k
            for k in self._uncommitted[target]
            if (lo is None or k >= lo) and (hi is None or k < hi)
        )
        if not keys:
            return ([], [])
        guarded = self._guarded[target]
        straddlers: List[FileMetadata] = []
        for key in keys:
            guard = guarded.find_guard(key)
            for meta in guard.files:
                if (
                    meta.smallest.user_key < key <= meta.largest.user_key
                    and meta.number not in self._busy
                    and meta not in straddlers
                ):
                    straddlers.append(meta)
        return (keys, straddlers)

    def _push_down_too_costly(
        self, last: int, lo: Optional[bytes], hi: Optional[bytes], input_bytes: int
    ) -> bool:
        """The second-to-last level rule (paper section 3.4): merging
        ``input_bytes`` of ``[lo, hi)`` into the full guards of level
        ``last`` would cost ``LAST_LEVEL_MERGE_IO_RATIO`` times them or
        more, so the guard is rewritten in place instead of pushed down."""
        guarded = self._guarded[last]
        opts = self.options
        total = 0
        for guard in guarded.guards():
            gl, gh = guarded.guard_range(guard)
            if lo is not None and gh is not None and gh <= lo:
                continue
            if hi is not None and gl is not None and gl >= hi:
                continue
            if guard.num_files + 1 > opts.max_sstables_per_guard:
                total += guard.size_bytes + input_bytes
        return bool(input_bytes) and total >= LAST_LEVEL_MERGE_IO_RATIO * input_bytes

    def _partition_into(
        self,
        inputs: List[FileMetadata],
        target: int,
        ctx: CompactionContext,
        new_keys: List[bytes],
    ) -> Tuple[List[Tuple[int, FileMetadata, int, bytes]], List[FileMetadata]]:
        """Merge ``inputs`` and partition the stream by ``target``'s guards.

        Partitioning uses the committed guards *plus* the guards this job
        is committing (``new_keys``) — the paper's "old guards and
        uncommitted guards" rule (section 3.3).  ``inputs`` includes the
        straddler sstables from the target level, so their data re-lands
        partitioned by the new boundaries.  Returns ``(outputs,
        merged_away)``: the placed fragments, and the pre-existing files
        consumed by a forced merge with a full guard.  A guard holding a
        file of ``inputs`` or of another job is never force-merged.
        """
        opts = self.options
        # Tombstones cannot be dropped for the stream as a whole: a
        # fragment *appended* to a guard leaves that guard's existing
        # sstables in place, and one of them may hold an older version of
        # the deleted key.  Dropping is decided per segment below — only
        # when the output replaces every sstable of the target guard
        # (forced merge) or the guard is empty, with nothing below.
        stream = _Peekable(ctx.merge(inputs, drop_tombstones=False))
        is_bottom = self._is_bottom(target)
        guarded = self._guarded[target]
        committed = set(guarded.guard_keys)
        boundaries = sorted(committed | set(new_keys))
        outputs: List[Tuple[int, FileMetadata, int, bytes]] = []
        merged_away: List[FileMetadata] = []
        own = {f.number for f in inputs}

        # Segment i covers [lo_i, hi_i): lo of segment 0 is the open
        # sentinel start; hi of the last segment is open-ended.
        segment_lows: List[Optional[bytes]] = [None] + list(boundaries)
        for idx, lo in enumerate(segment_lows):
            hi = boundaries[idx] if idx < len(boundaries) else None
            if not stream.has_next:
                break
            if hi is not None and stream.peek()[0].user_key >= hi:
                continue
            chunk = stream.take_until(hi)
            guard = self._existing_guard_for_segment(guarded, lo, hi, committed)
            if (
                guard is not None
                and guard.files
                and guard.num_files + 1 > opts.max_sstables_per_guard
                and not any(f.number in own for f in guard.files)
                and not self._guard_busy(guard)
            ):
                # The guard cannot take another sstable: forced merge with
                # its existing data.  With ``max_sstables_per_guard=1``
                # every append merges, which is how FLSM degrades to LSM
                # behaviour (section 3.5); with the default it mainly
                # happens in the last level (section 3.4).
                existing = list(guard.files)
                chunk = ctx.merge(existing, drop_tombstones=is_bottom, also=[chunk])
                merged_away.extend(existing)
            elif is_bottom and guard is not None and not guard.files:
                oldest_snapshot = ctx.snapshots[0] if ctx.snapshots else None
                chunk = (
                    entry
                    for entry in chunk
                    if entry[0].kind != KIND_DELETE
                    or (oldest_snapshot is not None
                        and oldest_snapshot < entry[0].sequence)
                )
            outputs.extend(_placed(target, lo, meta) for meta in ctx.write(chunk))
        return outputs, merged_away

    def _existing_guard_for_segment(
        self,
        guarded: GuardedLevel,
        lo: Optional[bytes],
        hi: Optional[bytes],
        committed: "set[bytes]",
    ) -> Optional[Guard]:
        """The existing guard exactly matching segment ``[lo, hi)``.

        Returns None when a new (not yet applied) guard key bounds the
        segment — the files of the covering guard are being re-homed by
        the same job, so a forced merge cannot safely use them.
        """
        if lo is not None and lo not in committed:
            return None
        guard = guarded.find_guard(lo) if lo is not None else guarded.sentinel
        current_lo, current_hi = guarded.guard_range(guard)
        if current_lo != lo or current_hi != hi:
            return None
        return guard

    def _rewrite_guard_in_place(
        self,
        level: int,
        inputs: List[FileMetadata],
        ctx: CompactionContext,
    ) -> CompactionResult:
        """Merge a guard's sstables into one table at the same level."""
        merged = ctx.merge(inputs, drop_tombstones=self._is_bottom(level))
        guarded = self._guarded[level]
        outputs = [
            _placed(level, guarded.find_guard(meta.smallest.user_key).key, meta)
            for meta in ctx.write(merged)
        ]
        return CompactionResult([(level, f) for f in inputs], outputs)

    # ==================================================================
    # Guard deletion (paper section 3.3)
    # ==================================================================
    def request_guard_deletion(self, key: bytes) -> None:
        """Asynchronously delete guard ``key`` at every level holding it."""
        self._pending_guard_deletions.add(key)

    def _apply_guard_deletions(self) -> None:
        keys, self._pending_guard_deletions = self._pending_guard_deletions, set()
        edit = VersionEdit()
        changed = False
        # Sorted: the iteration order lands in the MANIFEST's
        # deleted_guards list, which must not depend on set hashing.
        for key in sorted(keys):
            for level in range(1, self.options.num_levels):
                guarded = self._guarded[level]
                if not guarded.has_guard(key):
                    continue
                guarded.remove_guard(key)  # the left neighbour absorbs its files
                edit.deleted_guards.append((level, key))
                changed = True
            self._uncommitted_discard(key)
        if changed:
            acct = self.storage.background_account(self.prefix + "manifest")
            # Metadata-only; on failure the edit queues for resume().
            self._manifest.append(edit, acct)

    def _uncommitted_discard(self, key: bytes) -> None:
        for pending in self._uncommitted:
            pending.discard(key)

    # ==================================================================
    # Chapter 7 extensions: adaptive guards and empty-guard cleanup.
    # The paper lists both as future work; they are implemented here as
    # explicit maintenance operations.
    # ==================================================================
    def rebalance_guards(self, max_guard_bytes: Optional[int] = None) -> int:
        """Split skewed guards by inserting synthetic guard keys.

        Static probabilistic selection can leave one guard holding far
        more data than its peers (paper section 7, "Making Guards dynamic
        and adaptive").  For every guard larger than ``max_guard_bytes``
        (default: 4x the level's fair share), a midpoint key is selected
        as a new uncommitted guard for that level and all deeper levels —
        FLSM explicitly allows guard keys that were never inserted
        (section 3.2).  Takes effect at the next compaction, like any
        guard.  Returns the number of new guard keys selected.
        """
        added = 0
        for level in range(1, self.options.num_levels):
            guarded = self._guarded[level]
            level_bytes = guarded.size_bytes
            if not level_bytes:
                continue
            if max_guard_bytes is not None:
                threshold = max_guard_bytes
            else:
                # Skewed = one guard holding several compactions' worth
                # of data, which makes its reads and seeks slow.
                threshold = 4 * self.options.target_file_bytes
            for guard in list(guarded.guards()):
                if guard.size_bytes <= threshold or guard.num_files < 2:
                    continue
                midpoint = self._guard_midpoint(guard)
                if midpoint is None:
                    continue
                for lvl in range(level, self.options.num_levels):
                    lvl_guarded = self._guarded[lvl]
                    if not lvl_guarded.has_guard(midpoint):
                        self._uncommitted[lvl].add(midpoint)
                added += 1
        return added

    def _guard_midpoint(self, guard: Guard) -> Optional[bytes]:
        """A key splitting the guard's data roughly in half.

        Uses the median data-block boundary of the guard's largest
        sstable — its index is already resident in the table cache, so
        this costs no data IO.
        """
        largest = max(guard.files, key=lambda f: f.file_size)
        acct = self.storage.foreground_account(self.prefix + "maintenance")
        reader = self._get_reader(largest.number, acct)
        boundaries = reader.index_keys
        if len(boundaries) < 2:
            return None
        mid = boundaries[len(boundaries) // 2].user_key
        if mid <= largest.smallest.user_key:
            return None
        return mid

    def collect_empty_guards(self) -> int:
        """Request deletion of guards that are empty at every level.

        Empty guards are harmless for performance (Figure 5.4) but
        accumulate metadata under time-series workloads; this trims them
        via the ordinary asynchronous guard-deletion path (section 3.3),
        which is metadata-only.  Returns the number of guards scheduled.
        """
        all_keys: Set[bytes] = set()
        occupied: Set[bytes] = set()
        for level in range(1, self.options.num_levels):
            guarded = self._guarded[level]
            all_keys.update(guarded.guard_keys)
            occupied.update(
                g.key for g in guarded.guards() if g.key is not None and g.files
            )
        doomed = all_keys - occupied
        for key in doomed:
            self.request_guard_deletion(key)
        return len(doomed)

    # ==================================================================
    # Recovery plumbing
    # ==================================================================
    def _recover_guard(self, level: int, key: bytes) -> None:
        guarded = self._guarded[level]
        guarded.add_guard(key)
        self._uncommitted[level].discard(key)

    def _recover_guard_deletion(self, level: int, key: bytes) -> None:
        guarded = self._guarded[level]
        if guarded.has_guard(key):
            guarded.remove_guard(key)

    def _post_recover(self) -> None:
        """Repair the skip-list property after a restart.

        Uncommitted guards live only in memory (paper section 3.3), so a
        crash can leave a guard committed at level *i* with its deeper
        counterparts lost.  Guard keys qualify for every deeper level by
        construction, so re-seeding them into the uncommitted sets
        restores the invariant without any IO.
        """
        for level in range(1, self.options.num_levels):
            guarded = self._guarded[level]
            for key in guarded.guard_keys:
                for deeper in range(level + 1, self.options.num_levels):
                    deeper_guarded = self._guarded[deeper]
                    if not deeper_guarded.has_guard(key):
                        self._uncommitted[deeper].add(key)

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def layout(self) -> str:
        """Figure 3.1 style dump of guards and sstables per level."""
        lines = [
            "Level 0 (no guards): "
            + " ".join(
                f"[{f.smallest.user_key!r}..{f.largest.user_key!r}]" for f in self._level0
            )
        ]
        for level in range(1, self.options.num_levels):
            guarded = self._guarded[level]
            if guarded.size_bytes == 0 and not len(guarded):
                continue
            parts = []
            for guard in guarded.guards():
                label = "sentinel" if guard.is_sentinel else repr(guard.key)
                tables = " ".join(
                    f"[{f.smallest.user_key!r}..{f.largest.user_key!r}]"
                    for f in guard.files
                )
                parts.append(f"Guard {label}: {tables or '(empty)'}")
            lines.append(f"Level {level}: " + " | ".join(parts))
        return "\n".join(lines)

    def check_invariants(self) -> None:
        assert not len(self._guarded[0]), "Level 0 has guards"
        if not self.executor.pending_count:
            assert not self._claims and not self._inflight_outflow, "idle store holds claims"
            assert not self._committing, "idle store has guards committing"
        for level, guarded in enumerate(self._guarded):
            # Skip-list property: a committed guard at level i must be
            # present (committed or pending) at every deeper level.
            for key in guarded.guard_keys:
                for deeper in range(level + 1, self.options.num_levels):
                    assert (
                        self._guarded[deeper].has_guard(key)
                        or key in self._uncommitted[deeper]
                        or (deeper, key) in self._committing
                    ), f"guard {key!r} at level {level} missing from level {deeper}"
        super().check_invariants()
