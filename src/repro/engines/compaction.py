"""The one compaction lifecycle every LSM-family engine runs through.

FLSM and leveled LSM differ in *what* a compaction picks and *where* its
output lands (paper section 3.4); everything under that is one mechanism
and lives here.  An engine supplies two things:

* **pick** — ``COMPACTION_TRIGGERS``: trigger names in priority tiers, each
  a ``_trigger_<name>`` method yielding the runnable ``(level, pick)``
  candidates it finds due.  The one pick loop,
  :meth:`CompactionRunner._pick_and_submit`, pools the first tier that
  yields any and runs the dispatch policy's choice (default: the first);
* **compute** — ``_compute_compaction(level, pick, ctx)``: decide what
  the job does (read-only), turn the inputs into output files using only
  :meth:`CompactionContext.merge` and :meth:`CompactionContext.write` —
  the only steps that can fault — and only then take what the job holds
  while in flight (FLSM: its conflict-map claims and the guards it
  commits); returns a :class:`CompactionResult` (or None when there is
  nothing to do).  The runner marks the consumed files busy.  A compute
  takes nothing before its last write, so a faulted attempt leaves no
  scheduling state to put back, only its partial sstables to delete.

Install is shared: :meth:`CompactionRunner._install_compaction` detaches
the consumed files from, and attaches the outputs to, their level objects.
An engine's ``compact_range(lo, hi)`` is the same pick made by hand: it
walks the levels and hands what overlaps to ``_run_compaction``;
``force_full_compaction()`` is that over everything.

The runner owns the rest: fault-protected submission, the ledger account,
the value-log GC context and its abandon / commit / retire, the merge
stream, the CPU charge, the version edit, job cost, rate-limit
reservation, the executor, and the apply step.  Apply's fallible IO (the
value-log sync, the MANIFEST append) is retried; a fault that persists
degrades the store, queues the edit for ``resume()`` and still settles
the job.  Two ordering rules hold for every job of every engine:

* **File numbers.**  An output file's number comes from
  ``LSMStoreBase._write_sstables`` (single-file output: when the file is
  finished; split output: at each file's first entry), and the edit's
  ``next_file_number`` is read after the last output is written.
* **MANIFEST before retirement.**  At apply time the edit is appended to
  the MANIFEST first; consumed sstables, fully-dead value-log segments and
  flushed WALs are deleted only if that append was durable, and otherwise
  wait for ``resume()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engines.background import RETIRE_SEGMENT, RETIRE_TABLE
from repro.errors import CorruptionError, StorageError
from repro.sim.executor import Job
from repro.sstable import compaction_iterator, merging_iterator
from repro.sstable.format import Entry
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.vlog.log import VlogCompactionContext

#: Simulated duration of a metadata-only job (a trivial move).
MOVE_SECONDS = 1.0e-5


@dataclass
class CompactionResult:
    """What one compute produced, in the shape the version edit wants."""

    #: ``(level, file)`` for every file the job replaces.
    consumed: List[Tuple[int, FileMetadata]]
    #: ``(level, file, guard_marker, guard_key)`` for every file it places;
    #: a consumed file listed here again is moved, not rewritten.
    outputs: List[Tuple[int, FileMetadata, int, bytes]]
    #: ``(level, key)`` guards committed by this job (FLSM only).
    new_guards: List[Tuple[int, bytes]] = field(default_factory=list)
    #: The engine's token for what it claimed; its install releases it.
    claim: Optional[int] = None


class CompactionContext:
    """One compute attempt's handle on the shared merge and build steps.

    Fresh per *attempt*: a retried attempt must not inherit the failed
    one's relocation bookkeeping (``abandon`` turned those copies into
    stray dead bytes already).  GC relocation IO is charged to a dedicated
    ``vlog.gc`` account, not the job's, so the attribution ledger
    separates tree rewrites from value-log GC; the job's duration adds the
    two back together.
    """

    def __init__(self, store, cause: str) -> None:
        self._store = store
        self.account = store.storage.background_account(store.prefix + cause)
        self.gc: Optional[VlogCompactionContext] = None
        if store._vlog is not None:
            self.gc = VlogCompactionContext(
                store._vlog, store.storage.background_account(store.prefix + "vlog.gc")
            )
        #: Active snapshot sequences, ascending (fixed for the attempt).
        self.snapshots: Tuple[int, ...] = tuple(store._snapshots)
        self.input_entries = 0
        self.output_entries = 0

    def merge(
        self,
        files: Sequence[FileMetadata],
        drop_tombstones: bool,
        also: Iterable[Iterator[Entry]] = (),
    ) -> Iterator[Entry]:
        """Collapsed merge of ``files`` (plus already-open streams ``also``).

        Shadowed versions no snapshot can see are dropped, tombstones too
        when ``drop_tombstones``; surviving pointers into cold value-log
        segments are relocated.  The input scans bypass the decoded cache,
        so an entry arrives with its encoded record and — unless relocation
        replaces it — leaves as the same tuple for :meth:`write` to append.
        """
        acct = self.account
        get_reader = self._store._get_reader
        self.input_entries += sum(f.num_entries for f in files)
        iters = [
            get_reader(f.number, acct).iter_all(acct, cache_insert=False)
            for f in files
        ]
        iters.extend(also)
        gc = self.gc
        stream = compaction_iterator(
            merging_iterator(iters),
            drop_tombstones=drop_tombstones,
            snapshots=self.snapshots,
            on_drop=gc.on_drop if gc is not None else None,
        )
        # Entries an outer ``merge`` already relocated point at the active
        # segment (never cold), so nesting cannot relocate a record twice.
        return stream if gc is None else gc.rewrite(stream)

    def write(
        self, entries: Iterator[Entry], split_bytes: Optional[int] = None
    ) -> List[FileMetadata]:
        """Build sstables from an ordered stream (one file unless split)."""
        metas = self._store._write_sstables(entries, self.account, split_bytes)
        self.output_entries += sum(m.num_entries for m in metas)
        return metas


class CompactionRunner:
    """Mixin for ``LSMStoreBase``: scheduling loop, job runner, apply step."""

    #: Ledger cause of this engine's compaction jobs (``<cause>.L<level>``).
    COMPACTION_CAUSE: str

    #: Trigger names in priority tiers.  ``_trigger_<name>()`` yields the
    #: runnable ``(level, pick)`` candidates it finds due, ``pick`` being
    #: what ``_compute_compaction`` takes.
    COMPACTION_TRIGGERS: Tuple[Tuple[str, ...], ...]

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _has_parallel_slot(self) -> bool:
        """Whether another compaction may start now."""
        return True

    def _install_compaction(self, result: CompactionResult) -> None:
        """Swap ``result``'s files in the levels: consumed out, outputs in."""
        levels = self._levels
        for level, meta in result.consumed:
            levels[level].detach(meta.number)
        for level, meta, _, _ in result.outputs:
            levels[level].attach(meta)

    def _compaction_span(
        self, result: CompactionResult, job: Job
    ) -> Tuple[str, Dict[str, object]]:
        """Trace span name and the attributes beyond the shared ones."""
        return "compaction", {"queue_wait": job.queue_wait}

    def _reset_scheduling_state(self) -> None:
        """Drop engine-owned in-flight markers (resume(): nothing is in flight)."""

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedule_compactions(self) -> None:
        """Submit due compactions until the engine's pick comes up empty."""
        if self._faults.error is not None:
            return
        # One pass submits at most two jobs per level (or one per worker).
        for _ in range(max(2 * self.options.num_levels, self.executor.workers)):
            if not self._pick_and_submit():
                break

    def _due_candidates(self) -> List[Tuple[str, int, object]]:
        """``(trigger, level, pick)`` for every candidate of the first tier
        that yields any, in trigger order (empty when nothing is due)."""
        for tier in self.COMPACTION_TRIGGERS:
            pool = [(t, *c) for t in tier for c in getattr(self, "_trigger_" + t)()]
            if pool:
                return pool
        return []

    def _pick_and_submit(self) -> bool:
        """Run one due compaction — the dispatch policy's choice, else the
        first candidate; False when none is due or none may start."""
        self._l0_conflict_blocked = False
        if not self._has_parallel_slot():
            return False
        pool = self._due_candidates()
        if not pool:
            return False
        idx = 0 if self._dispatch_policy is None else self._dispatch_policy(pool)
        trigger, level, pick = pool[idx % len(pool)]
        return self._run_compaction(level, pick, trigger)

    def force_full_compaction(self) -> None:
        """``compact_range`` over everything.  Bottom-level rewrites drop
        tombstones, so a fully deleted store keeps no sstable (FLSM: only
        empty guards)."""
        self.compact_range(None, None)

    def _note_compaction_inflight(self, delta: int) -> None:
        """Track in-flight compaction jobs and their concurrency peak."""
        self._compactions_inflight += delta
        if self._compactions_inflight > self._stats.compactions_parallel_peak:
            self._stats.compactions_parallel_peak = self._compactions_inflight

    def _compaction_start_time(self, amount_bytes: float) -> Optional[float]:
        """Token-bucket admission for one compaction job.

        Returns the sim time the job may start (to pass as ``at=`` to the
        executor), or None when it may start immediately.  Bypasses the
        limiter entirely while Level 0 is at or past the slowdown
        trigger: a due L0 drain must never queue behind the limiter's
        debt, which is what makes "rate limiter never deadlocks a due L0
        compaction" an invariant rather than a tuning outcome.
        """
        limiter = self._compaction_limiter
        if limiter is None:
            return None
        if self._level0_file_count() >= self.options.level0_slowdown_trigger:
            return None
        start = limiter.reserve(amount_bytes, self.clock.now)
        if start <= self.clock.now:
            return None
        self._rate_limited_jobs.value += 1
        self._rate_limit_delay.value += start - self.clock.now
        return start

    # ------------------------------------------------------------------
    # The lifecycle
    # ------------------------------------------------------------------
    def _run_compaction(self, level: int, pick, trigger: Optional[str] = None) -> bool:
        """Compute ``pick`` (source ``level``) with fault retries and queue the
        job, counted under ``trigger`` if given; False once degraded."""
        self._run_protected(
            "compaction", lambda: self._submit_compaction(level, pick, trigger)
        )
        return self._faults.error is None

    def _submit_compaction(self, level: int, pick, trigger: Optional[str]) -> None:
        ctx = CompactionContext(self, f"{self.COMPACTION_CAUSE}.L{level}")
        try:
            result = self._compute_compaction(level, pick, ctx)
        except BaseException:
            # A faulted attempt may have relocated records already; the
            # retry gets a fresh context, so these copies are stray dead.
            if ctx.gc is not None:
                ctx.gc.abandon()
            raise
        if result is None:
            return
        self._note_compaction_inflight(1)
        acct = ctx.account
        consumed, outputs = result.consumed, result.outputs
        self._busy.update(meta.number for _, meta in consumed)
        edit = VersionEdit(new_guards=result.new_guards)
        for file_level, meta in consumed:
            edit.delete_file(file_level, meta.number)
        edit.new_files.extend(outputs)
        bytes_in = sum(meta.file_size for _, meta in consumed)
        if trigger is not None:
            reg = self.registry
            reg.counter("compaction.triggered", trigger=trigger).inc()
            reg.counter("compaction.triggered_bytes", trigger=trigger).inc(bytes_in)
        if ctx.input_entries:
            gc = ctx.gc
            acct.charge(
                self.cpu.charge(
                    "compaction_merge",
                    self.cpu.merge_entry * ctx.input_entries
                    + self.cpu.bloom_build_per_key * ctx.output_entries,
                )
            )
            edit.next_file_number = self._next_file_number
            bytes_out = sum(meta.file_size for _, meta, _, _ in outputs)
            seconds = acct.seconds + (gc.seconds if gc is not None else 0.0)
            self._compaction_seconds.record(seconds)
            kind, start_at = "compaction", self._compaction_start_time(
                bytes_in + bytes_out
            )
        else:
            # Nothing was merged: a metadata-only move, no IO and no GC.
            gc, bytes_out = None, 0
            kind, seconds, start_at = "move", MOVE_SECONDS, None

        def settle(durable: bool) -> None:
            if gc is not None:
                for segment in gc.retire(durable):
                    self._faults.defer(RETIRE_SEGMENT, partial(self._vlog.retire_segment, segment))
            self._install_compaction(result)
            moved = {meta.number for _, meta, _, _ in outputs}
            for _, meta in consumed:
                self._busy.discard(meta.number)
                if meta.number in moved:
                    continue
                if durable:
                    self._reads.retire_file(meta.number)
                else:
                    self._faults.defer(RETIRE_TABLE, partial(self._reads.retire_file, meta.number))
            self._note_compaction_inflight(-1)
            self._stats.compactions += 1
            self._stats.compaction_bytes_written += bytes_out

        def span(job: Job) -> Tuple[str, Dict[str, object]]:
            attrs: Dict[str, object] = {"level": level, "files_in": len(consumed)}
            if kind == "move":
                return "compaction.move", attrs
            name, extra = self._compaction_span(result, job)
            attrs.update(
                files_out=len(outputs), bytes_in=bytes_in, bytes_out=bytes_out, **extra
            )
            return name, attrs

        # Value-log GC counters join the edit before the append so recovery
        # replays the same liveness state (and relocated records are synced
        # before the MANIFEST can make them reachable).
        self._submit_job(
            kind, seconds, edit, settle, span,
            prepare=(lambda: gc.commit(edit, self._faults.retry)) if gc is not None else None,
            at=start_at,
        )

    def _submit_job(
        self,
        kind: str,
        seconds: float,
        edit: VersionEdit,
        settle: Callable[[bool], None],
        span: Callable[[Job], Tuple[str, Dict[str, object]]],
        prepare: Optional[Callable[[], None]] = None,
        at: Optional[float] = None,
    ) -> Job:
        """Queue a computed flush or compaction for deferred application.

        The files are already written, so ``seconds`` is exact; the job's
        effects become visible when the clock passes its completion.  Then:
        ``prepare()`` makes the last additions to ``edit``, the edit goes to
        the MANIFEST, ``settle(durable)`` does everything that depends on
        whether that append was durable, the trace span is emitted, and
        whatever became due is scheduled.  A storage fault ``prepare()``
        raises (its own retries spent) degrades the store and queues the
        edit for ``resume()``; the job still settles, not durable.
        """
        trc = self.tracer
        parent = trc.current() if trc is not None else None

        def apply() -> None:
            try:
                if prepare is not None:
                    prepare()
            except (CorruptionError, StorageError) as exc:
                durable = self._manifest.hold(edit, f"{kind} apply", exc)
            else:
                durable = self._manifest.append(
                    edit, self.storage.background_account(self.prefix + "manifest")
                )
            settle(durable)
            if trc is not None:
                name, attrs = span(job)
                trc.start_span(
                    name, kind="background", parent=parent, start=job.start, **attrs
                ).end(at=job.completion)
            self._writes.maybe_schedule_flush()
            self._schedule_compactions()

        job = self.executor.submit(kind, seconds, apply, at=at)
        return job
