"""Background worker timelines for flushes and compactions.

Real LSM stores run compaction on background threads; write throughput
collapses when those threads cannot keep up and Level-0 fills (the
slowdown/stop mechanism).  We reproduce those dynamics without real
threads: an engine *computes* a flush or compaction synchronously (so the
simulation stays deterministic), measures its IO + CPU cost, and submits it
here.  The executor lays the job on the earliest-free worker timeline and
the job's effects become *visible* (its ``apply`` callback runs) only when
the simulated clock passes its completion time.

Engines call :meth:`BackgroundExecutor.drain` before every foreground
operation, and :meth:`wait_for` when a write must stall (Level-0 stop, or
too many immutable memtables).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence

from repro.sim.clock import SimClock


class Job:
    """A unit of background work with a completion time."""

    __slots__ = (
        "kind",
        "cost",
        "submitted",
        "start",
        "completion",
        "apply",
        "applied",
        "seq",
    )

    def __init__(
        self,
        kind: str,
        cost: float,
        start: float,
        completion: float,
        apply: Optional[Callable[[], None]],
        seq: int,
        submitted: float = 0.0,
    ) -> None:
        self.kind = kind
        self.cost = cost
        #: Sim time the job was submitted; ``start - submitted`` is the
        #: queue/dependency wait (observability spans report it).
        self.submitted = submitted
        self.start = start
        self.completion = completion
        self.apply = apply
        self.applied = False
        self.seq = seq

    @property
    def queue_wait(self) -> float:
        """Seconds between submission and the job actually starting."""
        return self.start - self.submitted

    def __lt__(self, other: "Job") -> bool:
        return (self.completion, self.seq) < (other.completion, other.seq)


class BackgroundExecutor:
    """``workers`` parallel timelines executing jobs in submission order."""

    def __init__(self, clock: SimClock, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.clock = clock
        self._worker_free = [0.0] * workers
        #: The ready queue, a heap on ``(completion, seq)``; only the executor
        #: changes it.  Public so a per-operation caller can see without a
        #: call that nothing is due (``pending[0].completion > now``).
        self.pending: List[Job] = []
        self._seq = 0
        self.jobs_run = 0
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._worker_free)

    def submit(
        self,
        kind: str,
        cost: float,
        apply: Optional[Callable[[], None]] = None,
        at: Optional[float] = None,
        after: Optional[Sequence[Job]] = None,
    ) -> Job:
        """Schedule ``cost`` seconds of work; returns the in-flight job.

        ``after`` lists jobs this one depends on: the new job becomes
        *ready* only once every dependency has completed, so its start
        time is ``max(at, worker free, dep completions)``.  The pending
        heap is the ready queue — jobs pop strictly in ``(completion,
        seq)`` order, which keeps every schedule a pure function of the
        submission sequence regardless of worker count.
        """
        if cost < 0:
            raise ValueError(f"negative job cost: {cost}")
        when = self.clock.now if at is None else at
        if after:
            for dep in after:
                when = max(when, dep.completion)
        idx = min(range(len(self._worker_free)), key=self._worker_free.__getitem__)
        start = max(when, self._worker_free[idx])
        completion = start + cost
        self._worker_free[idx] = completion
        self._seq += 1
        job = Job(kind, cost, start, completion, apply, self._seq, submitted=self.clock.now)
        heapq.heappush(self.pending, job)
        self.jobs_run += 1
        self.busy_seconds += cost
        return job

    def drain(self, now: Optional[float] = None) -> int:
        """Apply every job whose completion time has passed; returns count."""
        if now is None:
            now = self.clock.now
        applied = 0
        while self.pending and self.pending[0].completion <= now:
            job = heapq.heappop(self.pending)
            self._run(job)
            applied += 1
        return applied

    def wait_for(self, job: Job) -> None:
        """Advance the clock to ``job``'s completion and apply due jobs."""
        self.clock.advance_to(job.completion)
        self.drain()

    def wait_all(self) -> None:
        """Advance the clock until every submitted job has applied."""
        while self.pending:
            job = heapq.heappop(self.pending)
            self.clock.advance_to(job.completion)
            self._run(job)

    def backlog_seconds(self, now: Optional[float] = None) -> float:
        """How far behind the busiest worker is (0 when idle)."""
        if now is None:
            now = self.clock.now
        return max(0.0, max(self._worker_free) - now)

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    def peek_next(self) -> Optional[Job]:
        """The pending job that will complete soonest, if any."""
        return self.pending[0] if self.pending else None

    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        if not job.applied:
            job.applied = True
            # Dropped before it runs: an ``apply`` that refers to its own
            # job would otherwise make the pair, and all it holds, a cycle.
            apply, job.apply = job.apply, None
            if apply is not None:
                apply()
