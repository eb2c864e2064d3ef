"""Transient-fault retries and the sticky background error, for any store.

RocksDB's ``SetBackgroundError`` model: a :class:`TransientIOError` is
retried with a capped exponential backoff on the simulated clock; anything
else, or an exhausted retry budget, sets one sticky
:class:`BackgroundError` (the first failure wins).  While it is set,
writes raise it and reads keep serving; ``resume()`` clears it and runs
the deletions that waited for a version edit to become durable.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import BackgroundError, CorruptionError, StorageError, TransientIOError
from repro.obs.stats import StatsCounters

#: Retries a background flush/compaction/MANIFEST append attempts after a
#: transient I/O fault before declaring a sticky background error.
FAULT_RETRY_LIMIT = 3

#: Stages of the deferred-deletion queue, drained in this order: input
#: sstables, WALs a flush reclaimed, then fully dead value-log segments.
RETIRE_TABLE, DELETE_WAL, RETIRE_SEGMENT = range(3)


def _retry_backoff(attempt: int) -> float:
    """Simulated seconds to wait before retry ``attempt`` (0-based):
    1 ms doubling per retry, capped at 50 ms."""
    return min(1.0e-3 * 2 ** attempt, 50.0e-3)


def _transient(exc: Exception) -> bool:
    return isinstance(exc, TransientIOError)


class BackgroundErrors:
    """One store's retry loop, sticky error and deferred deletions.

    ``tracer`` returns the store's current tracer (it may be attached
    after construction); ``recorder`` is its flight recorder, if any.
    """

    def __init__(self, clock, stats: StatsCounters, recorder=None, tracer=lambda: None) -> None:
        self.error: Optional[BackgroundError] = None
        self.registry = stats.registry
        self.tracer: Callable[[], object] = tracer
        self._clock = clock
        self._recorder = recorder
        self._retries = stats.bind("transient_fault_retries")
        self._errors = stats.bind("background_errors")
        self._resumes = stats.bind("resumes")
        self._deferred: List[Tuple[int, Callable[[], None]]] = []

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise self.error

    def point(self, name: str, **attrs: object) -> None:
        """Record an error-path event on the tracer and in the flight
        recorder's ring (once: in ``1/N`` mode the recorder's tracer *is*
        the store's)."""
        trc = self.tracer()
        if trc is not None:
            trc.point(name, **attrs)
        rec = self._recorder
        if rec is not None and rec.tracer is not None and rec.tracer is not trc:
            rec.point(name, **attrs)

    def retry(
        self,
        kind: str,
        step: Callable,
        undo: Optional[Callable[[], None]] = None,
        retryable: Callable[[Exception], bool] = _transient,
    ):
        """``step()``'s result, rerun (after ``undo()`` and a backoff on the
        simulated clock) while its fault is ``retryable`` and retries are
        left; any other fault is raised after ``undo()``."""
        attempt = 0
        while True:
            try:
                return step()
            except (CorruptionError, StorageError) as exc:
                if undo is not None:
                    undo()
                if attempt >= FAULT_RETRY_LIMIT or not retryable(exc):
                    raise
            self._retries.value += 1
            self.point("fault.retry", kind=kind, attempt=attempt + 1)
            self._clock.advance(_retry_backoff(attempt))
            attempt += 1

    def fail(self, kind: str, exc: Exception) -> None:
        """Declare the sticky error (first failure wins) and dump the ring."""
        if self.error is not None:
            return
        self.error = BackgroundError(
            f"store degraded to read-only: {kind} failed: {exc}", cause=exc
        )
        self._errors.value += 1
        self.point("fault.degraded", kind=kind, error=type(exc).__name__)
        if self._recorder is not None:
            reason = "corruption" if isinstance(exc, CorruptionError) else "degraded"
            self._recorder.dump(f"{reason}:{kind}")

    def defer(self, stage: int, delete: Callable[[], None]) -> None:
        """Queue a deletion until ``resume()`` makes the edit durable."""
        self._deferred.append((stage, delete))

    def resume(self, repair: Callable[[], None]) -> bool:
        """Leave degraded mode: ``repair()``, then the deferred deletions.

        True when healthy (at once if no error is set); on a fault the
        error is replaced by the resume failure and False returned.
        """
        if self.error is None:
            return True
        try:
            repair()
            queue = self._deferred
            queue.sort(key=lambda item: item[0])
            while queue:
                queue[0][1]()
                del queue[0]
        except (CorruptionError, StorageError) as exc:
            self.error = BackgroundError(
                f"store degraded to read-only: resume failed: {exc}", cause=exc
            )
            return False
        self.error = None
        self._resumes.value += 1
        trc = self.tracer()
        if trc is not None:
            trc.point("fault.resume")
        return True
