"""The MANIFEST log and the background-error state, driven without a store.

Both collaborators are built on a bare :class:`SimulatedStorage` with a
:class:`FaultPlan`: a transient append is retried; a torn append makes the
log suspect and later edits queue; rotation writes the intact records plus
the queue exactly once, flips CURRENT and deletes the old file; the first
sticky error wins, and ``resume`` clears it and runs the deferred
deletions in stage order.
"""

import pytest

from repro.engines.background import (
    DELETE_WAL,
    FAULT_RETRY_LIMIT,
    RETIRE_SEGMENT,
    RETIRE_TABLE,
    BackgroundErrors,
)
from repro.errors import BackgroundError, PersistentIOError, StorageError, TransientIOError
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import StatsCounters
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.storage import SimulatedStorage
from repro.version import ManifestReader, VersionEdit, read_current
from repro.version.lifecycle import MANIFEST, ManifestLog, create_manifest, file_name


def _errors(storage):
    return BackgroundErrors(storage.clock, StatsCounters(MetricsRegistry()))


def _log(storage):
    """A live MANIFEST-000001 holding one edit."""
    errors = _errors(storage)
    log = ManifestLog(storage, "db/", errors)
    log.writer = create_manifest(
        storage, "db/", 1, VersionEdit(last_sequence=0), storage.foreground_account()
    )
    return log, errors


def _edits(storage):
    acct = storage.foreground_account()
    return list(ManifestReader(storage, read_current(storage, acct, "db/")).edits(acct))


def _fail(storage, **spec):
    storage.set_fault_injector(
        FaultInjector(FaultPlan.fail_nth(0, name_pattern="db/MANIFEST-*", **spec))
    )


class TestManifestLog:
    def test_a_transient_append_is_retried(self):
        storage = SimulatedStorage()
        log, errors = _log(storage)
        _fail(storage, op="append")
        before = storage.clock.now
        assert log.append(VersionEdit(last_sequence=1), storage.foreground_account())
        assert errors.error is None and not log.suspect and not log.pending
        assert errors.registry.value("fault.transient_retries") == 1
        assert storage.clock.now - before >= 1.0e-3  # the first backoff
        assert [e.last_sequence for e in _edits(storage)] == [0, 1]

    def test_a_torn_append_makes_the_log_suspect_and_later_edits_queue(self):
        storage = SimulatedStorage()
        log, errors = _log(storage)
        acct = storage.foreground_account()
        first, second = VersionEdit(last_sequence=1), VersionEdit(last_sequence=2)
        _fail(storage, op="append", torn_fraction=0.5)
        assert not log.append(first, acct)
        # Bytes landed, so a retry could be shadowed behind them: none is made.
        assert errors.registry.value("fault.transient_retries") == 0
        assert log.suspect and isinstance(errors.error, BackgroundError)
        storage.set_fault_injector(None)
        size = storage.size(log.writer.name)
        assert not log.append(second, acct)
        assert log.pending == [first, second]
        assert storage.size(log.writer.name) == size

    def test_rotation_writes_the_intact_records_and_the_queue_once(self):
        storage = SimulatedStorage()
        log, errors = _log(storage)
        acct = storage.foreground_account()
        _fail(storage, op="append", torn_fraction=0.5)
        log.append(VersionEdit(last_sequence=1), acct)
        storage.set_fault_injector(None)
        log.append(VersionEdit(last_sequence=2), acct)
        old = log.writer.name
        log.rotate(acct, lambda: 10)
        assert read_current(storage, acct, "db/") == file_name("db/", 10, MANIFEST)
        assert not storage.exists(old)
        edits = _edits(storage)
        assert [e.last_sequence for e in edits] == [0, 1, 2, None]
        assert edits[-1].next_file_number == 11  # past the new MANIFEST's own number
        assert not log.suspect and not log.pending
        assert errors.registry.value("manifest.rotations") == 1
        assert log.append(VersionEdit(last_sequence=3), acct)

    def test_rotation_drops_a_queued_edit_that_landed_whole(self):
        storage = SimulatedStorage()
        log, _ = _log(storage)
        acct = storage.foreground_account()
        _fail(storage, op="sync")  # the record is whole; only its sync fails
        assert not log.append(VersionEdit(last_sequence=1), acct)
        storage.set_fault_injector(None)
        log.rotate(acct, lambda: 10)
        assert [e.last_sequence for e in _edits(storage)] == [0, 1, None]


class TestBackgroundErrors:
    def test_the_retry_loop_gives_up_after_its_limit(self):
        errors = _errors(SimulatedStorage())
        attempts, undone = [], []

        def step():
            attempts.append(1)
            raise TransientIOError("injected")

        with pytest.raises(TransientIOError):
            errors.retry("flush", step, undo=lambda: undone.append(1))
        assert len(attempts) == len(undone) == FAULT_RETRY_LIMIT + 1
        assert errors.registry.value("fault.transient_retries") == FAULT_RETRY_LIMIT
        assert errors.error is None  # the caller decides what a final fault means

    def test_the_first_failure_wins_and_resume_clears_it(self):
        errors = _errors(SimulatedStorage())
        first = PersistentIOError("disk gone")
        errors.fail("flush", first)
        errors.fail("compaction", TransientIOError("later"))
        assert errors.error.cause is first
        assert errors.registry.value("fault.background_errors") == 1
        with pytest.raises(BackgroundError):
            errors.raise_if_failed()

        ran = []
        for stage, what in [
            (RETIRE_SEGMENT, "segment"),
            (DELETE_WAL, "wal-1"),
            (RETIRE_TABLE, "table"),
            (DELETE_WAL, "wal-2"),
        ]:
            errors.defer(stage, lambda what=what: ran.append(what))

        def broken():
            raise StorageError("still broken")

        assert not errors.resume(broken)
        assert "resume failed" in str(errors.error) and ran == []
        assert errors.resume(lambda: None)
        assert errors.error is None
        assert ran == ["table", "wal-1", "wal-2", "segment"]
        assert errors.registry.value("fault.resumes") == 1
        assert errors.resume(lambda: None)  # healthy: nothing to do
        assert errors.registry.value("fault.resumes") == 1
