"""Backup/repair round-trips over fault-injected stores.

The disaster-recovery tools must compose with the fault-injection
substrate: a store that survived transient storage faults backs up and
restores byte-for-byte; a backup taken before a crash restores the
pre-crash state; a fault *during* the backup itself refuses loudly
rather than producing a torn backup, and a clean retry succeeds; and
RepairDB reconstructs a store whose metadata was lost mid-fault-storm.
"""

import dataclasses
import random

import pytest

import repro
from repro.engines.options import StoreOptions
from repro.errors import ReproError, TransientIOError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.tools.backup import create_backup, restore_backup
from repro.tools.repair import repair_store
from repro.version import ManifestReader, read_current
from tests.conftest import check_sequence_bounds


def _tiny(preset, **kw):
    base = StoreOptions.for_preset(preset)
    return dataclasses.replace(
        base,
        memtable_bytes=4 * 1024,
        level1_max_bytes=16 * 1024,
        target_file_bytes=8 * 1024,
        top_level_bits=6,
        bit_decrement=1,
        sync_writes=True,
        **kw,
    )


def _open(env, prefix="db/"):
    return repro.open_store(
        "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix=prefix
    )


def _fill(db, n, tag, model, seed=7):
    rng = random.Random(seed)
    for i in range(n):
        k = b"key%06d" % rng.randrange(4000)
        v = b"%s-%05d" % (tag, i)
        db.put(k, v)
        model[k] = v


class TestBackupCrashRestore:
    def test_backup_then_crash_then_restore(self):
        """backup -> keep writing -> power failure -> restore -> verify."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        model = {}
        _fill(db, 1200, b"pre", model)
        db.wait_idle()
        create_backup(env.storage, "db/", "backup/")

        # Divergent post-backup writes, then the machine dies mid-flight.
        _fill(db, 600, b"post", dict(model), seed=8)
        env.storage.crash()

        restore_backup(env.storage, "backup/", "db/")
        db2 = _open(env)
        assert dict(db2.scan()) == model
        db2.check_invariants()
        db2.close()

    def test_backup_of_fault_survivor_roundtrips(self):
        """A store that retried through transient faults backs up cleanly."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        model = {}
        _fill(db, 300, b"calm", model)
        db.wait_idle()
        # Storm: background sstable appends (flush/compaction) fail
        # transiently; the engine's retry loop must absorb them.
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst", times=2)
            )
        )
        _fill(db, 600, b"storm", model, seed=9)
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        assert db.stats().transient_fault_retries > 0

        create_backup(env.storage, "db/", "backup/")
        restore_backup(env.storage, "backup/", "restored/")
        db2 = repro.open_store(
            "pebblesdb",
            env.storage,
            options=_tiny("pebblesdb"),
            prefix="restored/",
        )
        assert dict(db2.scan()) == model
        db2.check_invariants()
        db2.close()
        db.close()

    def test_fault_during_backup_refuses_then_retries_clean(self):
        """A read fault mid-backup propagates; the torn destination is not
        restorable, and a clean retry produces a good backup."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        model = {}
        _fill(db, 1000, b"v", model)
        db.flush_memtable()
        db.wait_idle()

        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(1, op="read", name_pattern="db/*.sst")
            )
        )
        with pytest.raises(TransientIOError):
            create_backup(env.storage, "db/", "backup/")
        env.storage.set_fault_injector(None)
        # The aborted attempt never published a CURRENT: restoring from it
        # must be rejected rather than yielding a half-copied store.
        with pytest.raises(ReproError):
            restore_backup(env.storage, "backup/", "restored/")

        create_backup(env.storage, "db/", "backup/")
        restore_backup(env.storage, "backup/", "restored/")
        db2 = repro.open_store(
            "pebblesdb",
            env.storage,
            options=_tiny("pebblesdb"),
            prefix="restored/",
        )
        assert dict(db2.scan()) == model
        db2.close()
        db.close()


class TestRepairFaultedStore:
    def test_repair_after_fault_storm_and_metadata_loss(self):
        """Store weathers transient faults, crashes, loses its MANIFEST;
        RepairDB brings every surviving committed write back."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        model = {}
        _fill(db, 800, b"a", model)
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst", times=2)
            )
        )
        _fill(db, 400, b"b", model, seed=11)
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        db.close()

        env.storage.crash()
        for name in list(env.storage.list_files("db/")):
            base = name[3:]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)

        report = repair_store(env.storage, "db/")
        assert report.tables_recovered > 0
        db2 = _open(env)
        assert dict(db2.scan()) == model
        db2.check_invariants()
        db2.close()

    def test_backup_restore_then_repair_compose(self):
        """Restore a backup, lose the restored metadata, repair it."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        model = {}
        _fill(db, 900, b"x", model)
        db.wait_idle()
        create_backup(env.storage, "db/", "backup/")
        db.close()

        restore_backup(env.storage, "backup/", "restored/")
        for name in list(env.storage.list_files("restored/")):
            base = name[len("restored/"):]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)
        repair_store(env.storage, "restored/")
        db2 = repro.open_store(
            "pebblesdb",
            env.storage,
            options=_tiny("pebblesdb"),
            prefix="restored/",
        )
        assert dict(db2.scan()) == model
        db2.check_invariants()
        db2.close()

    def test_sequence_bounds_survive_backup_restore_and_repair(self):
        """``largest_seq`` round-trips through a MANIFEST (backup ->
        restore) and RepairDB recomputes it exactly — a repaired store
        whose files came back unbounded would probe every candidate."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(env)
        _fill(db, 900, b"x", {})
        db.wait_idle()
        bounds = {f.number: f.largest_seq for f in db.live_files()}
        check_sequence_bounds(db, env)
        create_backup(env.storage, "db/", "backup/")
        db.close()

        restore_backup(env.storage, "backup/", "restored/")
        options = _tiny("pebblesdb")
        db2 = repro.open_store("pebblesdb", env.storage, options=options, prefix="restored/")
        # (plus the table recovery made of the backed-up write-ahead log)
        assert bounds.items() <= {f.number: f.largest_seq for f in db2.live_files()}.items()
        check_sequence_bounds(db2, env)
        db2.close()

        for name in list(env.storage.list_files("restored/")):
            base = name[len("restored/"):]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)
        repair_store(env.storage, "restored/")
        db3 = repro.open_store("pebblesdb", env.storage, options=options, prefix="restored/")
        assert len(db3.live_files()) >= len(bounds)
        check_sequence_bounds(db3, env)
        db3.check_invariants()
        db3.close()


def _crashed_store(preset, separate):
    """A store that lost power with acknowledged writes both in sstables
    (some of them outputs of jobs still in flight) and in its durable but
    unflushed WAL.  Returns the environment and the acknowledged map."""
    env = repro.Environment(cache_bytes=1 << 20)
    extra = dict(value_separation_bytes=100, vlog_segment_bytes=4096) if separate else {}
    options = _tiny(preset, **extra)
    db = repro.open_store(preset, env.storage, options=options, prefix="db/")
    rng = random.Random(11)
    model = {}
    for i in range(900):
        key = b"key%05d" % rng.randrange(500)
        if rng.random() < 0.1:
            db.delete(key)
            model.pop(key, None)
        else:
            value = b"%05d" % i * rng.choice([1, 40])  # 5 B, or past the threshold
            db.put(key, value)
            model[key] = value
    assert any(name.endswith(".log") and env.storage.size(name) for name in env.storage.list_files("db/"))
    env.storage.crash()
    return env, options, model


@pytest.mark.parametrize("separate", [False, True], ids=["inline", "vlog"])
@pytest.mark.parametrize("preset", ["leveldb", "hyperleveldb", "rocksdb", "pebblesdb"])
def test_repair_equals_recovery(preset, separate):
    """Reopening a crashed store and repairing it after losing its metadata
    expose the same data: both replay the WAL through the one replay."""
    env, options, model = _crashed_store(preset, separate)
    recovered = repro.open_store(preset, env.storage, options=options, prefix="db/")
    assert dict(recovered.scan()) == model

    env, options, _ = _crashed_store(preset, separate)
    for name in env.storage.list_files("db/"):
        if name == "db/CURRENT" or name.startswith("db/MANIFEST-"):
            env.storage.delete(name)
    repair_store(env.storage, "db/")
    repaired = repro.open_store(preset, env.storage, options=options, prefix="db/")
    assert dict(repaired.scan()) == model
    repaired.check_invariants()


@pytest.mark.parametrize("preset", ["leveldb", "hyperleveldb"])
def test_backup_keeps_trivially_moved_tables(preset):
    """A trivial move deletes a table at one level and adds it at the next
    in one edit; the backup's live set is the recovery fold's, level by
    level, so the moved table is copied and the restored store opens."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = repro.open_store(preset, env.storage, options=_tiny(preset), prefix="db/")
    model = {}
    for i in range(3000):  # sequential keys: flushed tables move down whole
        db.put(b"key%06d" % i, b"v%05d" % i)
        model[b"key%06d" % i] = b"v%05d" % i
    db.wait_idle()
    acct = env.storage.foreground_account()
    edits = ManifestReader(env.storage, read_current(env.storage, acct, "db/")).edits(acct)
    assert any(
        {n for _, n in e.deleted_files} & {m.number for _, m, _, _ in e.new_files}
        for e in edits
    )
    create_backup(env.storage, "db/", "bak/")
    restore_backup(env.storage, "bak/", "restored/")
    db2 = repro.open_store(preset, env.storage, options=_tiny(preset), prefix="restored/")
    assert dict(db2.scan()) == model
    db2.check_invariants()
