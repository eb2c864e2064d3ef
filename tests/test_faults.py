"""Fault injection end to end: the injector, storage semantics, messy
crash modes, and the engines' background-error state machine.

The headline invariants, mirroring the acceptance bar of RocksDB-style
fault testing:

* a fixed :class:`FaultPlan` yields the identical fault sequence on
  every run (determinism);
* a store under faults NEVER serves wrong data — every read either
  returns a model-consistent value or raises;
* persistent background failures degrade the store to read-only (writes
  raise :class:`BackgroundError`, reads keep serving) and ``resume()``
  restores write service once the cause is gone.
"""

import dataclasses
import random

import pytest

import repro
from repro.errors import (
    BackgroundError,
    CorruptionError,
    PersistentIOError,
    ReproError,
    StorageError,
    TransientIOError,
)
from repro.sim.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim.storage import SimulatedStorage
from repro.util.keys import KIND_PUT, InternalKey
from tests.conftest import make_store, tiny_options


# ======================================================================
# The injector itself
# ======================================================================
class TestFaultPlanParsing:
    def test_from_string_single_spec(self):
        plan = FaultPlan.from_string("transient:sync:db/*.log:at=5")
        (spec,) = plan.specs
        assert spec.kind == "transient"
        assert spec.op == "sync"
        assert spec.name_pattern == "db/*.log"
        assert spec.at_op == 5
        assert spec.times == 1

    def test_from_string_multi_spec_with_extras(self):
        plan = FaultPlan.from_string(
            "transient:*:*:p=0.001;persistent:rename:*:at=2;"
            "transient:append:db/*.sst:at=0:times=3:torn=0.5"
        )
        assert len(plan.specs) == 3
        assert plan.specs[0].probability == 0.001
        assert plan.specs[0].times is None
        assert plan.specs[1].kind == "persistent"
        assert plan.specs[2].times == 3
        assert plan.specs[2].torn_fraction == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "transient:sync:db/*",  # missing trigger
            "transient:sync:db/*:sometimes",  # bad trigger
            "mysterious:sync:db/*:at=1",  # bad kind
            "transient:mmap:db/*:at=1",  # bad op
            "transient:sync:db/*:at=1:bogus=2",  # bad extra
        ],
    )
    def test_from_string_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_string(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(torn_fraction=-0.1)


class TestFaultInjector:
    def test_fail_nth_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan.fail_nth(2, op="sync"))
        fired = []
        for i in range(6):
            fault = inj.poll("sync", "f")
            if fault is not None:
                fired.append(i)
        assert fired == [2]
        assert inj.stats.ops_seen == 6
        assert inj.stats.faults_injected == 1
        assert inj.stats.by_op == {"sync": 1}

    def test_match_counting_is_per_spec_and_filtered(self):
        inj = FaultInjector(FaultPlan.fail_nth(1, op="append", name_pattern="a*"))
        assert inj.poll("sync", "a1") is None  # op mismatch: not counted
        assert inj.poll("append", "b1") is None  # name mismatch: not counted
        assert inj.poll("append", "a1") is None  # match #0
        assert inj.poll("append", "a2") is not None  # match #1 fires

    def test_probabilistic_is_deterministic_per_seed(self):
        def firing_indexes(seed):
            inj = FaultInjector(FaultPlan.probabilistic(0.3, seed=seed))
            return [i for i in range(200) if inj.poll("read", "f") is not None]

        assert firing_indexes(7) == firing_indexes(7)
        assert firing_indexes(7) != firing_indexes(8)

    def test_times_caps_probabilistic_firings(self):
        inj = FaultInjector(FaultPlan.probabilistic(1.0, times=2))
        fired = sum(1 for _ in range(10) if inj.poll("read", "f") is not None)
        assert fired == 2

    def test_suppressed_spec_keeps_its_times_budget(self):
        """When two specs land on the same operation only the raised one
        consumes its ``times`` budget; the suppressed spec still fires on
        a later matching operation instead of being silently swallowed."""
        inj = FaultInjector(
            FaultPlan([FaultSpec(op="sync", at_op=0), FaultSpec(op="sync", at_op=0)])
        )
        first = inj.poll("sync", "f")
        assert first is not None and first.spec is inj.plan.specs[0]
        second = inj.poll("sync", "f")
        assert second is not None and second.spec is inj.plan.specs[1]
        assert inj.poll("sync", "f") is None  # both budgets spent

    def test_check_raises_kind_specific_errors(self):
        inj = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(op="sync", at_op=0),
                    FaultSpec(op="rename", at_op=0, kind="persistent"),
                ]
            )
        )
        with pytest.raises(TransientIOError):
            inj.check("sync", "f")
        with pytest.raises(PersistentIOError):
            inj.check("rename", "f")


# ======================================================================
# Storage-level semantics
# ======================================================================
class TestStorageFaults:
    def _storage(self, plan):
        return SimulatedStorage(faults=FaultInjector(plan))

    def test_failed_append_is_atomic(self):
        storage = self._storage(FaultPlan.fail_nth(0, op="append"))
        acct = storage.foreground_account()
        storage.create("f")
        with pytest.raises(TransientIOError):
            storage.append("f", b"x" * 100, acct)
        assert storage.size("f") == 0
        storage.append("f", b"x" * 100, acct)  # times=1: works again
        assert storage.size("f") == 100

    def test_torn_append_writes_prefix(self):
        storage = self._storage(
            FaultPlan.fail_nth(0, op="append", torn_fraction=0.25)
        )
        acct = storage.foreground_account()
        storage.create("f")
        with pytest.raises(TransientIOError):
            storage.append("f", b"y" * 100, acct)
        assert storage.size("f") == 25

    def test_failed_sync_leaves_durability_boundary(self):
        storage = self._storage(FaultPlan.fail_nth(0, op="sync"))
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"z" * 64, acct)
        with pytest.raises(TransientIOError):
            storage.sync("f", acct)
        assert storage.synced_size("f") == 0
        storage.crash()
        assert not storage.exists("f")  # never durable

    def test_failed_rename_mutates_nothing(self):
        storage = self._storage(FaultPlan.fail_nth(0, op="rename"))
        acct = storage.foreground_account()
        storage.create("old")
        storage.append("old", b"q", acct)
        with pytest.raises(TransientIOError):
            storage.rename("old", "new")
        assert storage.exists("old") and not storage.exists("new")

    def test_read_faults_fire_identically_with_charge_read(self):
        """charge_read (decoded-cache hits) consults the injector at the
        same op index a raw read would — memoization never moves faults."""

        def run(use_charge):
            storage = self._storage(FaultPlan.fail_nth(3, op="read"))
            acct = storage.foreground_account()
            storage.create("f")
            storage.append("f", b"d" * 64, acct)
            failures = []
            for i in range(6):
                try:
                    if use_charge:
                        storage.charge_read("f", 0, 8, acct)
                    else:
                        storage.read("f", 0, 8, acct)
                except TransientIOError:
                    failures.append(i)
            return failures

        assert run(True) == run(False) == [3]


class TestCrashModes:
    def _prepared(self):
        storage = SimulatedStorage()
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"D" * 100, acct)
        storage.sync("f", acct)
        storage.append("f", b"U" * 60, acct)  # unsynced tail
        return storage, acct

    def test_unknown_mode_rejected(self):
        storage, _ = self._prepared()
        with pytest.raises(StorageError):
            storage.crash(mode="meteor")

    def test_torn_keeps_a_prefix_of_the_tail(self):
        storage, acct = self._prepared()
        storage.crash(mode="torn", seed=3)
        size = storage.size("f")
        assert 100 <= size <= 160
        data = storage.read("f", 0, size, acct)
        assert data[:100] == b"D" * 100
        assert data[100:] == b"U" * (size - 100)  # surviving prefix intact

    def test_garbage_scrambles_only_the_tail(self):
        for seed in range(8):
            storage, acct = self._prepared()
            storage.crash(mode="garbage", seed=seed)
            size = storage.size("f")
            data = storage.read("f", 0, size, acct)
            assert data[:100] == b"D" * 100  # durable region untouched
            if size > 100:
                break
        else:
            pytest.fail("no seed kept a garbage tail")

    def test_bitflip_damages_exactly_one_synced_bit(self):
        storage, acct = self._prepared()
        storage.crash(mode="bitflip", seed=1)
        assert storage.size("f") == 100  # tail truncated as in clean mode
        data = storage.read("f", 0, 100, acct)
        flipped = [i for i, b in enumerate(data) if b != ord("D")]
        assert len(flipped) == 1
        assert bin(data[flipped[0]] ^ ord("D")).count("1") == 1


# ======================================================================
# Engine state machine: foreground failures
# ======================================================================
def _attach(env, plan):
    env.storage.set_fault_injector(FaultInjector(plan))


def _detach(env):
    env.storage.set_fault_injector(None)


class TestForegroundWalFaults:
    def test_wal_sync_failure_fails_the_write_cleanly(self, env):
        db = make_store("pebblesdb", env, sync_writes=True)
        db.put(b"before", b"1")
        _attach(env, FaultPlan.fail_nth(0, op="sync", name_pattern="db/*.log"))
        with pytest.raises(TransientIOError):
            db.put(b"victim", b"2")
        assert not db.is_degraded  # foreground failure, not a background one
        _detach(env)
        db.put(b"after", b"3")
        env.storage.crash()
        db2 = make_store("pebblesdb", env, sync_writes=True)
        got = dict(db2.scan())
        assert got == {b"before": b"1", b"after": b"3"}

    def test_wal_append_failure_sweep_recovers_exact_ack_prefix(self, env):
        """Fail the k-th WAL append for a sweep of k: recovery must show
        exactly the acknowledged writes, never the failed one."""
        for k in (0, 1, 5, 17):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=True)
            _attach(
                env,
                FaultPlan.fail_nth(
                    k, op="append", name_pattern="db/*.log", torn_fraction=0.6
                ),
            )
            model = {}
            for i in range(25):
                key, value = b"k%03d" % i, b"v%03d" % i
                try:
                    db.put(key, value)
                    model[key] = value
                except TransientIOError:
                    pass
            env.storage.crash()
            _detach(env)
            db2 = make_store("pebblesdb", env, sync_writes=True)
            assert dict(db2.scan()) == model, f"diverged for k={k}"
            db2.check_invariants()

    @pytest.mark.parametrize(
        "plan",
        [
            # Record fully lands, only its sync fails.
            FaultPlan.fail_nth(0, op="sync", name_pattern="db/*.log"),
            # The whole record lands as a "torn" prefix.
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/*.log", torn_fraction=1.0
            ),
        ],
        ids=["sync-fails", "fully-torn"],
    )
    def test_landed_failed_record_never_shadows_acknowledged_write(self, plan):
        """A WAL record that lands despite a failed write is a phantom: it
        may replay at recovery, so its sequence numbers must be burned.
        Were a later acknowledged write to reuse them, replay would apply
        the phantom first and skip the acknowledged record as a duplicate,
        silently replacing acknowledged data with the failed payload."""
        for seed in range(8):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=True)
            db.put(b"k", b"old")
            _attach(env, plan)
            with pytest.raises(TransientIOError):
                db.put(b"k", b"phantom")  # bytes landed, write failed
            _detach(env)
            db.put(b"k", b"acknowledged")
            # A torn crash may keep any prefix of the abandoned WAL's
            # unsynced tail — including the complete phantom record.
            env.storage.crash(mode="torn", seed=seed)
            db2 = make_store("pebblesdb", env, sync_writes=True)
            assert db2.get(b"k") == b"acknowledged", f"seed={seed}"
            db2.check_invariants()


# ======================================================================
# Engine state machine: background failures, degrade, resume
# ======================================================================
def _fill(db, n, start=0):
    model = {}
    for i in range(start, start + n):
        key, value = b"key%04d" % i, b"val%05d" % i
        db.put(key, value)
        model[key] = value
    return model


class TestBackgroundFaults:
    def test_transient_sstable_fault_is_retried(self, env):
        db = make_store("pebblesdb", env)
        _attach(
            env,
            FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst", times=2),
        )
        model = _fill(db, 400)
        db.flush_memtable()
        db.wait_idle()
        stats = db.stats()
        assert stats.transient_fault_retries >= 1
        assert not db.is_degraded
        assert stats.background_errors == 0
        for key, value in list(model.items())[:50]:
            assert db.get(key) == value

    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_persistent_flush_fault_degrades_then_resumes(self, engine, env):
        db = make_store(engine, env)
        model = _fill(db, 120)
        _attach(
            env,
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/*.sst", kind="persistent"
            ),
        )
        accepted = dict(model)
        # Keep writing until the sticky error surfaces on the write path.
        for i in range(5000):
            key, value = b"pressure%05d" % i, b"x%05d" % i
            try:
                db.put(key, value)
                accepted[key] = value
            except BackgroundError:
                break
        assert db.is_degraded
        assert db.get_property("repro.health").split()[0] == "degraded"
        assert "fault" in db.get_property("repro.background-error")
        stats = db.stats()
        assert stats.degraded and stats.background_errors == 1
        # Reads keep serving every acknowledged write.
        for key, value in list(accepted.items())[:80]:
            assert db.get(key) == value
        with pytest.raises(BackgroundError):
            db.put(b"rejected", b"x")
        # Cause removed: resume restores write service.
        _detach(env)
        assert db.resume() is True
        assert not db.is_degraded
        assert db.get_property("repro.health").split()[0] == "ok"
        assert db.stats().resumes == 1
        db.put(b"post-resume", b"ok")
        db.flush_memtable()
        db.wait_idle()
        assert db.get(b"post-resume") == b"ok"
        db.check_invariants()

    def test_resume_fails_and_stays_degraded_while_cause_persists(self, env):
        db = make_store("pebblesdb", env)
        _fill(db, 120)
        _attach(
            env,
            FaultPlan(
                [
                    FaultSpec(
                        op="append",
                        name_pattern="db/*.sst",
                        kind="persistent",
                        at_op=0,
                        times=None,
                    )
                ]
            ),
        )
        with pytest.raises(BackgroundError):
            for i in range(5000):
                db.put(b"p%05d" % i, b"x")
        assert db.is_degraded
        # resume() must not lie while the device still fails.
        db.resume()
        assert db.get(b"key0000") == b"val00000"
        _detach(env)
        assert db.resume() is True
        db.put(b"healed", b"yes")
        assert db.get(b"healed") == b"yes"

    @pytest.mark.parametrize("block_cache_bytes", [0, 32 * 1024 * 1024])
    def test_resume_checks_every_live_table_against_storage(self, env, block_cache_bytes):
        """resume() reads every live table's footer back, whatever the read
        path holds parsed: a damaged one keeps the store degraded."""
        db = make_store("pebblesdb", env, block_cache_bytes=block_cache_bytes)
        model = _fill(db, 3000)
        for key, value in list(model.items())[::30]:
            assert db.get(key) == value
        number = min(db.sstable_file_numbers())
        data = env.storage._files[db._sst_name(number)].mutable()
        magic = len(data) - 12  # two bytes of the footer's magic number
        saved = bytes(data[magic : magic + 2])
        assert saved != b"\0\0"
        data[magic : magic + 2] = b"\0\0"
        _attach(
            env,
            FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst", kind="persistent"),
        )
        with pytest.raises(BackgroundError):
            for i in range(5000):
                db.put(b"p%05d" % i, b"x")
        _detach(env)
        assert number in db.sstable_file_numbers()
        assert db.resume() is False
        assert db.is_degraded
        assert "footer checksum mismatch" in db.get_property("repro.background-error")
        data[magic : magic + 2] = saved
        assert db.resume() is True
        db.put(b"healed", b"yes")
        assert db.get(b"healed") == b"yes"

    def test_a_failed_attempts_undo_forgets_its_tables(self, env):
        """Tables an attempt wrote before it failed are deleted, and the
        read path no longer holds them parsed."""
        db = make_store("pebblesdb", env)
        acct = env.storage.background_account("db/flush")
        entries = [(InternalKey(b"k%04d" % i, i + 1, KIND_PUT), b"v") for i in range(50)]
        written = []

        def compute():
            metas = db._write_sstables(iter(entries), acct, split_bytes=None)
            written.append(metas[0].number)
            assert written[-1] in db._reads.tables
            if len(written) == 1:
                raise TransientIOError("after the table was written")
            return metas

        metas = db._run_protected("flush", compute)
        first, second = written
        assert [m.number for m in metas] == [second]
        assert first not in db._reads.tables and second in db._reads.tables
        assert not env.storage.exists(db._sst_name(first))

    def test_manifest_fault_queues_edits_and_resume_rotates(self, env):
        db = make_store("pebblesdb", env)
        model = _fill(db, 150)
        _attach(
            env,
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/MANIFEST-*", kind="persistent"
            ),
        )
        db.flush_memtable()
        db.wait_idle()
        assert db.is_degraded
        for key, value in list(model.items())[:40]:
            assert db.get(key) == value
        _detach(env)
        assert db.resume() is True
        # The rotated MANIFEST + retained WALs must survive a crash.
        db.put(b"tail", b"t")
        db.flush_memtable()
        db.wait_idle()
        env.storage.crash()
        db2 = make_store("pebblesdb", env)
        model[b"tail"] = b"t"
        assert dict(db2.scan()) == model
        db2.check_invariants()

    def test_rotated_manifest_number_survives_crash(self, env):
        """The file number allocated for a rotated MANIFEST must stay
        covered by the persisted counter across a crash: were the counter
        to fall below the live MANIFEST's number, a later rotation could
        re-allocate it and append onto the live file, duplicating every
        edit at the next recovery."""

        def degrade_and_resume(db):
            _attach(
                env,
                FaultPlan(
                    [
                        FaultSpec(
                            op="append",
                            name_pattern="db/MANIFEST-*",
                            kind="persistent",
                            at_op=0,
                            times=None,
                        )
                    ]
                ),
            )
            db.flush_memtable()
            db.wait_idle()
            assert db.is_degraded
            # A resume attempt while the device still fails burns a file
            # number for the MANIFEST it could not write, so the eventual
            # successful rotation gets a number no surviving .sst/.log
            # name accounts for.
            assert db.resume() is False
            _detach(env)
            assert db.resume() is True  # rotates to a freshly numbered MANIFEST

        db = make_store("pebblesdb", env, sync_writes=True)
        model = _fill(db, 60)
        degrade_and_resume(db)
        env.storage.crash()
        db2 = make_store("pebblesdb", env, sync_writes=True)
        live = max(
            int(name.rsplit("MANIFEST-", 1)[1])
            for name in env.storage.list_files("db/")
            if "MANIFEST-" in name
        )
        assert db2._next_file_number > live
        # A second faulted rotation after the crash must land in a fresh
        # file, and the doubly-rotated state must survive another crash.
        model.update(_fill(db2, 60, start=1000))
        degrade_and_resume(db2)
        env.storage.crash()
        db3 = make_store("pebblesdb", env, sync_writes=True)
        assert dict(db3.scan()) == model
        db3.check_invariants()

    def test_degraded_store_keeps_files_needed_after_crash(self, env):
        """Crashing while degraded (before resume) must still recover every
        acknowledged write: un-persisted edits keep their WALs/inputs."""
        db = make_store("pebblesdb", env, sync_writes=True)
        model = _fill(db, 60)
        _attach(
            env,
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/MANIFEST-*", kind="persistent"
            ),
        )
        db.flush_memtable()
        db.wait_idle()
        assert db.is_degraded
        _detach(env)
        env.storage.crash()
        db2 = make_store("pebblesdb", env, sync_writes=True)
        assert dict(db2.scan()) == model
        db2.check_invariants()


class TestGuardParallelFaults:
    """The background-error state machine with multiple guard compactions
    in flight: faults land on one job's timeline while others proceed."""

    def _fill_fat(self, db, n, start=0):
        model = {}
        for i in range(start, start + n):
            key = b"key%04d" % ((i * 37) % 900)
            value = (b"val%05d" % i) * 16
            db.put(key, value)
            model[key] = value
        return model

    @pytest.mark.parametrize("workers", [1, 4])
    def test_transient_fault_with_parallel_jobs_is_retried(self, env, workers):
        db = make_store("pebblesdb", env, background_workers=workers)
        _attach(
            env,
            FaultPlan.fail_nth(20, op="append", name_pattern="db/*.sst", times=3),
        )
        model = self._fill_fat(db, 700)
        db.flush_memtable()
        db.wait_idle()
        stats = db.stats()
        assert stats.transient_fault_retries >= 1
        assert not db.is_degraded
        assert stats.background_errors == 0
        if workers > 1:
            # Faults on one job's timeline never serialized the others.
            assert stats.compactions_parallel_peak >= 2
        for key, value in list(model.items())[:60]:
            assert db.get(key) == value
        db.check_invariants()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_persistent_fault_degrades_and_resumes_under_parallelism(
        self, env, workers
    ):
        db = make_store("pebblesdb", env, background_workers=workers)
        model = self._fill_fat(db, 250)
        db.wait_idle()
        _attach(
            env,
            FaultPlan.fail_nth(
                5, op="append", name_pattern="db/*.sst", kind="persistent"
            ),
        )
        accepted = dict(model)
        for i in range(8000):
            key, value = b"pressure%05d" % i, (b"x%05d" % i) * 8
            try:
                db.put(key, value)
                accepted[key] = value
            except BackgroundError:
                break
        assert db.is_degraded
        # Whatever jobs were in flight when the error stuck, the conflict
        # map must be fully drained — nothing leaks a claim.
        prop = db.get_property("repro.compaction-scheduler")
        assert "inflight=0" in prop
        for key, value in list(accepted.items())[:60]:
            assert db.get(key) == value
        _detach(env)
        assert db.resume() is True
        assert not db.is_degraded
        db.put(b"post-resume", b"ok")
        db.flush_memtable()
        db.wait_idle()
        assert db.get(b"post-resume") == b"ok"
        db.check_invariants()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_with_jobs_in_flight_recovers_acknowledged_state(
        self, env, workers
    ):
        db = make_store(
            "pebblesdb", env, background_workers=workers, sync_writes=True
        )
        model = self._fill_fat(db, 400)
        # Crash mid-schedule: compactions are still pending/in flight.
        env.storage.crash()
        db2 = make_store(
            "pebblesdb", env, background_workers=workers, sync_writes=True
        )
        assert dict(db2.scan()) == model
        db2.check_invariants()

    def test_degraded_parallel_store_survives_crash_before_resume(self, env):
        db = make_store(
            "pebblesdb", env, background_workers=4, sync_writes=True
        )
        model = self._fill_fat(db, 250)
        _attach(
            env,
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/MANIFEST-*", kind="persistent"
            ),
        )
        db.flush_memtable()
        db.wait_idle()
        assert db.is_degraded
        _detach(env)
        env.storage.crash()
        db2 = make_store(
            "pebblesdb", env, background_workers=4, sync_writes=True
        )
        assert dict(db2.scan()) == model
        db2.check_invariants()


def _scheduling_state(db):
    """What a compaction holds while in flight: busy files, the in-flight
    count and, for FLSM, its claims and guard-commit bookkeeping."""
    state = {"busy": set(db._busy), "inflight": db._compactions_inflight}
    if hasattr(db, "_claims"):
        state.update(
            claims=dict(db._claims),
            outflow=dict(db._inflight_outflow),
            uncommitted=[set(keys) for keys in db._uncommitted],
            committing=set(db._committing),
        )
    return state


class TestFaultedComputeTakesNothing:
    """A compaction whose first output append faults leaves the scheduling
    state as it found it: its retry (transient fault) or the degraded
    store (persistent fault) sees the same busy set and, for FLSM, the
    same claims, uncommitted and committing guards."""

    @pytest.mark.parametrize("kind", ["transient", "persistent"])
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_state_is_unchanged_by_the_faulted_attempt(self, engine, kind, env):
        db = make_store(engine, env, background_workers=4)
        compute, fail = db._compute_compaction, db._faults.fail
        faulted, pairs = [], []

        def faulting_compute(level, pick, ctx):
            if faulted:  # the retry
                pairs.append((faulted.pop(), _scheduling_state(db)))
            if pairs or not db._busy:  # fault one beside another job
                return compute(level, pick, ctx)
            state = _scheduling_state(db)
            _attach(env, FaultPlan.from_string(kind + ":append:db/*.sst:at=0"))
            try:
                return compute(level, pick, ctx)
            finally:
                if env.storage.faults.stats.faults_injected:
                    faulted.append(state)
                _detach(env)

        def failing(step, exc):
            if faulted:  # no retry: the store degrades
                pairs.append((faulted.pop(), _scheduling_state(db)))
            fail(step, exc)

        db._compute_compaction = faulting_compute
        db._faults.fail = failing
        model = {}
        for i in range(4000):
            if pairs:
                break
            key, value = b"key%04d" % ((i * 37) % 900), (b"val%05d" % i) * 16
            try:
                db.put(key, value)
            except BackgroundError:
                break
            model[key] = value
        assert len(pairs) == 1, "no compaction's first output append faulted"
        before, after = pairs[0]
        assert after == before
        assert db.is_degraded == (kind == "persistent")
        if kind == "persistent":
            assert db.resume()
        db.wait_idle()
        assert dict(db.scan()) == model
        db.check_invariants()

class TestBtreeFaults:
    def test_torn_journal_append_degrades_then_resumes(self, env):
        db = make_store("btree", env)
        model = _fill(db, 40)
        _attach(
            env,
            FaultPlan.fail_nth(
                0, op="append", name_pattern="db/journal.log", torn_fraction=0.5
            ),
        )
        with pytest.raises(TransientIOError):
            db.put(b"torn", b"x")
        assert db.is_degraded  # bytes landed: the journal tail is suspect
        for key, value in list(model.items())[:10]:
            assert db.get(key) == value
        with pytest.raises(BackgroundError):
            db.put(b"blocked", b"x")
        _detach(env)
        assert db.resume() is True
        assert db.stats().resumes == 1
        db.put(b"healed", b"yes")
        model[b"healed"] = b"yes"
        # The checkpoint journal must recover the full state after a crash
        # (close syncs the journal tail, making the put durable).
        db.close()
        env.storage.crash()
        db2 = make_store("btree", env)
        got = {}
        with db2.seek(b"\x00") as it:
            while it.valid:
                got[it.key()] = it.value()
                it.next()
        assert got == model
        db2.check_invariants()

    def test_clean_journal_failure_is_retryable_not_sticky(self, env):
        db = make_store("btree", env)
        _attach(
            env,
            FaultPlan.fail_nth(0, op="append", name_pattern="db/journal.log"),
        )
        with pytest.raises(TransientIOError):
            db.put(b"a", b"1")
        assert not db.is_degraded  # nothing landed: clean foreground error
        db.put(b"a", b"1")
        assert db.get(b"a") == b"1"


# ======================================================================
# Messy-crash recovery sweeps
# ======================================================================
def _workload(db, ops):
    model = {}
    for kind, key, value in ops:
        if kind == "put":
            db.put(key, value)
            model[key] = value
        else:
            db.delete(key)
            model.pop(key, None)
    return model


def _ops(n, seed):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        key = b"key%03d" % rng.randrange(120)
        if rng.random() < 0.8:
            ops.append(("put", key, b"v%04d" % i))
        else:
            ops.append(("delete", key, b""))
    return ops


def _prefix_models(ops):
    model, models = {}, [{}]
    for kind, key, value in ops:
        if kind == "put":
            model[key] = value
        else:
            model.pop(key, None)
        models.append(dict(model))
    return models


class TestMessyCrashRecovery:
    @pytest.mark.parametrize("mode", ["torn", "garbage"])
    def test_unsynced_tail_damage_recovers_to_a_prefix(self, mode):
        """Without sync, a torn/garbage tail may lose a suffix of writes —
        but recovery must land exactly on a prefix of the op stream."""
        ops = _ops(250, seed=13)
        models = _prefix_models(ops)
        for seed in (1, 2, 3):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=False)
            _workload(db, ops)
            env.storage.crash(mode=mode, seed=seed)
            db2 = make_store("pebblesdb", env, sync_writes=False)
            got = dict(db2.scan())
            assert got in models, f"{mode}/seed={seed}: not a prefix state"
            db2.check_invariants()

    @pytest.mark.parametrize("mode", ["torn", "garbage"])
    def test_synced_writes_survive_tail_damage_exactly(self, mode):
        ops = _ops(120, seed=29)
        for seed in (1, 2):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=True)
            model = _workload(db, ops)
            env.storage.crash(mode=mode, seed=seed)
            # Tail damage never reaches below the durability boundary, so
            # strict recovery succeeds and loses nothing.
            db2 = make_store("pebblesdb", env, sync_writes=True)
            assert dict(db2.scan()) == model
            db2.check_invariants()

    def test_bitflip_crash_never_serves_wrong_data(self):
        for seed in range(6):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=True)
            model = _workload(db, _ops(160, seed=41))
            db.flush_memtable()
            db.wait_idle()
            env.storage.crash(mode="bitflip", seed=seed)
            try:
                db2 = make_store("pebblesdb", env, sync_writes=True)
            except (CorruptionError, StorageError):
                continue  # detected at recovery: acceptable
            try:
                for key, value in db2.scan():
                    assert model.get(key) == value, (
                        f"seed={seed}: silent corruption {key!r}->{value!r}"
                    )
            except CorruptionError:
                pass  # detected at read time: acceptable


# ======================================================================
# Chaos: probabilistic faults everywhere, wrong answers never
# ======================================================================
class TestChaosNeverWrong:
    def test_probabilistic_fault_storm(self):
        plan = FaultPlan.probabilistic(0.01, seed=5)
        env = repro.Environment(cache_bytes=1 << 20, faults=FaultInjector(plan))
        db = make_store("pebblesdb", env, sync_writes=True)
        rng = random.Random(99)
        model = {}
        for i in range(600):
            key = b"key%03d" % rng.randrange(150)
            value = b"v%05d" % i
            try:
                db.put(key, value)
                model[key] = value
            except ReproError:
                continue  # unacknowledged or degraded: model unchanged
        # Every read is either faulted, or exactly right.
        hits = 0
        for key, value in model.items():
            try:
                got = db.get(key)
            except ReproError:
                continue
            assert got == value
            hits += 1
        assert hits > 0
        # After the storm passes, the store either resumes or was never
        # degraded — and then serves everything.
        _detach(env)
        assert db.resume() is True
        for key, value in model.items():
            assert db.get(key) == value
        db.check_invariants()

    def test_fault_storm_is_deterministic(self):
        def run():
            plan = FaultPlan.probabilistic(0.02, seed=17)
            env = repro.Environment(cache_bytes=1 << 20, faults=FaultInjector(plan))
            db = make_store("pebblesdb", env, sync_writes=True)
            outcomes = []
            for i in range(300):
                try:
                    db.put(b"k%04d" % i, b"v")
                    outcomes.append(1)
                except ReproError:
                    outcomes.append(0)
            stats = env.storage.faults.stats
            return outcomes, stats.faults_injected, stats.ops_seen, env.clock.now

        assert run() == run()


# ======================================================================
# k-sweep: the same fault at the k-th matching storage operation
# ======================================================================
#: test id -> (op, file pattern, kind, torn fraction)
SWEEP_CONFIGS = {
    "transient-sstable-append": ("append", "db/*.sst", "transient", None),
    "persistent-sstable-append": ("append", "db/*.sst", "persistent", None),
    "transient-wal-sync": ("sync", "db/*.log", "transient", None),
    "torn-wal-append": ("append", "db/*.log", "transient", 0.5),
    "persistent-manifest-append": ("append", "db/MANIFEST-*", "persistent", None),
    "transient-any-read": ("read", "db/*", "transient", None),
}
SWEEP_KS = [0, 1, 3, 10]


def _sweep_episode(op, pattern, kind, torn, k):
    """One fault episode, asserting as it goes; returns what a repeat must match."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store("pebblesdb", env, sync_writes=True)
    plan = FaultPlan.fail_nth(
        k, op=op, name_pattern=pattern, kind=kind, torn_fraction=torn
    )
    _attach(env, plan)
    model = {}
    outcomes = []
    for i in range(700):
        key, value = b"key%04d" % (i % 300), b"val%06d" % i
        try:
            db.put(key, value)
            model[key] = value
            outcomes.append(1)
        except ReproError:
            outcomes.append(0)
    try:
        db.flush_memtable()
        db.wait_idle()
    except ReproError:
        pass

    # Healthy, or degraded with the cause surfaced.
    health = db.get_property("repro.health").split()[0]
    assert health in ("ok", "degraded")
    if health == "degraded":
        assert db.get_property("repro.background-error")

    # A read under the fault raises or is exactly right.
    for key, value in model.items():
        try:
            got = db.get(key)
        except ReproError:
            continue
        assert got == value

    # With the cause gone, resume restores writes and every acknowledged key.
    faults_injected = env.storage.faults.stats.faults_injected
    _detach(env)
    assert db.resume() is True
    db.put(b"post-resume", b"ok")
    model[b"post-resume"] = b"ok"
    for key, value in model.items():
        assert db.get(key) == value

    # sync_writes: a crash recovers exactly the acknowledged state.
    sim_clock = env.clock.now
    env.storage.crash()
    db2 = make_store("pebblesdb", env, sync_writes=True)
    assert dict(db2.scan()) == model
    db2.check_invariants()
    return health, outcomes, faults_injected, sim_clock


class TestFaultPointSweep:
    @pytest.mark.parametrize("k", SWEEP_KS)
    @pytest.mark.parametrize(
        "op,pattern,kind,torn", SWEEP_CONFIGS.values(), ids=list(SWEEP_CONFIGS)
    )
    def test_every_fault_point_recovers_or_degrades(self, op, pattern, kind, torn, k):
        first = _sweep_episode(op, pattern, kind, torn, k)
        assert _sweep_episode(op, pattern, kind, torn, k) == first
