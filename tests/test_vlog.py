"""Key–value separation: the garbage-collected value log.

Covers the subsystem end to end: pointer/record codecs, the MANIFEST
liveness tags, engine round-trips over separated values (gets, scans,
reverse scans, snapshots, reopen), GC relocation and deterministic
segment retirement, honest write-amplification accounting, crash safety
against torn value-log appends, and backup/repair over separated stores.
"""

import dataclasses
import hashlib
import random

import pytest

import repro
from repro.errors import CorruptionError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sstable.format import ValuePointer
from repro.tools.backup import create_backup, restore_backup
from repro.tools.repair import repair_store
from repro.util.keys import KIND_PUT, KIND_VPTR
from repro.version.manifest import ManifestReader, VersionEdit, read_current
from repro.vlog import ValueLog, decode_record, encode_record
from tests.conftest import LSM_ENGINES, tiny_options

SEP = 64  # separation threshold used throughout: values >= 64 B split


def _options(engine, **overrides):
    overrides.setdefault("value_separation_bytes", SEP)
    overrides.setdefault("vlog_segment_bytes", 4096)
    return tiny_options(engine, **overrides)


def _open(engine, env, **overrides):
    return repro.open_store(
        engine, env.storage, options=_options(engine, **overrides), prefix="db/"
    )


def _fill(db, n=300, seed=7, key_space=150):
    """Mixed small/large workload; returns the expected final contents."""
    rng = random.Random(seed)
    expect = {}
    for i in range(n):
        key = b"key%04d" % rng.randrange(key_space)
        size = rng.choice([8, 80, 500])  # below, at, and past the threshold
        value = (b"%02x" % (i % 256)) * (size // 2)
        db.put(key, value)
        expect[key] = value
    for _ in range(n // 10):
        key = b"key%04d" % rng.randrange(key_space)
        db.delete(key)
        expect.pop(key, None)
    return expect


def _digests(storage, prefix="db/"):
    acct = storage.foreground_account("digest")
    return {
        name: hashlib.sha256(
            bytes(storage.read(name, 0, storage.size(name), acct, sequential=True))
        ).hexdigest()
        for name in sorted(storage.list_files(prefix))
    }


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class TestCodecs:
    def test_value_pointer_round_trip(self):
        pointer = ValuePointer(segment=7, offset=123456, record_length=532, value_length=500)
        assert ValuePointer.decode(pointer.encode()) == pointer

    def test_value_pointer_rejects_truncation_and_trailing(self):
        encoded = ValuePointer(1, 2, 3, 4).encode()
        with pytest.raises(CorruptionError):
            ValuePointer.decode(encoded[:-1])
        with pytest.raises(CorruptionError):
            ValuePointer.decode(encoded + b"\x00")

    def test_record_round_trip(self):
        record = encode_record(b"k", b"v" * 100, 42)
        assert decode_record(record) == (b"k", b"v" * 100, 42)

    def test_record_detects_corruption(self):
        record = bytearray(encode_record(b"k", b"v" * 100, 42))
        record[30] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_record(bytes(record))

    def test_manifest_vlog_tags_round_trip(self):
        edit = VersionEdit(vlog_dead=[(3, 100), (9, 7)], deleted_vlog_segments=[3])
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.vlog_dead == [(3, 100), (9, 7)]
        assert decoded.deleted_vlog_segments == [3]

    def test_empty_vlog_tags_encode_to_nothing(self):
        # The byte-identity guarantee for separation-off stores.
        assert VersionEdit(last_sequence=5).encode() == VersionEdit(
            last_sequence=5, vlog_dead=[], deleted_vlog_segments=[]
        ).encode()


# ----------------------------------------------------------------------
# Engine round-trips
# ----------------------------------------------------------------------
class TestSeparatedReads:
    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_round_trip_flush_compact_reopen(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(engine, env)
        expect = _fill(db)
        db.flush_memtable()
        assert dict(db.scan()) == expect
        db.compact_all()
        db.wait_idle()
        for key, value in expect.items():
            assert db.get(key) == value
        fwd = list(db.scan())
        assert fwd == list(reversed(list(db.scan_reverse())))
        db.close()
        db2 = _open(engine, env)
        assert dict(db2.scan()) == expect
        db2.close()

    def test_snapshot_pins_separated_values(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        expect = _fill(db)
        snap = db.get_snapshot()
        frozen = dict(expect)
        for key in list(expect):
            db.put(key, b"X" * 200)  # all separated, all shadowing
        db.compact_all()
        db.wait_idle()
        assert dict(db.scan(snapshot=snap)) == frozen
        for key, value in list(frozen.items())[:20]:
            assert db.get(key, snapshot=snap) == value
        db.release_snapshot(snap)
        db.close()

    def test_gc_under_open_snapshot_then_after_release(self):
        """GC must not free records a snapshot still reads; once released,
        further compaction may retire the garbage."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        keys = [b"key%04d" % i for i in range(60)]
        for key in keys:
            db.put(key, b"old" * 100)
        db.flush_memtable()
        snap = db.get_snapshot()
        for _ in range(4):  # churn: garbage across many segments
            for key in keys:
                db.put(key, b"new" * 100)
            db.flush_memtable()
        db.compact_all()
        db.wait_idle()
        assert all(db.get(k, snapshot=snap) == b"old" * 100 for k in keys)
        assert all(db.get(k) == b"new" * 100 for k in keys)
        db.release_snapshot(snap)
        db.compact_all()
        db.wait_idle()
        assert all(db.get(k) == b"new" * 100 for k in keys)
        db.close()

    def test_mixed_small_values_stay_inline(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        db.put(b"small", b"x" * (SEP - 1))
        db.put(b"large", b"y" * SEP)
        db.flush_memtable()
        registry = db.stats_part()["registry"]
        # Exactly one record crossed the threshold.
        assert registry.value("vlog.segments") >= 1
        vl = db._vlog
        assert vl.records_written == 1
        assert db.get(b"small") == b"x" * (SEP - 1)
        assert db.get(b"large") == b"y" * SEP
        db.close()


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_write_amp_counts_vlog_bytes(self):
        """write_amp = (wal + vlog + sstable + ...) / user bytes — the
        value log's device writes must not vanish from the numerator."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        expect = _fill(db)
        db.compact_all()
        db.wait_idle()
        stats = db.stats()
        written = env.storage.stats.written_by_account
        by_account = {
            name: v for name, v in written.items() if name.startswith("db/")
        }
        vlog_bytes = sum(v for n, v in by_account.items() if "vlog" in n)
        assert vlog_bytes > 0
        assert stats.device_bytes_written == sum(by_account.values())
        assert stats.write_amplification == pytest.approx(
            stats.device_bytes_written / stats.user_bytes_written
        )
        db.close()

    def test_user_bytes_use_original_value_sizes(self):
        """Separation must not shrink the denominator: user bytes are the
        bytes the user wrote, not the pointer bytes the tree stores."""

        def user_bytes(separation):
            env = repro.Environment(cache_bytes=1 << 20)
            db = repro.open_store(
                "pebblesdb",
                env.storage,
                options=tiny_options(
                    "pebblesdb", value_separation_bytes=separation
                ),
                prefix="db/",
            )
            for i in range(50):
                db.put(b"key%04d" % i, b"v" * 400)
            total = db.stats().user_bytes_written
            db.close()
            return total

        assert user_bytes(SEP) == user_bytes(None)

    def test_large_values_write_once_and_scan_like_the_plain_tree(self):
        """At 64 KiB values the tree moves 28-byte pointers, so write amp
        collapses to <= 2.0 whatever the compaction depth (measured 1.00x
        separated, 5.13x unseparated) and a full scan is the plain
        tree's, byte for byte."""

        def run(separation):
            env = repro.Environment(cache_bytes=8 << 20)
            db = _open(
                "pebblesdb",
                env,
                memtable_bytes=256 * 1024,
                level1_max_bytes=1024 * 1024,
                target_file_bytes=512 * 1024,
                value_separation_bytes=separation,
                vlog_segment_bytes=1024 * 1024,
            )
            rng = random.Random(11)
            order = list(range(200))
            rng.shuffle(order)
            # Fill in shuffled order, then overwrite half.
            for i in order + [rng.randrange(200) for _ in range(100)]:
                db.put(b"key%04d" % i, bytes([rng.randrange(256)]) * 65536)
            db.compact_all()
            db.wait_idle()
            contents = dict(db.scan())
            write_amp = db.stats().write_amplification
            db.close()
            return write_amp, contents

        separated_amp, separated = run(256)
        plain_amp, plain = run(None)
        assert separated_amp <= 2.0 < plain_amp
        assert separated == plain


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
class TestGC:
    def _churn(self, db, rounds=5, keys=80):
        for version in range(rounds):
            for i in range(keys):
                db.put(b"key%04d" % i, (b"%d" % version) * 300)
            db.flush_memtable()
        db.compact_all()
        db.wait_idle()

    @pytest.mark.parametrize("engine", ["leveldb", "pebblesdb"])
    def test_gc_relocates_and_retires(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(engine, env)
        self._churn(db)
        vl = db._vlog
        assert vl.segments_retired > 0, "churn retired no segment"
        live = {name for name in env.storage.list_files("db/") if name.endswith(".vlg")}
        assert len(live) == len(vl.segment_numbers())
        # Every surviving value still resolves.
        for i in range(80):
            assert db.get(b"key%04d" % i) == b"4" * 300
        db.close()

    def test_gc_deterministic_across_repeats(self):
        """Same seeded workload, same schedule => identical segment state
        and identical on-disk bytes, ten times over."""
        lines, digests = set(), set()
        for _ in range(10):
            env = repro.Environment(cache_bytes=1 << 20)
            db = _open("pebblesdb", env)
            _fill(db)
            self._churn(db, rounds=3, keys=60)
            lines.add(db.get_property("repro.vlog"))
            db.close()
            digests.add(tuple(sorted(_digests(env.storage).items())))
        assert len(lines) == 1, f"GC state diverged: {lines}"
        assert len(digests) == 1, "on-disk state diverged across repeats"

    def test_dead_counters_survive_reopen(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        self._churn(db, rounds=3)
        before = (db._vlog.data_bytes(), db._vlog.dead_bytes())
        db.close()
        db2 = _open("pebblesdb", env)
        assert (db2._vlog.data_bytes(), db2._vlog.dead_bytes()) == before
        db2.close()


# ----------------------------------------------------------------------
# Separation off: byte-for-byte invisibility
# ----------------------------------------------------------------------
class TestSeparationOff:
    def test_disabled_runs_are_identical_and_vlog_free(self):
        def run():
            env = repro.Environment(cache_bytes=1 << 20)
            db = repro.open_store(
                "pebblesdb", env.storage, options=tiny_options("pebblesdb"),
                prefix="db/",
            )
            _fill(db)
            db.compact_all()
            db.wait_idle()
            db.close()
            acct = env.storage.foreground_account("digest")
            manifest = read_current(env.storage, acct, "db/")
            assert not any(
                edit.vlog_dead or edit.deleted_vlog_segments  # tags 8 and 9
                for edit in ManifestReader(env.storage, manifest).edits(acct)
            )
            return _digests(env.storage)

        a, b = run(), run()
        assert a == b
        assert not any(name.endswith(".vlg") for name in a)


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_unsynced_vlog_tail_never_serves_wrong_data(self):
        """Crash with unsynced vlog+WAL tail: recovery returns a prefix of
        acknowledged writes, never a torn value."""
        for crash_after in (1, 5, 20, 60, 119):
            env = repro.Environment(cache_bytes=1 << 20)
            db = _open("pebblesdb", env, sync_writes=True)
            model = {}
            for i in range(crash_after):
                key = b"key%03d" % (i % 40)
                value = b"v%05d" % i * 20
                db.put(key, value)
                model[key] = value
            env.storage.crash()
            db2 = _open("pebblesdb", env, sync_writes=True)
            assert dict(db2.scan()) == model, f"crash after {crash_after}"
            # Recovered store keeps working, including new separated writes.
            db2.put(b"post", b"crash" * 40)
            assert db2.get(b"post") == b"crash" * 40
            db2.close()

    def test_torn_vlog_append_burns_sequences(self):
        """A failed vlog append aborts the write, and its sequence range
        is burned so phantom records can never collide with later writes."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        db.put(b"ok", b"x" * 200)
        seq_before = db._last_sequence
        plan = FaultPlan.from_string("persistent:append:db/*.vlg:at=0:times=1")
        env.storage.set_fault_injector(FaultInjector(plan))
        with pytest.raises(repro.errors.ReproError):
            db.put(b"doomed", b"y" * 200)
        env.storage.set_fault_injector(None)
        assert db._last_sequence > seq_before, "failed write burned no sequence"
        assert db.get(b"doomed") is None
        assert db.get(b"ok") == b"x" * 200
        db.put(b"after", b"z" * 200)
        assert db.get(b"after") == b"z" * 200
        db.close()
        db2 = _open("pebblesdb", env)
        state = dict(db2.scan())
        assert state[b"ok"] == b"x" * 200 and state[b"after"] == b"z" * 200
        assert b"doomed" not in state
        db2.close()

    def test_replay_rejects_pointers_when_separation_disabled(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env, sync_writes=True)
        db.put(b"big", b"x" * 500)
        env.storage.crash()
        with pytest.raises(CorruptionError):
            repro.open_store(
                "pebblesdb", env.storage, options=tiny_options("pebblesdb"),
                prefix="db/",
            )

    def test_batch_with_torn_pointer_drops_whole(self):
        """Unsynced batch whose vlog bytes were lost: the batch vanishes
        atomically (no half-applied small keys)."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)  # sync_writes off: tail is losable
        db.write_batch([(KIND_PUT, b"base", b"b" * 200)], sync=True)
        db.write_batch(
            [
                (KIND_PUT, b"small", b"s"),
                (KIND_PUT, b"large", b"L" * 400),
            ]
        )
        env.storage.crash()
        db2 = _open("pebblesdb", env)
        state = dict(db2.scan())
        applied = state == {b"base": b"b" * 200, b"small": b"s", b"large": b"L" * 400}
        dropped = state == {b"base": b"b" * 200}
        assert applied or dropped, f"partial batch visible: {state}"
        db2.close()


# ----------------------------------------------------------------------
# Value log x faults: the failure paths of the log itself
# ----------------------------------------------------------------------
class TestFaults:
    @staticmethod
    def _overwrite(db, model, version, step=1, suffix=b""):
        for i in range(0, 80, step):
            key, value = b"key%04d" % i + suffix, (b"%d" % version) * 300
            db.put(key, value)
            model[key] = value
        db.flush_memtable()

    @staticmethod
    def _check(db, model):
        assert dict(db.scan()) == model
        db.check_invariants()

    @pytest.mark.parametrize("engine", ["leveldb", "pebblesdb"])
    def test_a_faulted_relocating_compaction_abandons_its_copies(self, engine, monkeypatch):
        """An ``*.sst`` append fault after a compaction relocated cold
        records: the retry starts afresh, the abandoned copies count as
        dead, and the segment holding them still retires once overwritten."""
        from repro.vlog.log import VlogCompactionContext

        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(engine, env)
        relocate, abandon = VlogCompactionContext.rewrite, VlogCompactionContext.abandon
        abandoned = []

        def rewrite(ctx, stream):
            for entry in relocate(ctx, stream):
                if ctx._appended and env.storage.faults is None and not abandoned:
                    plan = FaultPlan.from_string("transient:append:db/*.sst:at=0")
                    env.storage.set_fault_injector(FaultInjector(plan))
                yield entry

        def spy(ctx):
            abandoned.extend(ctx._appended)
            abandon(ctx)

        monkeypatch.setattr(VlogCompactionContext, "rewrite", rewrite)
        monkeypatch.setattr(VlogCompactionContext, "abandon", spy)
        model = {}
        # Half the keys overwritten: segments turn cold, not fully dead;
        # fresh keys in the same range then make compactions rewrite the
        # survivors' pointers.
        self._overwrite(db, model, 0)
        for version in range(1, 8):
            self._overwrite(db, model, version, step=2)
        for round_no in range(4):
            if abandoned:
                break
            self._overwrite(db, model, round_no, suffix=b"-%d" % round_no)
            db.compact_all()
            db.wait_idle()
        assert abandoned, "no relocating compaction was faulted"
        assert not db.is_degraded
        self._check(db, model)
        holding = {pointer.segment for pointer in abandoned}
        retired = db._vlog.segments_retired
        for version in range(8, 14):
            for suffix in [b""] + [b"-%d" % r for r in range(round_no + 1)]:
                self._overwrite(db, model, version, suffix=suffix)
        db.compact_all()
        db.wait_idle()
        assert db._vlog.segments_retired > retired
        assert not holding & set(db._vlog.segment_numbers())
        self._check(db, model)
        db.close()
        self._check(_open(engine, env), model)

    @pytest.mark.parametrize("kind", ["transient", "persistent"])
    @pytest.mark.parametrize("engine", ["leveldb", "pebblesdb"])
    def test_a_vlog_sync_fault_in_a_compaction_apply_settles_the_job(
        self, engine, kind, monkeypatch
    ):
        """A ``sync`` fault on the value log while a relocating compaction
        applies: a transient one is retried, a persistent one degrades the
        store with the edit queued.  Either way the job settles (nothing
        stays busy), no fault reaches the foreground call, and the store
        holds its data through ``resume()`` and a reopen."""
        from repro.vlog.log import VlogCompactionContext

        env = repro.Environment(cache_bytes=1 << 20)
        db = _open(engine, env)
        commit = VlogCompactionContext.commit
        armed, faulted = [], []

        def faulting_commit(ctx, edit, *args):
            if armed and ctx._appended and not faulted:
                faulted.append(ctx)
                plan = FaultPlan.from_string(kind + ":sync:db/*.vlg:at=0")
                env.storage.set_fault_injector(FaultInjector(plan))
            return commit(ctx, edit, *args)

        monkeypatch.setattr(VlogCompactionContext, "commit", faulting_commit)
        model = {}
        self._overwrite(db, model, 0)
        for version in range(1, 8):
            self._overwrite(db, model, version, step=2)
        for round_no in range(4):
            if faulted:
                break
            self._overwrite(db, model, round_no, suffix=b"-%d" % round_no)
            armed.append(round_no)  # only jobs applied by the calls below
            db.compact_all()
            db.wait_idle()
            armed.clear()
        assert faulted, "no relocating compaction reached its apply"
        assert env.storage.faults.stats.faults_injected == 1
        env.storage.set_fault_injector(None)
        assert db.is_degraded == (kind == "persistent")
        if kind == "persistent":
            assert db.resume()
        db.wait_idle()
        assert not db._busy
        self._check(db, model)
        db.close()
        self._check(_open(engine, env), model)

    def test_a_torn_vlog_append_counts_its_bytes_dead(self):
        """The torn bytes are data of their segment and dead at once, so
        the segment still retires when every record in it is overwritten."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        model = {}
        self._overwrite(db, model, 0)
        segment = db._vlog.active_segment
        plan = FaultPlan.from_string("transient:append:db/*.vlg:at=0:torn=0.5")
        env.storage.set_fault_injector(FaultInjector(plan))
        with pytest.raises(repro.errors.StorageError):
            db.put(b"torn", b"t" * 300)
        env.storage.set_fault_injector(None)
        assert 0 < db._vlog._stray_dead[segment] < 300
        for version in range(1, 5):
            self._overwrite(db, model, version)
        assert segment not in db._vlog.segment_numbers()
        self._check(db, model)
        db.close()
        self._check(_open("pebblesdb", env), model)

    def test_strict_recovery_fails_on_a_damaged_synced_record(self):
        """With ``sync_writes`` every pointer a replayed WAL batch carries
        leads into the synced region of its segment, so a damaged record
        there is lost acknowledged data and reopening fails loudly; with
        the damage undone the same files recover every write."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env, sync_writes=True)
        model = {}
        for i in range(20):
            key, value = b"key%04d" % i, b"%02d" % i * 100
            db.put(key, value)
            model[key] = value
        env.storage.crash()
        segment = min(n for n in env.storage.list_files("db/") if n.endswith(".vlg"))
        damaged = env.storage._files[segment].mutable()
        damaged[len(damaged) // 2] ^= 0x01
        with pytest.raises(CorruptionError, match="synced region"):
            _open("pebblesdb", env, sync_writes=True)
        damaged[len(damaged) // 2] ^= 0x01
        self._check(_open("pebblesdb", env, sync_writes=True), model)


# ----------------------------------------------------------------------
# Tools
# ----------------------------------------------------------------------
class TestTools:
    def test_backup_restore_covers_segments(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env)
        expect = _fill(db)
        db.flush_memtable()
        db.wait_idle()
        report = create_backup(env.storage, "db/", "bak/")
        assert any(name.endswith(".vlg") for name in report.names)
        restore_backup(env.storage, "bak/", "restored/")
        db2 = repro.open_store(
            "pebblesdb", env.storage, options=_options("pebblesdb"),
            prefix="restored/",
        )
        assert dict(db2.scan()) == expect
        db2.close()
        db.close()

    def test_repair_rebuilds_separated_store(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = _open("pebblesdb", env, sync_writes=True)
        expect = _fill(db, n=150)
        db.flush_memtable()
        db.wait_idle()
        db.close()
        # Lose the metadata; the data files survive.
        for name in list(env.storage.list_files("db/")):
            base = name[len("db/"):]
            if base.startswith("MANIFEST-") or base == "CURRENT":
                env.storage.delete(name)
        report = repair_store(env.storage, "db/")
        assert report.tables_corrupt == 0
        db2 = _open("pebblesdb", env)
        assert dict(db2.scan()) == expect
        # Allocator must not re-use surviving segment numbers.
        db2.put(b"fresh", b"f" * 300)
        db2.flush_memtable()
        assert db2.get(b"fresh") == b"f" * 300
        db2.close()
