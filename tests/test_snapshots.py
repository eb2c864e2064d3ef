"""Snapshots: consistent read views pinned against compaction."""

import random

import pytest

import repro
from repro.errors import InvalidArgumentError
from tests.conftest import LSM_ENGINES, make_store


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=1 << 20)


class TestSnapshotReads:
    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_snapshot_sees_frozen_state(self, engine, env):
        db = make_store(engine, env)
        db.put(b"k", b"v1")
        snap = db.get_snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        assert db.get(b"k", snapshot=snap) == b"v1"
        db.release_snapshot(snap)

    def test_snapshot_hides_later_inserts_and_deletes(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"a", b"1")
        snap = db.get_snapshot()
        db.put(b"b", b"2")
        db.delete(b"a")
        assert db.get(b"a", snapshot=snap) == b"1"
        assert db.get(b"b", snapshot=snap) is None
        assert db.get(b"a") is None

    def test_snapshot_scan(self, env):
        db = make_store("pebblesdb", env)
        for i in range(10):
            db.put(b"k%02d" % i, b"old")
        snap = db.get_snapshot()
        for i in range(5, 15):
            db.put(b"k%02d" % i, b"new")
        frozen = dict(db.scan(snapshot=snap))
        assert len(frozen) == 10
        assert all(v == b"old" for v in frozen.values())
        live = dict(db.scan())
        assert live[b"k07"] == b"new" and len(live) == 15

    def test_seek_with_snapshot(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"a", b"1")
        snap = db.get_snapshot()
        db.put(b"aa", b"2")
        it = db.seek(b"a", snapshot=snap)
        assert it.key() == b"a"
        assert not it.next()
        it.close()


class TestSnapshotVsCompaction:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_versions_survive_full_compaction(self, engine, env):
        db = make_store(engine, env)
        rng = random.Random(1)
        keys = [b"key%05d" % rng.randrange(4000) for _ in range(1200)]
        for i, k in enumerate(keys):
            db.put(k, b"old%05d" % i)
        snap = db.get_snapshot()
        frozen = dict(db.scan(snapshot=snap))
        for i, k in enumerate(keys):
            db.put(k, b"new%05d" % i)
        db.force_full_compaction()
        db.check_invariants()
        assert dict(db.scan(snapshot=snap)) == frozen
        # Live reads see the new values.
        live = dict(db.scan())
        assert all(v.startswith(b"new") for v in live.values())
        db.release_snapshot(snap)

    def test_snapshot_pins_deleted_keys_through_compaction(self, env):
        db = make_store("pebblesdb", env)
        for i in range(500):
            db.put(b"k%04d" % i, b"v%04d" % i)
        snap = db.get_snapshot()
        for i in range(500):
            db.delete(b"k%04d" % i)
        db.force_full_compaction()
        assert db.get(b"k0123") is None
        assert db.get(b"k0123", snapshot=snap) == b"v0123"
        assert len(dict(db.scan(snapshot=snap))) == 500
        db.release_snapshot(snap)

    def test_release_allows_garbage_collection(self, env):
        db = make_store("pebblesdb", env)
        for i in range(800):
            db.put(b"k%04d" % i, b"x" * 64)
        snap = db.get_snapshot()
        for i in range(800):
            db.delete(b"k%04d" % i)
        db.force_full_compaction()
        pinned = sum(db.level_sizes())
        db.release_snapshot(snap)
        db.force_full_compaction()
        assert sum(db.level_sizes()) < pinned
        assert list(db.scan()) == []

    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_reads_through_a_released_snapshot_raise(self, engine, env):
        """Compaction may drop what only a released snapshot could see, so
        a read through it would answer with a state that never existed."""
        db = make_store(engine, env)
        db.put(b"k", b"v1")
        snap = db.get_snapshot()
        db.put(b"k", b"v2")
        db.release_snapshot(snap)
        for i in range(2000):
            db.put(b"f%05d" % i, b"x" * 100)
        db.compact_all()
        reads = (
            lambda: db.get(b"k", snap),
            lambda: db.seek(b"k", snap),
            lambda: db.seek_reverse(b"k", snap),
            lambda: db.scan(b"k", snap),
            lambda: db.scan_reverse(b"k", snap),
        )
        for read in reads:
            with pytest.raises(InvalidArgumentError, match="released"):
                read()
        assert db.get(b"k") == b"v2"

    def test_double_release_harmless(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"k", b"v")
        snap = db.get_snapshot()
        db.release_snapshot(snap)
        db.release_snapshot(snap)

    def test_multiple_snapshots_layered(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"k", b"v1")
        s1 = db.get_snapshot()
        db.put(b"k", b"v2")
        s2 = db.get_snapshot()
        db.put(b"k", b"v3")
        db.force_full_compaction()
        assert db.get(b"k", snapshot=s1) == b"v1"
        assert db.get(b"k", snapshot=s2) == b"v2"
        assert db.get(b"k") == b"v3"
        db.release_snapshot(s1)
        db.force_full_compaction()
        assert db.get(b"k", snapshot=s2) == b"v2"
        db.release_snapshot(s2)
