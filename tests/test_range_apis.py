"""compact_range and approximate_size (LevelDB management APIs)."""

import random

import pytest

import repro
from repro.errors import InvalidArgumentError
from tests.conftest import make_store


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=1 << 20)


def fill_two_regions(db, n_each=800):
    model = {}
    rng = random.Random(13)
    for i in range(n_each):
        k = b"aa%06d" % rng.randrange(10**5)
        v = b"v" * 64
        db.put(k, v)
        model[k] = v
    for i in range(n_each):
        k = b"zz%06d" % rng.randrange(10**5)
        v = b"w" * 64
        db.put(k, v)
        model[k] = v
    return model


class TestApproximateSize:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_regions_sized_separately(self, engine, env):
        db = make_store(engine, env)
        fill_two_regions(db)
        db.flush_memtable()
        db.wait_idle()
        size_a = db.approximate_size(b"aa", b"ab")
        size_z = db.approximate_size(b"zz", b"z{")
        size_none = db.approximate_size(b"mm", b"nn")
        total = db.approximate_size(b"\x00", b"\xff")
        assert size_a > 0 and size_z > 0
        assert size_none < min(size_a, size_z)
        assert total >= max(size_a, size_z)
        # The two halves roughly partition the total.
        assert 0.3 < size_a / total < 0.8

    def test_empty_store(self, env):
        db = make_store("pebblesdb", env)
        assert db.approximate_size(b"a", b"z") == 0

    def test_bad_range_rejected(self, env):
        db = make_store("pebblesdb", env)
        with pytest.raises(InvalidArgumentError):
            db.approximate_size(b"z", b"a")


class TestCompactRange:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_range_data_preserved(self, engine, env):
        db = make_store(engine, env)
        model = fill_two_regions(db)
        db.compact_range(b"aa", b"ab")
        db.check_invariants()
        assert dict(db.scan()) == model

    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_range_tombstones_collected(self, engine, env):
        db = make_store(engine, env)
        model = fill_two_regions(db)
        for k in [key for key in model if key.startswith(b"aa")]:
            db.delete(k)
            del model[k]
        before = db.approximate_size(b"aa", b"ab")
        db.compact_range(b"aa", b"ab")
        db.compact_range(b"aa", b"ab")  # second pass reaches the bottom
        after = db.approximate_size(b"aa", b"ab")
        assert after < before
        assert dict(db.scan()) == model
        db.check_invariants()

    def test_compact_range_leaves_other_region_shallow(self, env):
        """Targeted compaction must not disturb unrelated key ranges."""
        db = make_store("hyperleveldb", env)
        fill_two_regions(db)
        db.flush_memtable()
        db.wait_idle()
        files_z_before = [
            f.number for f in db.live_files() if f.smallest.user_key >= b"zz"
        ]
        db.compact_range(b"aa", b"ab")
        files_z_after = [
            f.number for f in db.live_files() if f.smallest.user_key >= b"zz"
        ]
        # Some zz-region files may ride along via Level-0 overlap, but the
        # bulk of the region must be untouched.
        survivors = set(files_z_before) & set(files_z_after)
        assert len(survivors) >= len(files_z_before) // 2


class TestForceFullCompaction:
    def test_fully_deleted_store_compacts_to_nothing(self, lsm_engine, env):
        """Level 0 drains even below its trigger: three flushed files of
        puts and their tombstones leave no sstable behind."""
        db = make_store(lsm_engine, env)
        keys = [b"key%04d" % i for i in range(60)]
        for key in keys:
            db.put(key, b"v" * 64)
        db.flush_memtable()
        for key in keys:
            db.delete(key)
        db.flush_memtable()
        assert 0 < db.files_per_level()[0] < db.options.level0_compaction_trigger
        db.force_full_compaction()
        assert sum(db.files_per_level()) == 0
        assert list(db.scan()) == []
        db.check_invariants()
