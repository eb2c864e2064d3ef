"""Leveled LSM engine: operations, compaction behaviour, invariants."""

import random

import pytest

import repro
from tests.conftest import make_store, tiny_options


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=2 * 1024 * 1024)


def fill(db, n, value_size=64, seed=0, prefix=b"key"):
    rng = random.Random(seed)
    model = {}
    for i in range(n):
        k = prefix + b"%09d" % rng.randrange(10**8)
        v = b"v%04d" % i + b"x" * value_size
        db.put(k, v)
        model[k] = v
    return model


class TestBasicOps:
    def test_put_get_delete(self, env):
        db = make_store("hyperleveldb", env)
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_overwrite_returns_latest(self, env):
        db = make_store("hyperleveldb", env)
        for i in range(10):
            db.put(b"k", b"v%d" % i)
        assert db.get(b"k") == b"v9"

    def test_get_missing(self, env):
        db = make_store("hyperleveldb", env)
        assert db.get(b"nothing") is None

    def test_empty_key_rejected(self, env):
        db = make_store("hyperleveldb", env)
        with pytest.raises(repro.engines.base.InvalidArgumentError):
            db.put(b"", b"v")

    def test_write_batch_applies_all(self, env):
        from repro.util.keys import KIND_DELETE, KIND_PUT

        db = make_store("hyperleveldb", env)
        db.put(b"gone", b"x")
        db.write_batch([(KIND_PUT, b"a", b"1"), (KIND_DELETE, b"gone", b"")])
        assert db.get(b"a") == b"1"
        assert db.get(b"gone") is None

    def test_closed_store_rejects_ops(self, env):
        db = make_store("hyperleveldb", env)
        db.close()
        with pytest.raises(repro.errors.StoreClosedError):
            db.put(b"k", b"v")


class TestPersistence:
    def test_data_survives_flush_and_compaction(self, env):
        db = make_store("leveldb", env)
        model = fill(db, 2000, seed=1)
        db.compact_all()
        db.check_invariants()
        for k in random.Random(2).sample(list(model), 100):
            assert db.get(k) == model[k]

    def test_deletes_survive_compaction(self, env):
        db = make_store("hyperleveldb", env)
        model = fill(db, 1500, seed=3)
        doomed = random.Random(4).sample(list(model), 200)
        for k in doomed:
            db.delete(k)
            del model[k]
        db.compact_all()
        for k in doomed[:50]:
            assert db.get(k) is None
        for k in random.Random(5).sample(list(model), 50):
            assert db.get(k) == model[k]

    def test_tombstones_garbage_collected_at_bottom(self, env):
        db = make_store("hyperleveldb", env)
        model = fill(db, 1000, seed=6)
        for k in list(model):
            db.delete(k)
        db.force_full_compaction()
        # After full compaction of an all-deleted dataset, nearly all
        # data should be gone from storage.
        assert sum(db.level_sizes()) < 20 * 1024
        assert list(db.scan()) == []


class TestIterators:
    def test_scan_sorted_and_complete(self, env):
        db = make_store("hyperleveldb", env)
        model = fill(db, 1200, seed=7)
        got = list(db.scan())
        assert [k for k, _ in got] == sorted(model)
        assert dict(got) == model

    def test_seek_positions_correctly(self, env):
        db = make_store("hyperleveldb", env)
        for i in range(100):
            db.put(b"k%04d" % (i * 2), b"v")
        it = db.seek(b"k0051")
        assert it.key() == b"k0052"
        it.next()
        assert it.key() == b"k0054"
        it.close()

    def test_range_query_inclusive(self, env):
        db = make_store("hyperleveldb", env)
        for i in range(20):
            db.put(b"k%02d" % i, b"%d" % i)
        rows = db.range_query(b"k05", b"k08")
        assert [k for k, _ in rows] == [b"k05", b"k06", b"k07", b"k08"]

    def test_scan_skips_tombstones(self, env):
        db = make_store("hyperleveldb", env)
        for i in range(50):
            db.put(b"k%02d" % i, b"v")
        for i in range(0, 50, 2):
            db.delete(b"k%02d" % i)
        keys = [k for k, _ in db.scan()]
        assert keys == [b"k%02d" % i for i in range(1, 50, 2)]

    def test_iterator_stable_across_interleaved_writes(self, env):
        db = make_store("hyperleveldb", env)
        fill(db, 800, seed=8, prefix=b"a")
        it = db.seek(b"a")
        seen = 0
        prev = None
        while it.valid and seen < 400:
            key = it.key()
            assert prev is None or key > prev
            prev = key
            # Interleave writes that trigger flushes/compactions.
            db.put(b"zz%05d" % seen, b"w" * 64)
            it.next()
            seen += 1
        it.close()
        db.check_invariants()


class TestCompactionMechanics:
    def test_levels_fill_downward(self, env):
        db = make_store("hyperleveldb", env)
        fill(db, 3000, seed=9)
        db.wait_idle()
        sizes = db.level_sizes()
        assert sum(sizes[1:]) > 0, "data never left level 0"
        db.check_invariants()

    def test_disjoint_invariant_below_level0(self, env):
        db = make_store("leveldb", env)
        fill(db, 2500, seed=10)
        db.wait_idle()
        db.check_invariants()  # asserts per-level disjointness

    def test_trivial_move_on_sequential_load(self, env):
        db = make_store("hyperleveldb", env)
        for i in range(3000):
            db.put(b"seq%08d" % i, b"v" * 64)
        db.wait_idle()
        stats = db.stats()
        # Sequential fill should cost close to 2x user bytes (WAL+flush):
        # compaction moves files without rewriting.
        assert stats.write_amplification < 3.0

    def test_random_load_amplification_higher_than_sequential(self, env):
        env_a = repro.Environment(cache_bytes=2 * 1024 * 1024)
        env_b = repro.Environment(cache_bytes=2 * 1024 * 1024)
        db_seq = make_store("hyperleveldb", env_a)
        db_rand = make_store("hyperleveldb", env_b)
        for i in range(2500):
            db_seq.put(b"seq%08d" % i, b"v" * 64)
        fill(db_rand, 2500, seed=11)
        db_seq.wait_idle()
        db_rand.wait_idle()
        assert (
            db_rand.stats().write_amplification
            > db_seq.stats().write_amplification
        )

    def test_compaction_trace_records_rewrites(self, env):
        db = make_store("leveldb", env)
        db.compaction_trace = []
        fill(db, 2000, seed=12)
        db.wait_idle()
        assert db.compaction_trace, "no compactions traced"
        level, inputs, outputs, written = db.compaction_trace[0]
        assert inputs and written >= 0

    def test_rocksdb_preset_writes_more_than_hyperleveldb(self):
        results = {}
        for preset in ("rocksdb", "hyperleveldb"):
            env = repro.Environment(cache_bytes=2 * 1024 * 1024)
            db = make_store(preset, env)
            fill(db, 2500, seed=13)
            db.wait_idle()
            results[preset] = db.stats().write_amplification
        assert results["rocksdb"] > results["hyperleveldb"]


class TestStats:
    def test_counters(self, env):
        db = make_store("hyperleveldb", env)
        db.put(b"a", b"1")
        db.get(b"a")
        db.get(b"b")
        db.delete(b"a")
        it = db.seek(b"a")
        it.close()
        s = db.stats()
        assert (s.puts, s.gets, s.deletes, s.seeks) == (1, 2, 1, 1)
        assert s.user_bytes_written == 3  # a+1 then a (delete counts key)

    def test_write_amplification_at_least_wal_plus_flush(self, env):
        db = make_store("hyperleveldb", env)
        fill(db, 1500, seed=14)
        db.flush_memtable()
        s = db.stats()
        assert s.write_amplification > 1.5

    def test_memory_accounting_positive(self, env):
        db = make_store("hyperleveldb", env)
        fill(db, 500, seed=15)
        assert db.stats().memory_bytes > 0


class TestLifetime:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_a_closed_store_goes_with_its_last_reference(self, engine):
        """No flush or compaction job keeps its store in a reference
        cycle: without the cyclic collector a dropped store is freed at
        once, not at the next collection."""
        import gc
        import weakref

        env = repro.Environment()
        db = make_store(engine, env)
        gc.disable()
        try:
            fill(db, 3000, seed=7)
            db.flush_memtable()
            db.wait_idle()
            db.close()
            gone = weakref.ref(db)
            del db
            assert gone() is None
        finally:
            gc.enable()
