"""Edge cases and adversarial inputs across engines."""

import pytest

import repro
from repro.errors import InvalidArgumentError
from repro.util.keys import KIND_PUT
from tests.conftest import ALL_ENGINES, LSM_ENGINES, make_store


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=1 << 20)


class TestInputValidation:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_empty_key_rejected_everywhere(self, engine, env):
        db = make_store(engine, env)
        with pytest.raises(InvalidArgumentError):
            db.put(b"", b"v")
        with pytest.raises(InvalidArgumentError):
            db.get(b"")

    @pytest.mark.parametrize("bad", [5, "k", None, 1.5, [b"k"]], ids=repr)
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_non_bytes_key_rejected_not_coerced(self, engine, bad, env):
        # ``bytes(5)`` is five zero bytes: a type must be checked before
        # it is coerced, or ``put(5, ...)`` stores a key nobody wrote.
        db = make_store(engine, env)
        with pytest.raises(InvalidArgumentError):
            db.put(bad, b"v")
        with pytest.raises(InvalidArgumentError):
            db.delete(bad)
        with pytest.raises(InvalidArgumentError):
            db.write_batch([(KIND_PUT, b"ok", b"v"), (KIND_PUT, bad, b"v")])
        with pytest.raises(InvalidArgumentError):
            db.get(bad)
        if engine in LSM_ENGINES:  # where a batch is atomic, it was refused whole
            assert db.get(b"ok") is None

    @pytest.mark.parametrize("bad", [3, "v", None, 1.5], ids=repr)
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_non_bytes_value_rejected_not_coerced(self, engine, bad, env):
        db = make_store(engine, env)
        with pytest.raises(InvalidArgumentError):
            db.put(b"k", bad)
        with pytest.raises(InvalidArgumentError):
            db.write_batch([(KIND_PUT, b"ok", b"v"), (KIND_PUT, b"k", bad)])
        assert db.get(b"k") is None
        if engine in LSM_ENGINES:
            assert db.get(b"ok") is None

    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_memoryview_inputs_coerced(self, engine, env):
        db = make_store(engine, env)
        db.write_batch([(KIND_PUT, memoryview(b"kv"), memoryview(b"value"))])
        assert db.get(b"kv") == b"value"

    def test_empty_value_allowed(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"k", b"")
        assert db.get(b"k") == b""

    def test_bytearray_inputs_coerced(self, env):
        db = make_store("pebblesdb", env)
        db.put(bytearray(b"k"), bytearray(b"v"))
        assert db.get(b"k") == b"v"


class TestExtremeValues:
    def test_large_values_cross_many_blocks(self, env):
        db = make_store("pebblesdb", env)
        big = bytes(range(256)) * 256  # 64 KiB value, bigger than memtable
        db.put(b"big", big)
        db.put(b"after", b"x")
        db.flush_memtable()
        assert db.get(b"big") == big

    def test_binary_keys_with_zero_and_ff(self, env):
        db = make_store("pebblesdb", env)
        keys = [b"\x00", b"\x00\x00", b"\xff", b"\xff\xff", b"\x00\xff", b"a\x00b"]
        for i, k in enumerate(keys):
            db.put(k, b"%d" % i)
        db.flush_memtable()
        for i, k in enumerate(keys):
            assert db.get(k) == b"%d" % i
        assert [k for k, _ in db.scan()] == sorted(keys)

    def test_many_versions_of_one_key(self, env):
        db = make_store("pebblesdb", env)
        for i in range(3000):
            db.put(b"hot", b"v%06d" % i)
        db.compact_all()
        assert db.get(b"hot") == b"v002999"
        # After full compaction only the newest version occupies space.
        assert sum(db.level_sizes()) < 64 * 1024

    def test_delete_nonexistent_key(self, env):
        db = make_store("pebblesdb", env)
        db.delete(b"ghost")  # must not raise
        assert db.get(b"ghost") is None

    def test_delete_then_reinsert(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"k", b"v1")
        db.delete(b"k")
        db.put(b"k", b"v2")
        db.compact_all()
        assert db.get(b"k") == b"v2"


class TestIterators:
    def test_seek_past_end(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"a", b"1")
        it = db.seek(b"zzz")
        assert not it.valid
        it.close()

    def test_seek_on_empty_store(self, env):
        db = make_store("pebblesdb", env)
        it = db.seek(b"a")
        assert not it.valid
        it.close()

    def test_exhausted_iterator_raises_on_key(self, env):
        db = make_store("pebblesdb", env)
        it = db.seek(b"a")
        with pytest.raises(InvalidArgumentError):
            it.key()
        it.close()

    def test_iterator_context_manager(self, env):
        db = make_store("pebblesdb", env)
        db.put(b"a", b"1")
        with db.seek(b"a") as it:
            assert it.key() == b"a"

    def test_abandoned_iterators_dont_leak_read_pins(self, env):
        db = make_store("pebblesdb", env)
        for i in range(1500):
            db.put(b"k%05d" % i, b"v" * 64)
        db.flush_memtable()
        for i in range(50):
            it = db.seek(b"k%05d" % (i * 10))
            it.next()
            it.close()
        db.compact_all()
        # All retired files must actually be deleted once pins drop.
        assert not db._read_pins and not db._retired_files
        db.check_invariants()

    def test_range_query_with_limit(self, env):
        db = make_store("pebblesdb", env)
        for i in range(100):
            db.put(b"k%03d" % i, b"v")
        rows = db.range_query(b"k000", b"k099", limit=7)
        assert len(rows) == 7


class TestMultiStoreSharedDevice:
    def test_two_stores_isolated_namespaces(self, env):
        a = repro.open_store("pebblesdb", env.storage, prefix="a/")
        b = repro.open_store("hyperleveldb", env.storage, prefix="b/")
        a.put(b"k", b"from-a")
        b.put(b"k", b"from-b")
        assert a.get(b"k") == b"from-a"
        assert b.get(b"k") == b"from-b"

    def test_io_accounting_separated(self, env):
        a = repro.open_store("pebblesdb", env.storage, prefix="a/")
        b = repro.open_store("pebblesdb", env.storage, prefix="b/")
        creation_footprint = b.stats().device_bytes_written  # MANIFEST etc.
        for i in range(300):
            a.put(b"k%04d" % i, b"v" * 100)
        assert a.stats().device_bytes_written > 300 * 100
        assert b.stats().device_bytes_written == creation_footprint


class TestStallBehaviour:
    def test_leveldb_stalls_more_than_hyperleveldb(self):
        stalls = {}
        for engine in ("leveldb", "hyperleveldb"):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store(engine, env)
            for i in range(4000):
                db.put(b"k%09d" % ((i * 2654435761) % 10**9), b"v" * 128)
            stalls[engine] = db.stats().stall_seconds
        assert stalls["leveldb"] > stalls["hyperleveldb"]

    def test_write_stall_time_counted(self, env):
        db = make_store("leveldb", env)
        for i in range(4000):
            db.put(b"k%09d" % ((i * 2654435761) % 10**9), b"v" * 128)
        assert db.stats().stall_seconds > 0


class TestSequenceSemantics:
    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_monotonic_sequence(self, engine, env):
        db = make_store(engine, env)
        seqs = []
        for i in range(10):
            db.put(b"k", b"%d" % i)
            seqs.append(db.last_sequence)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_write_batch_is_atomic_in_sequence(self, env):
        from repro.util.keys import KIND_PUT

        db = make_store("pebblesdb", env)
        before = db.last_sequence
        db.write_batch([(KIND_PUT, b"a", b"1"), (KIND_PUT, b"b", b"2")])
        assert db.last_sequence == before + 2


class TestIteratorConsistency:
    def test_iterator_is_snapshot_consistent(self, env):
        """An open iterator never observes writes issued after seek() —
        LevelDB iterator semantics, enforced by sequence filtering."""
        db = make_store("pebblesdb", env)
        for i in range(200):
            db.put(b"k%04d" % (2 * i), b"orig")
        it = db.seek(b"k0000")
        seen = []
        step = 0
        while it.valid:
            seen.append((it.key(), it.value()))
            # Interleave writes that land inside the unvisited range.
            db.put(b"k%04d" % (2 * step + 1), b"late")
            db.put(seen[-1][0], b"overwritten")
            it.next()
            step += 1
        it.close()
        assert len(seen) == 200
        assert all(v == b"orig" for _, v in seen)

    def test_reverse_iterator_snapshot_consistent(self, env):
        db = make_store("pebblesdb", env)
        for i in range(100):
            db.put(b"k%03d" % i, b"orig")
        it = db.seek_reverse(b"k099")
        count = 0
        while it.valid:
            assert it.value() == b"orig"
            db.put(it.key(), b"mutated")
            db.delete(b"k%03d" % (count % 100))
            it.next()
            count += 1
        it.close()
        assert count == 100
