"""Corruption robustness: flipped bits must be detected, never served."""

import random

import pytest

import repro
from repro.errors import CorruptionError
from repro.sstable import SSTableReader
from tests.conftest import make_store


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=1 << 20)


def _loaded(env, n=1200):
    db = make_store("pebblesdb", env, sync_writes=True)
    rng = random.Random(31)
    model = {}
    for i in range(n):
        k = b"key%06d" % rng.randrange(10**5)
        v = b"v%05d" % i
        db.put(k, v)
        model[k] = v
    db.flush_memtable()
    db.wait_idle()
    return db, model


def _flip(storage, name, offset):
    acct = storage.foreground_account()
    byte = storage.read(name, offset, 1, acct)
    storage.write_at(name, offset, bytes([byte[0] ^ 0x5A]), acct)


class TestSstableCorruption:
    def test_data_block_flip_detected_on_read(self, env):
        db, model = _loaded(env)
        tables = [n for n in env.storage.list_files("db/") if n.endswith(".sst")]
        victim = tables[0]
        # Flip a byte early in the file: inside some data block.
        _flip(env.storage, victim, 10)
        env.storage.cache.clear()
        db._table_cache.clear()
        detected = 0
        for k in list(model)[:300]:
            try:
                db.get(k)
            except CorruptionError:
                detected += 1
        assert detected > 0, "corrupted block served without detection"

    def test_scan_raises_not_garbage(self, env):
        db, model = _loaded(env)
        tables = [n for n in env.storage.list_files("db/") if n.endswith(".sst")]
        _flip(env.storage, tables[0], 25)
        env.storage.cache.clear()
        db._table_cache.clear()
        with pytest.raises(CorruptionError):
            for key, value in db.scan():
                assert key in model  # anything yielded must still be valid

    def test_damaged_filter_block_fails_the_gets_that_need_it(self, env):
        """A reopened store fetches a file's filter the first time a get
        consults the file.  A block that does not decode is corruption:
        the get raises and adopts nothing, so the next one raises too
        (as a table open that failed on the block used to); a scan never
        reads the block; with the bytes back, the same store answers."""
        db, model = _loaded(env)
        db.close()
        db = make_store("pebblesdb", env, sync_writes=True)
        acct = env.storage.foreground_account()
        saved = {}
        for meta in db.live_files():
            name = db._sst_name(meta.number)
            offset = SSTableReader.open(env.storage, name, acct)._footer.filter_offset
            saved[name] = (offset, env.storage.read(name, offset, 4, acct))
            env.storage.write_at(name, offset, b"junk", acct)
        key = next(iter(model))
        for _ in range(2):
            with pytest.raises(CorruptionError, match="bloom filter"):
                db.get(key)
        assert all(meta.bloom is None for meta in db.live_files())
        assert dict(db.scan()) == model
        for name, (offset, magic) in saved.items():
            env.storage.write_at(name, offset, magic, acct)
        assert all(db.get(k) == v for k, v in model.items())
        assert any(meta.bloom is not None for meta in db.live_files())
        db.check_invariants()
        db.close()

    def test_random_flips_never_return_wrong_values(self, env):
        """Fuzz: any single flipped byte either leaves reads correct
        (metadata slack / untouched region) or raises CorruptionError —
        silent wrong answers are unacceptable."""
        db, model = _loaded(env, n=600)
        tables = [n for n in env.storage.list_files("db/") if n.endswith(".sst")]
        rng = random.Random(7)
        probes = rng.sample(list(model), 60)
        for trial in range(12):
            victim = rng.choice(tables)
            size = env.storage.size(victim)
            offset = rng.randrange(size)
            _flip(env.storage, victim, offset)
            env.storage.cache.clear()
            db._table_cache.clear()
            for k in probes:
                try:
                    got = db.get(k)
                except CorruptionError:
                    continue
                assert got is None or got == model[k], (
                    f"silent corruption: {k} -> {got!r} (flip at "
                    f"{victim}:{offset})"
                )
            _flip(env.storage, victim, offset)  # restore

    def test_wal_corruption_below_sync_boundary_raises(self, env):
        """With sync_writes=True every record was acknowledged durable, so
        damage below the synced boundary is data loss and recovery refuses
        to silently truncate (strict mode follows sync_writes)."""
        db = make_store("pebblesdb", env, sync_writes=True)
        for i in range(30):
            db.put(b"k%02d" % i, b"v")
        logs = [n for n in env.storage.list_files("db/") if n.endswith(".log")]
        assert logs
        _flip(env.storage, logs[0], 40)
        env.storage.crash()
        with pytest.raises(CorruptionError):
            make_store("pebblesdb", env, sync_writes=True)
