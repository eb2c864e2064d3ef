"""Simulated storage: namespace ops, IO accounting, durability semantics."""

import copy

import pytest

from repro.errors import StorageError
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sim.storage import SimulatedStorage


@pytest.fixture
def storage() -> SimulatedStorage:
    return SimulatedStorage(cache=PageCache(16 * PAGE_SIZE))


class TestNamespace:
    def test_create_and_exists(self, storage):
        storage.create("a")
        assert storage.exists("a")
        assert not storage.exists("b")

    def test_create_duplicate_fails(self, storage):
        storage.create("a")
        with pytest.raises(StorageError):
            storage.create("a")

    def test_delete_missing_fails(self, storage):
        with pytest.raises(StorageError):
            storage.delete("nope")

    def test_delete_missing_ok(self, storage):
        storage.delete("nope", missing_ok=True)
        storage.create("a")
        storage.delete("a", missing_ok=True)
        assert not storage.exists("a")

    def test_rename_replaces_target(self, storage):
        acct = storage.foreground_account()
        storage.create("a")
        storage.append("a", b"AAA", acct)
        storage.create("b")
        storage.append("b", b"BB", acct)
        storage.rename("a", "b")
        assert not storage.exists("a")
        assert storage.read("b", 0, 3, acct) == b"AAA"

    def test_list_files_prefix(self, storage):
        for name in ("db/1", "db/2", "other/3"):
            storage.create(name)
        assert storage.list_files("db/") == ["db/1", "db/2"]

    def test_total_live_bytes(self, storage):
        acct = storage.foreground_account()
        storage.create("db/a")
        storage.append("db/a", b"x" * 100, acct)
        storage.create("raw")
        storage.append("raw", b"y" * 50, acct)
        assert storage.total_live_bytes("db/") == 100
        assert storage.total_live_bytes() == 150


class TestDataOps:
    def test_append_read_roundtrip(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"hello ", acct)
        storage.append("f", b"world", acct)
        assert storage.read("f", 0, 11, acct) == b"hello world"
        assert storage.size("f") == 11

    def test_read_out_of_bounds(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"abc", acct)
        with pytest.raises(StorageError):
            storage.read("f", 1, 10, acct)

    def test_negative_length_rejected(self, storage):
        """The span ``plan_reads`` refuses, ``read`` and ``charge_read``
        refuse too — before any charge or fault check."""
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"x" * 100, acct)
        def state():
            return copy.deepcopy((storage.clock.now, storage.cache.stats, storage.stats))

        before = state()
        for call in (storage.read, storage.charge_read):
            with pytest.raises(StorageError, match="out of bounds"):
                call("f", 50, -10, acct)
        with pytest.raises(StorageError, match="out of bounds"):
            storage.read("f", 50, -10, acct, view=True)
        assert state() == before

    def test_write_at_extends_and_overwrites(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.write_at("f", 4, b"zz", acct)
        assert storage.size("f") == 6
        assert storage.read("f", 0, 6, acct) == b"\x00\x00\x00\x00zz"
        storage.write_at("f", 0, b"ab", acct)
        assert storage.read("f", 0, 2, acct) == b"ab"


class TestAccounting:
    def test_write_time_charged_to_clock(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        before = storage.clock.now
        storage.append("f", b"x" * (1 << 20), acct)
        assert storage.clock.now > before

    def test_background_account_accumulates_without_clock(self, storage):
        acct = storage.background_account("compaction")
        storage.create("f")
        before = storage.clock.now
        storage.append("f", b"x" * (1 << 20), acct)
        assert storage.clock.now == before
        assert acct.seconds > 0

    def test_bytes_counted_per_account(self, storage):
        a = storage.foreground_account("store1/wal")
        b = storage.foreground_account("store2/wal")
        storage.create("f")
        storage.append("f", b"x" * 100, a)
        storage.append("f", b"y" * 50, b)
        assert storage.stats.written_by_account["store1/wal"] == 100
        assert storage.stats.written_by_account["store2/wal"] == 50
        assert storage.stats.bytes_written == 150

    def test_cached_read_is_free_of_device_time(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"x" * PAGE_SIZE, acct)  # populates cache
        reads_before = storage.stats.bytes_read
        storage.read("f", 0, PAGE_SIZE, acct)
        assert storage.stats.bytes_read == reads_before  # cache hit: no device IO

    def test_cold_read_counts_device_bytes(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"x" * (64 * PAGE_SIZE), acct)  # overflows 16-page cache
        storage.read("f", 0, PAGE_SIZE, acct)
        assert storage.stats.bytes_read >= PAGE_SIZE


class TestCrashSemantics:
    def test_unsynced_data_lost(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"durable", acct)
        storage.sync("f", acct)
        storage.append("f", b" volatile", acct)
        storage.crash()
        assert storage.size("f") == len(b"durable")

    def test_never_synced_file_disappears(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"data", acct)
        storage.crash()
        assert not storage.exists("f")

    def test_synced_file_survives(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"data", acct)
        storage.sync("f", acct)
        storage.crash()
        assert storage.read("f", 0, 4, acct) == b"data"

    def test_crash_clears_cache(self, storage):
        acct = storage.foreground_account()
        storage.create("f")
        storage.append("f", b"x" * PAGE_SIZE, acct)
        storage.sync("f", acct)
        storage.crash()
        assert not storage.cache.access("anything", 0)
        assert storage.cache.stats.misses >= 1
