"""Decoded-block cache: LRU behavior, invalidation, metrics neutrality.

The cache is host-side memoization of parsed sstable blocks — it must
change wall-clock only, never a simulated number.  The tests here cover
the cache data structure itself, its wiring into the engines (eviction
on compaction, stats surfacing), the PageCache per-file index it rides
along with, and the headline invariant: byte-identical simulated metrics
with the cache on or off.
"""

import pytest

from repro.harness import fresh_run, standard_config
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sstable.block_cache import DecodedBlock, DecodedBlockCache
from repro.util.keys import KIND_PUT, MAX_SEQUENCE, InternalKey


def _block(nbytes: int) -> DecodedBlock:
    """A dummy decoded block charging exactly ``nbytes`` to the budget."""
    return DecodedBlock([], nbytes)


def _entries(*user_keys: bytes):
    return [(InternalKey(k, 10, KIND_PUT), b"v-" + k) for k in user_keys]


class TestDecodedBlock:
    def test_nbytes_includes_entry_overhead(self):
        block = DecodedBlock(_entries(b"a", b"b"), 100)
        assert block.nbytes > 100

    def test_keys_lazy_and_memoized(self):
        block = DecodedBlock(_entries(b"a", b"b", b"c"), 10)
        keys = block.keys
        assert [k.user_key for k in keys] == [b"a", b"b", b"c"]
        assert block.keys is keys

    def test_bisect_matches_key_array(self):
        block = DecodedBlock(_entries(b"a", b"c", b"e"), 10)
        probe = InternalKey(b"c", 2**56 - 1, KIND_PUT)
        without_keys = block.bisect(probe)
        block.keys  # materialize, then bisect again via the array
        assert block.bisect(probe) == without_keys == 1


class TestDecodedBlockCache:
    def test_hit_and_miss_counters(self):
        cache = DecodedBlockCache(1024)
        assert cache.get(7, 0) is None
        cache.put(7, 0, _block(100))
        assert cache.get(7, 0) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.insertions == 1

    def test_lru_eviction_under_byte_budget(self):
        cache = DecodedBlockCache(1000)
        cache.put(1, 0, _block(400))
        cache.put(1, 4096, _block(400))
        cache.get(1, 0)  # refresh the first block
        cache.put(1, 8192, _block(400))  # budget forces one eviction
        assert cache.stats.evictions == 1
        assert cache.get(1, 0) is not None  # refreshed, survived
        assert cache.get(1, 4096) is None  # LRU victim
        assert cache.size_bytes <= 1000

    def test_oversized_item_is_not_cached(self):
        cache = DecodedBlockCache(100)
        cache.put(1, 0, _block(101))
        assert len(cache) == 0
        assert cache.get(1, 0) is None

    def test_replace_same_key_adjusts_size(self):
        cache = DecodedBlockCache(1000)
        cache.put(1, 0, _block(300))
        cache.put(1, 0, _block(500))
        assert len(cache) == 1
        assert cache.size_bytes == 500

    def test_drop_file_invalidates_only_that_file(self):
        cache = DecodedBlockCache(10_000)
        cache.put(1, 0, _block(100))
        cache.put(1, 4096, _block(100))
        cache.put(2, 0, _block(100))
        cache.drop_file(1)
        assert cache.get(1, 0) is None
        assert cache.get(1, 4096) is None
        assert cache.get(2, 0) is not None
        assert cache.cached_files() == {2}
        assert cache.size_bytes == 100

    def test_eviction_keeps_file_index_consistent(self):
        cache = DecodedBlockCache(1000)
        for file_id in range(10):
            cache.put(file_id, 0, _block(250))  # evicts as it goes
        assert cache.size_bytes <= 1000
        # Every indexed file must still have its block resident.
        for file_id in cache.cached_files():
            assert cache.get(file_id, 0) is not None
        # drop_file on an evicted file is a no-op, not an error.
        cache.drop_file(0)


class TestPageCacheFileIndex:
    def test_drop_file_with_many_files_cached(self):
        cache = PageCache(10_000 * PAGE_SIZE)
        for file_id in range(200):
            cache.populate_range(file_id, 0, 4 * PAGE_SIZE)
        cache.drop_file(137)
        for page in range(4):
            assert not cache.access(137, page, insert=False)
        assert cache.access(136, 0, insert=False)
        assert cache.access(138, 3, insert=False)
        assert cache.size_bytes == 199 * 4 * PAGE_SIZE

    def test_index_consistent_after_evictions(self):
        cache = PageCache(16 * PAGE_SIZE)
        for file_id in range(20):
            cache.populate_range(file_id, 0, 4 * PAGE_SIZE)
        indexed = sum(len(pages) for pages in cache._file_pages.values())
        assert indexed == len(cache._pages) == 16
        for file_id in range(20):
            cache.drop_file(file_id)
        assert cache.size_bytes == 0
        assert not cache._file_pages


def _warmed_run(engine="pebblesdb", cache_bytes=None, **option_overrides):
    cfg = standard_config(
        num_keys=2500,
        value_size=256,
        seed=11,
        cache_bytes=cache_bytes,
        option_overrides={engine: option_overrides} if option_overrides else {},
    )
    run = fresh_run(engine, cfg)
    run.bench.fill_random()
    run.db.wait_idle()
    return run


class TestStoreIntegration:
    def test_stats_and_property_surface_cache_traffic(self):
        run = _warmed_run()
        run.bench.read_random(400)
        stats = run.db.stats()
        assert stats.block_cache_hits + stats.block_cache_misses > 0
        assert 0.0 <= stats.block_cache_hit_rate <= 1.0
        prop = run.db.get_property("repro.block-cache")
        assert prop is not None and prop.startswith("hits=")
        run.db.close()

    def test_disabled_cache_reports_disabled(self):
        run = _warmed_run(block_cache_bytes=0)
        run.bench.read_random(100)
        stats = run.db.stats()
        assert stats.block_cache_hits == 0
        assert stats.block_cache_misses == 0
        assert run.db.get_property("repro.block-cache") == "disabled"
        run.db.close()

    def test_compaction_invalidates_dead_files(self):
        run = _warmed_run()
        run.bench.read_random(400)  # warm the decoded cache
        cache = run.db._block_cache
        assert cache is not None and len(cache) > 0
        run.db.compact_all()
        run.db.wait_idle()
        live = set(run.db.sstable_file_numbers())
        assert cache.cached_files() <= live
        # Reads after invalidation still return every key.
        result = run.bench.read_random(400)
        assert result.extra["found_fraction"] == 1.0
        run.db.close()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            _warmed_run(block_cache_bytes=-1)


class TestMetricsNeutrality:
    """The acceptance invariant: the cache never moves a simulated number."""

    @pytest.mark.parametrize("engine", ["pebblesdb", "leveldb"])
    def test_simulated_metrics_identical_cache_on_vs_off(self, engine):
        def observe(block_cache_bytes):
            # A tiny table cache forces table reopens as well.
            run = _warmed_run(
                engine,
                block_cache_bytes=block_cache_bytes,
                table_cache_size=4,
            )
            run.db.compact_all()
            read = run.bench.read_random(800)
            seek = run.bench.seek_random(200, nexts=5)
            run.db.wait_idle()
            storage = run.env.storage
            observed = (
                run.env.clock.now,
                storage.stats.bytes_read,
                storage.stats.bytes_written,
                storage.stats.read_ops,
                storage.stats.write_ops,
                dict(storage.stats.read_by_account),
                storage.cache.stats.hits,
                storage.cache.stats.misses,
                storage.cache.stats.evictions,
                read.elapsed_seconds,
                read.extra["found_fraction"],
                seek.elapsed_seconds,
            )
            hit_traffic = run.db.stats().block_cache_hits
            run.db.close()
            return observed, hit_traffic

        with_cache, hits_on = observe(32 * 1024 * 1024)
        without_cache, hits_off = observe(0)
        assert hits_on > 0, "cache must actually serve hits for this to test anything"
        assert hits_off == 0
        assert with_cache == without_cache

    @pytest.mark.parametrize("engine", ["pebblesdb", "leveldb"])
    def test_identical_and_fused_alike_when_reopen_pages_get_evicted(
        self, engine, monkeypatch
    ):
        """The same invariant under a 24-page page cache: a reopened
        table finds its tail pages sometimes resident (one fused charge)
        and sometimes evicted (the separate charges) — and which, the
        decoded cache does not decide: a reopen takes one path at any
        ``block_cache_bytes``."""
        fused = {True: 0, False: 0}
        touch = PageCache.touch_if_resident

        def counting(self, keys, hits):
            hit = touch(self, keys, hits)
            fused[hit] += 1
            return hit

        monkeypatch.setattr(PageCache, "touch_if_resident", counting)

        def observe(block_cache_bytes):
            fused.update({True: 0, False: 0})
            run = _warmed_run(
                engine,
                cache_bytes=24 * PAGE_SIZE,
                block_cache_bytes=block_cache_bytes,
                table_cache_size=4,
            )
            run.db.compact_all()
            read = run.bench.read_random(800)
            seek = run.bench.seek_random(200, nexts=5)
            run.db.wait_idle()
            storage = run.env.storage
            observed = (
                run.env.clock.now,
                storage.stats,
                storage.cache.stats,
                list(storage.cache._pages),
                dict(run.env.cpu.accounting),
                read.elapsed_seconds,
                read.extra["found_fraction"],
                seek.elapsed_seconds,
            )
            run.db.close()
            return observed, dict(fused)

        with_cache, fused_on = observe(32 * 1024 * 1024)
        assert fused_on[True] > 0 and fused_on[False] > 0, fused_on
        without_cache, fused_off = observe(0)
        assert fused_off == fused_on
        assert with_cache == without_cache


def _write_table(storage=None, name="t.sst"):
    """A 200-key sstable of small blocks in ``storage`` (a fresh one by
    default); returns the storage and a foreground account."""
    from repro.sim.storage import SimulatedStorage
    from repro.sstable import SSTableBuilder

    if storage is None:
        storage = SimulatedStorage(cache=PageCache(1 << 20))
    acct = storage.foreground_account()
    builder = SSTableBuilder(block_size=256)
    for i in range(200):
        builder.add(InternalKey(b"key%04d" % i, i + 1, KIND_PUT), b"v" * 20)
    blob, _, _ = builder.finish()
    storage.create(name)
    storage.append(name, blob, acct)
    storage.sync(name, acct)
    return storage, acct


class TestRetainedReader:
    """A reader the engine keeps for as long as its file is live refers
    to the decoded cache only weakly, and a reopen that fails leaves
    nothing of the file cached."""

    _table = staticmethod(_write_table)

    def test_retained_reader_does_not_keep_its_cache_alive(self):
        """A reader never owns the decoded cache: a
        discarded store's decoded blocks must go with its last reference,
        not wait for the cyclic collector (they are its largest
        allocation; ``peak_rss_mb`` of back-to-back stores shows it)."""
        import gc
        import weakref

        from repro.sstable import SSTableReader

        storage, acct = self._table()
        cache = DecodedBlockCache(1 << 20)
        gc.disable()
        try:
            reader = SSTableReader.open(storage, "t.sst", acct, block_cache=cache)
            reader.get(b"key0000", MAX_SEQUENCE, acct)
            gone = weakref.ref(cache)
            del cache
            assert gone() is None
        finally:
            gc.enable()
        # An outliving reader simply reads uncached.
        assert reader.get(b"key0100", MAX_SEQUENCE, acct).found

    def test_failed_reopen_leaves_nothing_of_the_file_cached(self):
        from repro.errors import StorageError

        run = _warmed_run(table_cache_size=1)
        db = run.db
        acct = run.env.storage.foreground_account()
        first, second = sorted(db.sstable_file_numbers())[:2]
        retained = db._get_reader(first, acct)
        db._get_reader(second, acct)  # evicts ``first`` from the table cache
        assert db._get_reader(first, acct) is retained
        db._get_reader(second, acct)
        f = run.env.storage._files[db._sst_name(first)]
        f.data = f.data[: len(f.data) // 2]
        with pytest.raises(StorageError):
            db._get_reader(first, acct)
        assert first not in db._block_cache.cached_files()
        assert first not in db._table_cache
        run.db.close()


class TestTablesParsedOnce:
    """A store parses a table's footer and index once: a table it built
    from the builder's own, a recovered table at its first open."""

    @pytest.mark.parametrize("engine", ["pebblesdb", "leveldb"])
    def test_a_built_table_is_never_read_back_to_be_opened(self, engine, monkeypatch):
        import repro.sstable.reader as reader_module
        from repro.sstable import SSTableReader

        decoded = []
        decode_index = reader_module.decode_index

        def counting_decode(data):
            decoded.append(len(data))
            return decode_index(data)

        monkeypatch.setattr(reader_module, "decode_index", counting_decode)
        opened = []
        cold_open = SSTableReader.open.__func__

        def counting_open(cls, storage, name, account, **how):
            opened.append(name)
            return cold_open(cls, storage, name, account, **how)

        monkeypatch.setattr(SSTableReader, "open", classmethod(counting_open))

        run = _warmed_run(engine, table_cache_size=4)
        run.db.compact_all()
        run.bench.read_random(400)
        run.bench.seek_random(100, nexts=5)
        run.db.wait_idle()
        registry = run.db.stats_part()["registry"]
        assert registry.value("read.table_cache_misses") > 0
        assert decoded == [] and opened == []

        run = run.reopen()
        db = run.db
        recovered = {
            db._sst_name(n) for n in db.sstable_file_numbers() if n not in db._reads.tables
        }
        assert recovered
        run.bench.read_random(400)
        run.bench.seek_random(100, nexts=5)
        run.db.wait_idle()
        assert opened and set(opened) <= recovered
        assert len(decoded) == len(opened) == len(set(opened))
        db.close()


class TestEvictionOnError:
    """A decode failure must purge the file from the decoded cache: stale
    host-side entries for a corrupt or replaced file can never be served."""

    def _table(self):
        from repro.sstable import SSTableReader

        storage, acct = _write_table()
        cache = DecodedBlockCache(1 << 20)
        reader = SSTableReader.open(
            storage, "t.sst", acct, block_cache=cache, cache_key=7
        )
        return storage, acct, cache, reader

    def test_corrupt_block_purges_whole_file(self):
        from repro.errors import CorruptionError

        storage, acct, cache, reader = self._table()
        reader.get(b"key0000", MAX_SEQUENCE, acct)  # caches early blocks
        assert 7 in cache.cached_files()
        # Corrupt the last data block (not yet decoded or cached).
        last = reader._index[-1]
        storage.write_at("t.sst", last.offset + 5, b"\xff", acct)
        storage.cache.clear()  # force a device read of the corrupt bytes
        with pytest.raises(CorruptionError):
            reader.get(b"key0199", MAX_SEQUENCE, acct)
        assert 7 not in cache.cached_files(), (
            "decode failure must drop every cached entry of the file"
        )

    def test_corrupt_open_leaves_no_metadata_cached(self):
        from repro.errors import CorruptionError
        from repro.sstable import SSTableReader

        storage, acct, cache, reader = self._table()
        # Sever the footer of a *different* copy and open it against the
        # same cache: nothing of it may be cached after the failure.
        size = storage.size("t.sst")
        blob = storage.read("t.sst", 0, size, acct)
        storage.create("u.sst")
        storage.append("u.sst", blob[: size - 3], acct)
        with pytest.raises(CorruptionError):
            SSTableReader.open(storage, "u.sst", acct, block_cache=cache, cache_key=8)
        assert 8 not in cache.cached_files()
