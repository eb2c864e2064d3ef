"""One copy of every sstable byte: sealed files and the views into them.

A finished sstable reaches storage as the builder's ``bytes`` object and
stays that object — *sealed* — until something changes the file;
``read(view=True)`` answers from a sealed file with a read-only view into
it, and the decoded-block cache keeps entries that point into it.  These
tests pin what that may and may not do:

* every view a store's decoded cache holds points into the ``bytes`` of
  a live sstable of that store: never into a copy, never into a deleted
  file;
* ``append``, ``write_at`` and every ``crash()`` mode leave a sealed file
  with exactly the bytes a ``bytearray``-backed twin ends up with, and a
  view taken before still reads the bytes it was taken of;
* a full scan of a store allocates well under the store's sstable bytes.

That ``read(view=True)`` charges exactly what ``read`` and ``charge_read``
do is held in ``test_fused_charge.py``.
"""

import gc
import tracemalloc

import pytest

from repro.harness import fresh_run, standard_config
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sim.storage import CRASH_MODES, SimulatedStorage
from repro.sstable import SSTableBuilder
from repro.util.keys import KIND_PUT, InternalKey


def _table_blob(n: int = 300) -> bytes:
    builder = SSTableBuilder(block_size=512)
    for i in range(n):
        builder.add(InternalKey(b"key%05d" % i, i + 1, KIND_PUT), b"v%03d" % i * 8)
    return builder.finish()[0]


def _contents(storage: SimulatedStorage):
    return {name: bytes(storage._files[name].data) for name in storage.list_files()}


def _sealed_and_twin(blob: bytes):
    """Two storages holding ``blob`` as ``t.sst``: appended as the
    ``bytes`` itself (sealed), and as a ``bytearray`` (never sealed)."""
    pair = []
    for payload in (blob, bytearray(blob)):
        storage = SimulatedStorage(cache=PageCache(64 * PAGE_SIZE))
        acct = storage.foreground_account()
        storage.create("t.sst")
        storage.append("t.sst", payload, acct)
        storage.sync("t.sst", acct)
        pair.append((storage, acct))
    (sealed, _), (twin, _) = pair
    assert sealed._files["t.sst"].data is blob
    assert type(twin._files["t.sst"].data) is bytearray
    return pair


class TestSealedFile:
    def test_view_reads_the_files_own_bytes(self):
        blob = _table_blob()
        (sealed, acct), (twin, twin_acct) = _sealed_and_twin(blob)
        view = sealed.read("t.sst", 100, 400, acct, view=True)
        assert isinstance(view, memoryview) and view.readonly
        assert view.obj is blob
        assert view == blob[100:500]
        # Without ``view``, and from a file that is not sealed, one copy.
        copy = sealed.read("t.sst", 100, 400, acct)
        assert type(copy) is bytes and copy == blob[100:500]
        copy = twin.read("t.sst", 100, 400, twin_acct, view=True)
        assert type(copy) is bytes and copy == blob[100:500]
        # ... so the twin may still grow: no export pins its bytearray.
        twin.append("t.sst", b"more", twin_acct)

    def test_rename_keeps_the_file_sealed(self):
        blob = _table_blob()
        (storage, acct), _ = _sealed_and_twin(blob)
        storage.rename("t.sst", "u.sst")
        assert storage.read("u.sst", 0, 10, acct, view=True).obj is blob

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s, a: s.append("t.sst", b"tail bytes", a),
            lambda s, a: s.write_at("t.sst", 37, b"\xff" * 50, a),
            lambda s, a: s.write_at("t.sst", s.size("t.sst") - 3, b"past end", a),
        ],
        ids=["append", "write_at", "write_at_extends"],
    )
    def test_mutation_matches_the_bytearray_twin(self, mutate):
        blob = _table_blob()
        (sealed, acct), (twin, twin_acct) = _sealed_and_twin(blob)
        before = sealed.read("t.sst", 0, len(blob), acct, view=True)
        mutate(sealed, acct)
        mutate(twin, twin_acct)
        assert _contents(sealed) == _contents(twin)
        assert sealed.size("t.sst") == twin.size("t.sst")
        assert sealed._files["t.sst"].data is not blob
        # The view taken before still reads the bytes it was taken of.
        assert before.obj is blob and before == _table_blob()

    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_crash_matches_the_bytearray_twin(self, mode):
        """Every mode, over seeds that flip a bit of the sealed table and
        seeds that flip one elsewhere: the same files with the same bytes
        as a twin whose every file is a ``bytearray``."""
        blob = _table_blob()
        flipped_sealed = 0
        for seed in range(12):
            sides = []
            for seal in (True, False):
                storage = SimulatedStorage(cache=PageCache(64 * PAGE_SIZE))
                acct = storage.foreground_account()
                wrap = bytes if seal else bytearray
                for name in ("t.sst", "u.sst", "v.sst"):
                    storage.create(name)
                    storage.append(name, wrap(blob), acct)
                    if name != "v.sst":  # v.sst is never synced: it vanishes
                        storage.sync(name, acct)
                storage.create("w.log")  # synced head, unsynced tail
                storage.append("w.log", wrap(b"head" * 40), acct)
                storage.sync("w.log", acct)
                storage.append("w.log", wrap(b"tail" * 40), acct)
                view = storage.read("t.sst", 0, len(blob), acct, view=True)
                storage.crash(mode=mode, seed=seed)
                sides.append((storage, view))
            (sealed, view), (twin, _) = sides
            assert _contents(sealed) == _contents(twin)
            assert bytes(view) == blob  # taken before: the old bytes
            if sealed._files["t.sst"].data is not view.obj:
                flipped_sealed += 1
                assert mode == "bitflip"
        if mode == "bitflip":
            assert 0 < flipped_sealed < 12


def _store_views(run):
    """``(file number, value view)`` for every memoryview the store's
    decoded cache holds, checking each points into a live sstable."""
    db, storage = run.db, run.env.storage
    live = set(db.sstable_file_numbers())
    views = 0
    for (number, _), item in db._block_cache._blocks.items():
        for entry in getattr(item, "entries", ()):
            value = entry[1]
            if not isinstance(value, memoryview):
                continue
            assert number in live
            name = db._sst_name(number)
            assert storage.exists(name)
            assert value.obj is storage._files[name].data
            assert type(value.obj) is bytes
            views += 1
    return views


class TestStoreViews:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_cache_views_point_into_live_files(self, engine):
        cfg = standard_config(num_keys=2500, value_size=256, seed=5)
        run = fresh_run(engine, cfg)
        bench = run.bench
        bench.fill_random()
        run.db.wait_idle()
        bench.read_random(400)
        assert _store_views(run) > 0
        bench.overwrite(2500)  # flushes and compactions retire files
        run.db.wait_idle()
        bench.read_random(400)
        assert _store_views(run) > 0
        run.db.compact_all()
        _store_views(run)  # what survived the retirements
        bench.read_random(400)
        assert _store_views(run) > 0
        run.db.close()


class TestScanAllocations:
    def test_full_scan_allocates_under_half_the_sstable_bytes(self):
        """With the default 32 MiB decoded cache every block a scan
        decodes is retained; its values must be views into the tables,
        not copies of them.  A reader that copied every block it decodes
        allocates more than the store's sstable bytes here (1.3x; this
        one allocates about 0.3x, all of it parsed keys and entries)."""
        cfg = standard_config(num_keys=500, value_size=4000, seed=3)
        run = fresh_run("pebblesdb", cfg)
        run.bench.fill_random()
        run.db.compact_all()
        storage = run.env.storage
        sst_bytes = sum(
            storage.size(name)
            for name in storage.list_files(run.db.prefix)
            if name.endswith(".sst")
        )
        assert 1.5e6 < sst_bytes < 3e6
        assert run.db.options.block_cache_bytes == 32 * 1024 * 1024
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            scanned = 0
            for _ in run.db.scan():
                scanned += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scanned == cfg.num_keys
        assert peak - base < sst_bytes / 2, (peak - base, sst_bytes)
        run.db.close()
