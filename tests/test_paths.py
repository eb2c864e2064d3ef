"""The write path and the read path, driven without a store.

Each collaborator is built on a bare :class:`SimulatedStorage` and
:class:`BackgroundExecutor`; the engine hooks the write path calls come
from a stub whose Level 0 is a file count.  One write that stalls twice —
on immutable-memtable backpressure, then on the Level-0 stop — charges
every simulated second to exactly one cause; a write with Level 0 anywhere
in the slowdown band pays exactly ``slowdown_delay``, charged to
``l0_slowdown``, and one below it pays nothing; a failed WAL append moves the
next write to a fresh file and burns the failed batch's sequence numbers;
a table retired under an older read pin outlives it exactly; a table the
table cache evicted comes back, on reopen, as the same parsed table for
exactly the simulated reads a cold open charges, and fails as a cold open
does when its file vanished or shrank; and a dropped table is forgotten.
"""

import pytest

from repro.engines.background import BackgroundErrors
from repro.engines.options import StoreOptions
from repro.engines.read_path import ReadPath
from repro.engines.write_path import WritePath
from repro.errors import CorruptionError, StorageError, TransientIOError
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import StatsCounters
from repro.sim.cache import PAGE_SIZE, PageCache
from repro.sim.executor import BackgroundExecutor
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.storage import SimulatedStorage
from repro.sstable import SSTableBuilder, SSTableReader
from repro.util.keys import KIND_PUT, InternalKey
from repro.version.lifecycle import write_table
from repro.wal.log import LogReader, decode_batch

#: Simulated seconds one stub flush and one stub compaction take.
FLUSH_SECONDS, COMPACTION_SECONDS = 0.5, 0.25


class _Engine:
    """The engine side of a write path: a flush adds one Level-0 file, and
    a compaction, scheduled once Level 0 reaches the stop trigger, empties
    it."""

    tracer = None
    _l0_conflict_blocked = False

    def __init__(self, options, executor):
        self.options, self.executor = options, executor
        self.writes = None
        self._next_file_number = 1
        self.level0 = 0
        self.compaction = None

    def _alloc_file_number(self):
        self._next_file_number += 1
        return self._next_file_number - 1

    def _on_insert_key(self, key):
        pass

    def _level0_file_count(self):
        return self.level0

    def _run_protected(self, kind, compute):
        return compute()

    def _write_sstables(self, entries, account, split_bytes):
        assert list(entries)
        account.charge(FLUSH_SECONDS)
        return []

    def _install_flush(self, metas, edit):
        self.level0 += 1

    def _submit_job(self, kind, seconds, edit, settle, span, prepare=None):
        def apply():
            prepare()
            settle(True)
            self.writes.maybe_schedule_flush()

        return self.executor.submit(kind, seconds, apply)

    def _schedule_compactions(self):
        if self.level0 >= self.options.level0_stop_trigger and self.compaction is None:

            def apply():
                self.level0, self.compaction = 0, None

            self.compaction = self.executor.submit("compaction", COMPACTION_SECONDS, apply)


def _write_path(storage, **overrides):
    options = StoreOptions(**overrides)
    executor = BackgroundExecutor(storage.clock, options.background_workers)
    stats = StatsCounters(MetricsRegistry())
    faults = BackgroundErrors(storage.clock, stats)
    engine = _Engine(options, executor)
    writes = WritePath(
        storage, options, executor, faults, stats, engine,
        prefix="db/", seed=0, user_acct=storage.foreground_account("db/user"), vlog=None,
    )
    engine.writes = writes
    writes.open_wal(engine._alloc_file_number())
    return writes, engine, stats


def _stall_causes(registry):
    return {
        dict(m.labels)["cause"]: m.value
        for m in registry
        if m.name == "stall.cause_seconds"
    }


class TestWritePath:
    def test_a_write_that_stalls_twice_charges_each_second_to_one_cause(self):
        storage = SimulatedStorage()
        writes, engine, stats = _write_path(
            storage,
            background_workers=2,
            max_immutable_memtables=1,
            level0_compaction_trigger=1,
            level0_slowdown_trigger=1,
            level0_stop_trigger=1,
        )
        for n in range(2):  # two immutable memtables; the first is flushing
            writes.write([(KIND_PUT, b"key%d" % n, b"value")])
            writes._rotate_memtable()
        flush = writes.flush_job
        assert len(writes.imm) == 2 and flush is not None and engine.level0 == 0
        start = storage.clock.now
        writes.write([(KIND_PUT, b"stalled", b"value")])
        # The wait for the flush ends where the Level-0 stop begins.
        causes = _stall_causes(stats.registry)
        assert set(causes) == {"imm_backpressure", "l0_stop"}
        assert causes["imm_backpressure"] == flush.completion - start
        assert causes["l0_stop"] == flush.completion + COMPACTION_SECONDS - flush.completion
        assert sum(causes.values()) == stats.stall_seconds
        assert engine.level0 == 0 and len(writes.imm) == 1
        assert writes.mem.get(b"stalled", writes.last_sequence).found

    def test_a_write_in_the_slowdown_band_pays_exactly_the_slowdown_delay(self):
        delay = 1e-3

        def write_at(level0):
            storage = SimulatedStorage()
            writes, engine, stats = _write_path(
                storage,
                level0_compaction_trigger=2,
                level0_slowdown_trigger=2,
                level0_stop_trigger=5,
                slowdown_delay=delay,
            )
            engine.level0 = level0
            writes.write([(KIND_PUT, b"key", b"value")])
            return storage.clock.now, _stall_causes(stats.registry), stats.stall_seconds

        below, causes, stalled = write_at(1)
        assert causes == {} and stalled == 0.0
        for level0 in (2, 3, 4):  # the whole band [slowdown, stop)
            now, causes, stalled = write_at(level0)
            assert causes == {"l0_slowdown": delay} and stalled == delay
            assert now - below == pytest.approx(delay, rel=1e-9)

    def test_a_zero_slowdown_delay_lifts_the_brake(self):
        """``slowdown_delay=0`` turns the band off: a write with Level 0 in
        it is charged nothing and costs what a write below the band does."""

        def write_at(level0):
            storage = SimulatedStorage()
            writes, engine, stats = _write_path(
                storage,
                level0_compaction_trigger=2,
                level0_slowdown_trigger=2,
                level0_stop_trigger=5,
                slowdown_delay=0.0,
            )
            engine.level0 = level0
            writes.write([(KIND_PUT, b"key", b"value")])
            return storage.clock.now, _stall_causes(stats.registry), stats.stall_seconds

        below, _, _ = write_at(1)
        now, causes, stalled = write_at(3)
        assert causes == {} and stalled == 0.0
        assert now == below

    def test_a_negative_slowdown_delay_is_rejected(self):
        with pytest.raises(ValueError, match="slowdown_delay"):
            StoreOptions(slowdown_delay=-1e-4)

    def test_a_failed_append_moves_to_a_fresh_wal_and_burns_its_sequences(self):
        storage = SimulatedStorage()
        writes, _, _ = _write_path(storage)
        writes.write([(KIND_PUT, b"before", b"1")])
        failed_wal, before = writes.wal.name, writes.last_sequence
        storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(0, op="append", name_pattern="db/*.log", torn_fraction=0.5)
            )
        )
        batch = [(KIND_PUT, b"victim%d" % n, b"2") for n in range(3)]
        with pytest.raises(TransientIOError):
            writes.write(batch)
        storage.set_fault_injector(None)
        torn_size = storage.size(failed_wal)
        writes.write([(KIND_PUT, b"after", b"3")])
        assert writes.wal.name != failed_wal
        assert storage.size(failed_wal) == torn_size  # nothing after the tear
        acct = storage.foreground_account()
        ((sequence, ops),) = [
            decode_batch(record) for record in LogReader(storage, writes.wal.name).records(acct)
        ]
        assert sequence == before + len(batch) + 1 == writes.last_sequence
        assert ops == [(KIND_PUT, b"after", b"3")]
        assert not writes.mem.get(b"victim0", writes.last_sequence).found


def _read_path(storage, tables, **overrides):
    """A read path over sstables 1..``tables`` (it needs neither an engine
    nor memtables for what these tests do)."""
    acct = storage.foreground_account()
    for number in range(1, tables + 1):
        builder = SSTableBuilder()
        for n in range(200):
            builder.add(InternalKey(b"key%04d" % n, number, KIND_PUT), b"v" * 40)
        write_table(storage, "db/", number, builder, acct)
    return ReadPath(
        storage, StoreOptions(**overrides), None, None,
        prefix="db/", user_acct=storage.foreground_account("db/user"), vlog=None,
    )


class TestReadPath:
    def test_a_table_retired_under_an_older_pin_goes_with_that_pin(self):
        storage = SimulatedStorage()
        reads = _read_path(storage, tables=1)
        early = reads.pin_reads()
        reads.retire_file(1)
        late = reads.pin_reads()  # taken after the table left the version
        reads.unpin_reads(late)
        assert storage.exists("db/000001.sst")
        reads.unpin_reads(early)
        assert not storage.exists("db/000001.sst")
        assert not reads.read_pins and not reads.retired_files

    @pytest.mark.parametrize("block_cache_bytes", [0, 32 << 20])
    def test_a_reopen_after_eviction_returns_the_same_parsed_table(
        self, block_cache_bytes
    ):
        storage = SimulatedStorage()
        reads = _read_path(
            storage, tables=2, table_cache_size=1, block_cache_bytes=block_cache_bytes
        )
        acct = storage.foreground_account("db/user")
        first = reads.get_reader(1, acct)
        reads.get_reader(2, acct)  # evicts table 1 from the table cache
        assert list(reads.table_cache) == [2]
        assert reads.get_reader(1, acct) is first is reads.tables[1]
        assert list(reads.table_cache) == [1]

    @pytest.mark.parametrize("block_cache_bytes", [0, 32 << 20])
    @pytest.mark.parametrize("cache_pages, fused", [(1 << 14, True), (1, False)])
    def test_a_reopen_charges_what_a_cold_open_charges(
        self, block_cache_bytes, cache_pages, fused, monkeypatch
    ):
        """With the table's tail pages still resident (one fused charge)
        or evicted meanwhile (one charge per read)."""
        touches = []
        touch = PageCache.touch_if_resident

        def counting(self, keys, hits):
            touches.append(touch(self, keys, hits))
            return touches[-1]

        monkeypatch.setattr(PageCache, "touch_if_resident", counting)

        def charged(open_again):
            storage = SimulatedStorage(cache=PageCache(cache_pages * PAGE_SIZE))
            reads = _read_path(
                storage, tables=2, table_cache_size=1, block_cache_bytes=block_cache_bytes
            )
            acct = storage.foreground_account("db/user")
            reads.get_reader(1, acct)
            reads.get_reader(2, acct)  # evicts table 1 from the table cache
            start = acct.seconds
            open_again(storage, reads, acct)
            return (
                storage.clock.now,
                acct.seconds - start,
                storage.stats,
                storage.cache.stats,
                list(storage.cache._pages),
                dict(storage.cpu.accounting),
            )

        reopen = charged(lambda storage, reads, acct: reads.get_reader(1, acct))
        assert touches == [fused]
        cold = charged(
            lambda storage, reads, acct: SSTableReader.open(
                storage, "db/000001.sst", acct, load_bloom=False
            )
        )
        assert touches == [fused]  # a cold open reads; it fuses nothing
        assert reopen == cold and reopen[1] > 0

    @pytest.mark.parametrize(
        "damage, error, text",
        [
            (None, StorageError, "no such file"),
            (lambda data: data[:40], CorruptionError, "too small"),
            (lambda data: data[: len(data) // 2], StorageError, "out of bounds"),
        ],
    )
    @pytest.mark.parametrize("block_cache_bytes", [0, 32 << 20])
    def test_a_vanished_shrunk_or_truncated_file_fails_the_reopen(
        self, damage, error, text, block_cache_bytes
    ):
        storage = SimulatedStorage()
        reads = _read_path(
            storage, tables=2, table_cache_size=1, block_cache_bytes=block_cache_bytes
        )
        acct = storage.foreground_account("db/user")
        reads.get_reader(1, acct)
        reads.get_reader(2, acct)  # evicts table 1 from the table cache
        name = "db/000001.sst"
        if damage is None:
            storage.delete(name)
        else:
            f = storage._files[name]
            f.data = damage(f.data)
        with pytest.raises(error, match=text):
            reads.get_reader(1, acct)
        assert list(reads.table_cache) == [2]

    def test_a_dropped_table_is_forgotten(self):
        storage = SimulatedStorage()
        reads = _read_path(storage, tables=2)
        acct = storage.foreground_account("db/user")
        reads.get_reader(1, acct)
        reads.get_reader(2, acct)
        reads.drop_table_file(1)
        assert list(reads.tables) == [2] and list(reads.table_cache) == [2]
        assert not storage.exists("db/000001.sst")
