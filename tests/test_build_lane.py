"""The build lane: an entry that crosses a compaction unchanged carries its
encoded record, and passing that record through is the same as encoding
the entry again — on bytes.

A compaction's input scan (``iter_all(..., cache_insert=False)``) decodes
blocks with ``records=True`` and yields ``(key, value, record)``;
``SSTableBuilder.add`` appends ``record`` instead of framing the entry.
Everything here holds the two routes to ``==`` on the file bytes, the
``TableProperties`` and the bloom filter, and checks who may forward a
record (anyone who leaves the value alone) and who must drop it (value-log
relocation).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import CorruptionError, InvalidArgumentError
from repro.obs.render import report
from repro.sim.cache import PageCache
from repro.sim.storage import SimulatedStorage
from repro.sstable import DecodedBlock, SSTableBuilder, SSTableReader
from repro.sstable.format import (
    BlockBuilder,
    ValuePointer,
    decode_block,
    decode_block_with_keys,
    encode_entry,
    seal_block,
)
from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_VPTR, InternalKey
from repro.util.varint import encode_varint32
from repro.vlog.log import ValueLog, VlogCompactionContext
from tests.conftest import LSM_ENGINES, make_store

#: Value lengths on both sides of every varint length boundary.
VALUE_LENGTHS = (0, 1, 127, 128, 1024, 16383, 16384)


def build(entries, block_size=256):
    builder = SSTableBuilder(block_size=block_size)
    for entry in entries:
        builder.add(*entry)
    return builder, builder.finish()


def same_table(a, b):
    (blob_a, props_a, bloom_a), (blob_b, props_b, bloom_b) = a, b
    return (
        blob_a == blob_b
        and props_a == props_b
        and bloom_a.encode() == bloom_b.encode()
    )


def scan_with_records(blob):
    """The file's entries as a compaction's input scan yields them."""
    storage = SimulatedStorage(cache=PageCache(1 << 20))
    acct = storage.foreground_account()
    storage.create("t.sst")
    storage.append("t.sst", blob, acct)
    storage.sync("t.sst", acct)
    reader = SSTableReader.open(storage, "t.sst", acct)
    assert all(len(entry) == 2 for entry in reader.iter_all(acct))
    return list(reader.iter_all(acct, cache_insert=False))


@st.composite
def entry_lists(draw):
    user_keys = draw(
        st.sets(st.binary(min_size=1, max_size=40), min_size=1, max_size=12)
    )
    sequence = 1 << 20
    entries = []
    for user_key in sorted(user_keys):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            sequence -= draw(st.integers(min_value=1, max_value=1000))
            kind = draw(st.sampled_from((KIND_PUT, KIND_DELETE, KIND_VPTR)))
            fill = draw(st.integers(min_value=0, max_value=255))
            value = bytes((fill,)) * draw(st.sampled_from(VALUE_LENGTHS))
            entries.append((InternalKey(user_key, sequence, kind), value))
    return entries


class TestPassThroughEqualsReEncode:
    @given(entry_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_three_routes_one_file(self, entries, rng):
        builder, encoded = build(entries)
        assert builder.records_passed == 0
        scanned = scan_with_records(encoded[0])
        assert [(e[0], bytes(e[1])) for e in scanned] == entries
        assert all(len(e) == 3 for e in scanned)
        assert all(bytes(e[2]) == encode_entry(e[0], e[1]) for e in scanned)

        builder, passed = build(scanned)
        assert builder.records_passed == len(entries)
        assert same_table(passed, encoded)

        withheld = [e if rng.random() < 0.5 else e[:2] for e in scanned]
        builder, mixed = build(withheld)
        assert builder.records_passed == sum(len(e) == 3 for e in withheld)
        assert same_table(mixed, encoded)

    def test_block_size_and_split_do_not_matter(self):
        """Records from blocks of one size rebuild a file of another."""
        entries = [
            (InternalKey(b"k%05d" % i, 9000 - i, KIND_PUT), b"%d" % i * (i % 40))
            for i in range(600)
        ]
        scanned = scan_with_records(build(entries, block_size=128)[1][0])
        for block_size in (64, 512, 4096):
            assert same_table(
                build(scanned, block_size)[1], build(entries, block_size)[1]
            )

    def test_out_of_order_add_with_a_record_still_raises(self):
        first = (InternalKey(b"b", 5, KIND_PUT), b"x")
        second = (InternalKey(b"a", 6, KIND_PUT), b"y")
        record = memoryview(encode_entry(*second))
        builder = SSTableBuilder()
        builder.add(*first)
        with pytest.raises(InvalidArgumentError):
            builder.add(*second, record)
        # Same key twice is out of order too (strictly increasing).
        with pytest.raises(InvalidArgumentError):
            builder.add(*first, memoryview(encode_entry(*first)))
        assert builder.num_entries == 1 and builder.records_passed == 0


def _non_minimal_block():
    """Three entries; the middle one's vlen is the two-byte varint 0x85 0x00
    (five, padded), which this writer never emits.  CRC valid."""
    entries = [
        (InternalKey(b"a", 3, KIND_PUT), b"first"),
        (InternalKey(b"b", 2, KIND_PUT), b"fives"),
        (InternalKey(b"c", 1, KIND_PUT), b"z" * 200),
    ]
    payload = bytearray()
    for i, (key, value) in enumerate(entries):
        record = encode_entry(key, value)
        if i == 1:
            head = len(record) - len(value) - 1
            assert record[head] == 5
            record = record[:head] + b"\x85\x00" + value
        payload += record
    return entries, seal_block(bytes(payload))


class TestNonMinimalFraming:
    def test_same_entries_no_record_canonical_rebuild(self):
        entries, block = _non_minimal_block()
        plain = decode_block(block, zero_copy=True)
        carried = decode_block(block, zero_copy=True, records=True)
        assert [(k, bytes(v)) for k, v in plain] == entries
        assert [(e[0], bytes(e[1])) for e in carried] == entries
        assert [len(e) for e in carried] == [3, 2, 3]
        canonical = BlockBuilder()
        for key, value in entries:
            canonical.add(key, value)
        assert same_table(build(carried)[1], build(entries)[1])
        assert build(carried)[1][0].startswith(canonical.finish())

    @pytest.mark.parametrize("field", ["klen", "vlen"])
    def test_padded_long_varints_travel_without_a_record(self, field):
        """Three-byte minimal lengths keep their record; the same length
        padded with a zero continuation group does not."""
        key = InternalKey(b"k" * (20000 if field == "klen" else 4), 7, KIND_PUT)
        value = b"v" * (20000 if field == "vlen" else 4)
        record = encode_entry(key, value)
        assert decode_block(seal_block(record), records=True)[0][2] == record
        minimal = encode_varint32(20000 + (8 if field == "klen" else 0))
        padded = minimal[:-1] + bytes((minimal[-1] | 0x80, 0x00))
        at = 0 if field == "klen" else record.index(minimal, 1)
        damaged = record[:at] + padded + record[at + len(minimal) :]
        (entry,) = decode_block(seal_block(damaged), records=True)
        assert entry == (key, value)


class TestCorruptionParity:
    """Asking for records changes no error: same loop, same checks."""

    @staticmethod
    def _outcome(block, **kwargs):
        try:
            return "ok", [(e[0], bytes(e[1])) for e in decode_block(block, **kwargs)]
        except CorruptionError as exc:
            return "err", str(exc)

    @given(st.binary(min_size=5, max_size=200), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_damaged_blocks_raise_identically(self, junk, zero_copy, reseal):
        builder = BlockBuilder()
        for i in range(6):
            builder.add(InternalKey(b"key%06d" % i, 1 + i, KIND_PUT), b"v%d" % i)
        block = bytearray(seal_block(builder.finish()))
        block[: len(junk)] = junk  # stomp the front of the payload
        if reseal:
            # A valid checksum over the damage: the parse itself must fail
            # (or succeed) the same way.
            block = bytearray(seal_block(bytes(block[:-4])))
        damaged = bytes(block)
        without = self._outcome(damaged, zero_copy=zero_copy)
        assert self._outcome(damaged, zero_copy=zero_copy, records=True) == without
        try:
            entries, keys = decode_block_with_keys(damaged, zero_copy)
        except CorruptionError as exc:
            assert without == ("err", str(exc))
        else:
            assert without == ("ok", [(k, bytes(v)) for k, v in entries])
            assert keys == [k for k, _ in entries]

    def test_truncated_tails(self):
        builder = BlockBuilder()
        builder.add(InternalKey(b"key", 9, KIND_PUT), b"v" * 300)
        payload = builder.finish()
        for cut in range(len(payload)):
            damaged = seal_block(payload[:cut])
            assert self._outcome(damaged) == self._outcome(damaged, records=True)


class TestRelocationDropsTheRecord:
    def test_rewrite_forwards_objects_and_replaces_the_relocated_one(self):
        env = repro.Environment(cache_bytes=1 << 20)
        storage = env.storage
        numbers = iter(range(1, 1000))
        vlog = ValueLog(
            storage,
            "db/",
            segment_bytes=2048,
            gc_dead_ratio=0.5,
            alloc_number=lambda: next(numbers),
        )
        acct = storage.background_account("db/vlog")
        pointers = [
            vlog.append(b"key%02d" % i, b"v" * 200, i + 1, acct) for i in range(12)
        ]
        vlog.sync(acct)
        cold = pointers[0].segment
        assert cold != vlog.active_segment
        assert sum(p.segment == cold for p in pointers) > 1
        # One pointer into the cold segment, one into a warm one, an inline
        # put and a tombstone; all but the tombstone carry a record.
        warm = next(p for p in pointers if p.segment != cold)
        plain = [
            (InternalKey(b"key00", 1, KIND_VPTR), pointers[0].encode()),
            (InternalKey(b"key50", 50, KIND_VPTR), warm.encode()),
            (InternalKey(b"key60", 60, KIND_PUT), b"inline"),
        ]
        stream = [
            (key, value, memoryview(encode_entry(key, value))) for key, value in plain
        ] + [(InternalKey(b"key70", 70, KIND_DELETE), b"")]
        ctx = VlogCompactionContext(
            vlog, storage.background_account("db/vlog.gc"), cold_segments={cold}
        )
        out = list(ctx.rewrite(iter(stream)))
        assert len(out) == len(stream)
        assert all(a is b for a, b in zip(out[1:], stream[1:]))
        relocated = out[0]
        assert len(relocated) == 2 and relocated[0] is stream[0][0]
        pointer = ValuePointer.decode(relocated[1])
        assert pointer.segment == vlog.active_segment != cold
        assert vlog.read_value(pointer, acct) == b"v" * 200
        assert ctx.relocated_records == 1
        # What a builder makes of the stream is what re-encoding makes of it.
        expected = [(e[0], bytes(e[1])) for e in out]
        assert same_table(build(out)[1], build(expected)[1])

    @pytest.mark.parametrize("engine", LSM_ENGINES)
    def test_store_with_relocation_reencodes_only_what_moved(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(
            engine,
            env,
            value_separation_bytes=64,
            vlog_segment_bytes=4096,
            vlog_gc_dead_ratio=0.2,
        )
        rng = random.Random(5)
        expect = {}
        for i in range(1500):
            key = b"key%04d" % rng.randrange(300)
            expect[key] = (b"%04d" % i) * (40 if i % 3 else 3)
            db.put(key, expect[key])
        db.wait_idle()
        value = db.stats_part()["registry"].value
        flushed = 1500 - len(db._mem)  # a put is framed once, by its flush
        relocated = db._vlog.gc_relocated_records
        assert relocated > 0
        assert value("build.records_encoded") == flushed + relocated
        assert value("build.records_passed") > 0
        assert all(db.get(key) == val for key, val in expect.items())
        db.check_invariants()


class TestBuildLaneCounters:
    def test_counted_per_table_and_reported(self, lsm_engine, env):
        db = make_store(lsm_engine, env)
        built = []
        finish = SSTableBuilder.finish

        def counted(builder):
            out = finish(builder)
            built.append((builder.records_passed, out[1].num_entries))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SSTableBuilder, "finish", counted)
            for i in range(2000):
                db.put(b"key%05d" % (i * 7919 % 1000), b"v%d" % i * 10)
            db.wait_idle()
        value = db.stats_part()["registry"].value
        passed, encoded = value("build.records_passed"), value("build.records_encoded")
        assert passed == sum(p for p, _ in built) > 0
        assert encoded == sum(n - p for p, n in built)
        # No value log here: only a flush frames an entry.
        assert encoded == 2000 - len(db._mem)
        assert db.stats_part()["registry"].value("build.records_passed") == passed
        assert (
            f"build: records-passed={passed} records-encoded={encoded} passed-share="
            in report(db)
        )

    def test_user_reads_never_hold_records(self, env):
        db = make_store("pebblesdb", env)
        for i in range(1500):
            db.put(b"key%05d" % (i % 500), b"value-%d" % i * 8)
        db.wait_idle()
        for i in range(0, 500, 7):
            assert db.get(b"key%05d" % i) is not None
        with db.seek(b"key00100") as it:
            for _ in range(50):
                it.next()
        blocks = [
            block
            for block in db._block_cache._blocks.values()
            if isinstance(block, DecodedBlock)
        ]
        assert blocks
        assert all(len(entry) == 2 for block in blocks for entry in block.entries)
