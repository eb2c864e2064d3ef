"""The lean write path is the old write path — on bytes, floats and failures.

A put goes ``_write`` -> ``_write_impl`` -> ``encode_batch`` ->
``LogWriter.append`` -> ``Memtable.add``, and each leaf does its job the
short way: the batch is joined from its pieces, a record that fits its
block is framed as one fragment off a chained CRC, a skip-list height is
drawn straight from the bit stream.  Nothing may tell that from the
textbook form: not the WAL's bytes, not the tower heights (a height
decides nothing simulated today, but the memtable's seed is part of a
store's identity), not the clock as a float, and not what a failed append
leaves behind.  The textbook forms are kept here as the reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import TransientIOError
from repro.memtable.skiplist import _BRANCHING, _MAX_HEIGHT, SkipList
from repro.obs.trace import TraceSink
from repro.sim.faults import FaultInjector, FaultPlan
from repro.util.crc import crc32c, mask_crc
from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_VPTR
from repro.util.varint import encode_varint32
from repro.wal.log import (
    BLOCK_SIZE,
    LogReader,
    LogWriter,
    decode_batch,
    encode_batch,
)
from tests.conftest import LSM_ENGINES, make_store
from tests.test_backpressure import _digest

HEADER = 7


# ----------------------------------------------------------------------
# (a) LogWriter.append against the textbook fragmenter
# ----------------------------------------------------------------------
def _reference_fragments(payload: bytes, block_offset: int):
    """LevelDB's AddRecord, one fragment at a time, the type byte copied in
    front of the fragment for its CRC.  Returns (bytes, new block offset)."""
    out = bytearray()
    remaining = payload
    first = True
    while True:
        leftover = BLOCK_SIZE - block_offset
        if leftover < HEADER:
            out += b"\x00" * leftover
            block_offset = 0
            leftover = BLOCK_SIZE
        avail = leftover - HEADER
        fragment, remaining = remaining[:avail], remaining[avail:]
        if first and not remaining:
            rec_type = 1  # FULL
        elif first:
            rec_type = 2  # FIRST
        elif remaining:
            rec_type = 3  # MIDDLE
        else:
            rec_type = 4  # LAST
        crc = mask_crc(crc32c(bytes([rec_type]) + fragment))
        out += crc.to_bytes(4, "little")
        out += len(fragment).to_bytes(2, "little")
        out.append(rec_type)
        out += fragment
        block_offset += HEADER + len(fragment)
        first = False
        if not remaining:
            return bytes(out), block_offset


#: Bytes left in the block when the record under test starts: too short
#: for a header (< 7), exactly a header, a little more, plenty, and a
#: fresh block.
LEFTOVERS = [0, 1, 6, 7, 8, 9, 40, 5000, BLOCK_SIZE]


@st.composite
def _edge_case(draw):
    leftover = draw(st.sampled_from(LEFTOVERS))
    avail = leftover - HEADER if leftover >= HEADER else BLOCK_SIZE - HEADER
    size = draw(
        st.one_of(
            st.integers(0, 48),
            # Exact fit of what the block still takes, one under, one over.
            st.integers(max(0, avail - 2), avail + 2),
            # Runs over one, two and three whole blocks.
            st.sampled_from([1, 2, 3]).flatmap(
                lambda blocks: st.integers(
                    max(0, avail + (blocks - 1) * (BLOCK_SIZE - HEADER) - 2),
                    avail + (blocks - 1) * (BLOCK_SIZE - HEADER) + 2,
                )
            ),
        )
    )
    more = draw(st.lists(st.integers(0, 200), max_size=2))
    return leftover, [size] + more, draw(st.integers(0, 2**32))


def _writer_at(leftover: int, rng: random.Random):
    """A log whose next record starts ``leftover`` bytes before the end of
    its first block, reached with one real record (a reader must be able
    to walk it); returns (storage, account, writer, records so far)."""
    env = repro.Environment(cache_bytes=1 << 20)
    acct = env.storage.foreground_account("wal")
    writer = LogWriter(env.storage, "edge.log")
    records = []
    if leftover < BLOCK_SIZE:
        filler = rng.randbytes(BLOCK_SIZE - leftover - HEADER)
        writer.append(filler, acct)
        records.append(filler)
    assert env.storage.size("edge.log") == BLOCK_SIZE - leftover
    return env.storage, acct, writer, records


class TestLogWriterFraming:
    @settings(max_examples=150, deadline=None)
    @given(_edge_case())
    def test_append_equals_the_reference_fragmenter(self, case):
        leftover, sizes, seed = case
        rng = random.Random(seed)
        storage, acct, writer, records = _writer_at(leftover, rng)
        expected = bytes(storage._files["edge.log"].data)  # test support: raw view
        offset = len(expected) % BLOCK_SIZE if leftover else BLOCK_SIZE
        for size in sizes:
            payload = rng.randbytes(size)
            framed, offset = _reference_fragments(payload, offset)
            expected += framed
            writer.append(payload, acct)
            records.append(payload)
            assert bytes(storage._files["edge.log"].data) == expected
            assert writer.size == len(expected) == storage.size("edge.log")
        assert list(LogReader(storage, "edge.log").records(acct)) == records
        # A writer reopened on the file frames the next record the same way.
        tail = rng.randbytes(30)
        framed, _ = _reference_fragments(tail, len(expected) % BLOCK_SIZE)
        LogWriter(storage, "edge.log").append(tail, acct)
        assert bytes(storage._files["edge.log"].data) == expected + framed

    @pytest.mark.parametrize("leftover", LEFTOVERS)
    def test_every_edge_by_hand(self, leftover):
        """The named cases, not left to what hypothesis happens to draw."""
        avail = leftover - HEADER if leftover >= HEADER else BLOCK_SIZE - HEADER
        for size in {0, 1, max(0, avail - 1), avail, avail + 1, avail + BLOCK_SIZE}:
            rng = random.Random(size)
            storage, acct, writer, records = _writer_at(leftover, rng)
            before = bytes(storage._files["edge.log"].data)
            payload = rng.randbytes(size)
            framed, _ = _reference_fragments(
                payload, len(before) % BLOCK_SIZE if leftover else BLOCK_SIZE
            )
            writer.append(payload, acct)
            assert bytes(storage._files["edge.log"].data) == before + framed
            assert list(LogReader(storage, "edge.log").records(acct)) == records + [
                payload
            ]


# ----------------------------------------------------------------------
# (b) the batch codec, one op and many, against the growing-buffer loop
# ----------------------------------------------------------------------
def _reference_encode_batch(sequence: int, ops) -> bytes:
    buf = bytearray()
    buf += sequence.to_bytes(8, "little")
    buf += len(ops).to_bytes(4, "little")
    for kind, key, value in ops:
        if kind not in (KIND_PUT, KIND_DELETE, KIND_VPTR):
            raise ValueError(f"bad op kind: {kind}")
        buf.append(kind)
        buf += encode_varint32(len(key))
        buf += key
        if kind != KIND_DELETE:
            buf += encode_varint32(len(value))
            buf += value
    return bytes(buf)


#: Lengths on both sides of every varint width a batch meets.
_LENGTHS = st.sampled_from([0, 1, 16, 127, 128, 1024, 16383, 16384, 70000])


class TestOneOpBatch:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([KIND_PUT, KIND_DELETE, KIND_VPTR]),
        _LENGTHS.filter(bool),
        _LENGTHS,
        st.integers(0, (1 << 56) - 1),
    )
    def test_equals_the_general_loop(self, kind, klen, vlen, sequence):
        op = (kind, b"k" * klen, b"" if kind == KIND_DELETE else b"v" * vlen)
        encoded = encode_batch(sequence, [op])
        assert encoded == _reference_encode_batch(sequence, [op])
        assert decode_batch(encoded) == (sequence, [op])
        assert encode_batch(sequence, [op, op]) == _reference_encode_batch(
            sequence, [op, op]
        )

    def test_a_delete_carries_no_value_even_if_handed_one(self):
        assert encode_batch(9, [(KIND_DELETE, b"k", b"ignored")]) == (
            _reference_encode_batch(9, [(KIND_DELETE, b"k", b"ignored")])
        )

    @pytest.mark.parametrize("ops", [[(7, b"k", b"v")], [(1, b"k", b"v"), (7, b"k", b"v")]])
    def test_bad_kind_rejected_on_both_paths(self, ops):
        with pytest.raises(ValueError):
            encode_batch(1, ops)


# ----------------------------------------------------------------------
# (c) skip-list heights against randrange
# ----------------------------------------------------------------------
def _reference_height(rng: random.Random) -> int:
    height = 1
    while height < _MAX_HEIGHT and rng.randrange(_BRANCHING) == 0:
        height += 1
    return height


@pytest.mark.parametrize("seed", [0, 1, 7, 1234567, 2**40 + 3])
def test_random_height_is_the_randrange_stream(seed):
    skiplist, rng = SkipList(seed), random.Random(seed)
    heights = [skiplist._random_height() for _ in range(100_000)]
    assert heights == [_reference_height(rng) for _ in range(100_000)]
    assert skiplist._rng.getstate() == rng.getstate()
    assert max(heights) > 4  # tall towers (several draws each) were covered


# ----------------------------------------------------------------------
# (d) put/delete and one-op write_batch are one path
# ----------------------------------------------------------------------
def _ops(seed: int, count: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        key = b"key%05d" % rng.randrange(400)
        if rng.random() < 0.15:
            ops.append((KIND_DELETE, key, b""))
        else:
            # Mixed sizes: under and over the value-log threshold below.
            ops.append((KIND_PUT, key, rng.randbytes(rng.choice([8, 40, 200, 700]))))
    return ops


def _wal_bytes(env) -> dict:
    return {
        name: bytes(env.storage._files[name].data)  # test support: raw view
        for name in env.storage.list_files("db/")
        if name.endswith(".log")
    }


def _observable(db, env, sink):
    part = db.stats_part()
    return {
        "wal": _wal_bytes(env),
        "manifest": _manifest_bytes(env),
        "digest": _digest(env),
        "clock": env.clock.now,
        "cpu": dict(env.storage.cpu.accounting),
        "ledger": part["ledger"],
        "health": part["health"],
        "metrics": db.get_property("repro.metrics"),
        "windows": db.get_property("repro.windows"),
        "last_sequence": db._last_sequence,
        "trace": None if sink is None else sink.getvalue(),
    }


def _manifest_bytes(env) -> bytes:
    """Raw, not read through the storage: a read would charge the clock."""
    return b"".join(
        bytes(env.storage._files[name].data)  # test support: raw view
        for name in sorted(env.storage.list_files("db/"))
        if name.startswith("db/MANIFEST-")
    )


def _drive(engine, ops, as_batches, *, vlog, traced, sync_writes):
    import io

    env = repro.Environment(cache_bytes=1 << 20)
    overrides = {"sync_writes": sync_writes}
    if vlog:
        overrides.update(value_separation_bytes=64, vlog_segment_bytes=8192)
    db = make_store(engine, env, **overrides)
    sink = None
    if traced:
        sink = io.StringIO()
        db.enable_tracing(TraceSink(sink))
    for kind, key, value in ops:
        if as_batches:
            db.write_batch([(kind, key, value)])
        elif kind == KIND_PUT:
            db.put(key, value)
        else:
            db.delete(key)
    db.wait_idle()
    return _observable(db, env, sink), dict(db.scan())


class TestOneWritePath:
    @pytest.mark.parametrize("sync_writes", [False, True], ids=["nosync", "sync"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("vlog", [False, True], ids=["novlog", "vlog"])
    @pytest.mark.parametrize("engine", ["pebblesdb", "leveldb"])
    def test_put_delete_equal_one_op_batches(self, engine, vlog, traced, sync_writes):
        ops = _ops(seed=11, count=900)
        direct, direct_scan = _drive(
            engine, ops, False, vlog=vlog, traced=traced, sync_writes=sync_writes
        )
        batched, batched_scan = _drive(
            engine, ops, True, vlog=vlog, traced=traced, sync_writes=sync_writes
        )
        assert direct_scan == batched_scan
        for name in direct:
            assert direct[name] == batched[name], name
        assert direct["clock"] == batched["clock"]  # floats, compared exactly
        model = {}
        for kind, key, value in ops:
            if kind == KIND_PUT:
                model[key] = value
            else:
                model.pop(key, None)
        assert direct_scan == model

    def test_a_batch_of_many_equals_its_ops_in_data(self):
        """Many ops in one batch share a WAL record (so bytes and clock
        differ from one-op writes) but must leave the same data."""
        ops = _ops(seed=5, count=600)
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        for at in range(0, len(ops), 7):
            db.write_batch(ops[at : at + 7])
        _, scan = _drive("pebblesdb", ops, False, vlog=False, traced=False, sync_writes=False)
        assert dict(db.scan()) == scan
        assert db.stats().puts + db.stats().deletes == len(ops)


# ----------------------------------------------------------------------
# (e) a torn append on the single-fragment path
# ----------------------------------------------------------------------
class TestTornSingleFragment:
    @pytest.mark.parametrize("engine", LSM_ENGINES)
    @pytest.mark.parametrize("torn", [0.0, 0.5, 1.0], ids=["clean", "half", "whole"])
    def test_put_fails_cleanly_burns_the_sequence_and_rotates(self, engine, torn):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(engine, env)
        db.put(b"before", b"1")
        wal_name, wal_size = db._wal.name, env.storage.size(db._wal.name)
        seq_before = db._last_sequence
        # A small record in a nearly empty block: the FULL-fragment path.
        assert wal_size + HEADER + 64 < BLOCK_SIZE
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(
                    0, op="append", name_pattern="db/*.log", torn_fraction=torn
                )
            )
        )
        with pytest.raises(TransientIOError):
            db.put(b"victim", b"2")
        env.storage.set_fault_injector(None)
        # Clean failure: nothing in the memtable, the store not degraded.
        assert db.get(b"victim") is None and not db.is_degraded
        landed = env.storage.size(wal_name) - wal_size
        assert (landed > 0) == (torn > 0)
        # The sequence is burned exactly when bytes landed ...
        assert db._last_sequence == seq_before + (1 if landed else 0)
        # ... and no acknowledged write goes into the file after the tear.
        assert db._wal.name != wal_name
        db.put(b"after", b"3")
        assert env.storage.size(wal_name) == wal_size + landed
        assert db._last_sequence == seq_before + (2 if landed else 1)
        env.storage.crash(mode="torn", seed=3)
        db2 = make_store(engine, env)
        got = dict(db2.scan())
        # Nothing phantom: the failed put is absent whatever survived.
        assert b"victim" not in got
        assert got.get(b"before", b"1") == b"1" and got.get(b"after", b"3") == b"3"
        db2.check_invariants()

    def test_synced_store_recovers_exactly_the_acknowledged_writes(self):
        for k in range(6):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, sync_writes=True)
            env.storage.set_fault_injector(
                FaultInjector(
                    FaultPlan.fail_nth(
                        k, op="append", name_pattern="db/*.log", torn_fraction=0.7
                    )
                )
            )
            model = {}
            for i in range(12):
                key, value = b"k%03d" % i, b"v%03d" % i
                try:
                    db.put(key, value)
                    model[key] = value
                except TransientIOError:
                    assert i == k
            assert len(model) == 11
            env.storage.set_fault_injector(None)
            env.storage.crash()
            db2 = make_store("pebblesdb", env, sync_writes=True)
            assert dict(db2.scan()) == model, f"k={k}"
            assert db2._last_sequence >= 12  # the torn record's number is not reused
