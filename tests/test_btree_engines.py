"""B+tree structure and the btree/wiredtiger stores."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engines.btree import BPlusTree
from repro.engines.btree.store import BPlusTreeStore
from repro.engines.wiredtiger import WiredTigerStore
from repro.obs.trace import TraceSink, read_trace


class TestBPlusTree:
    def test_insert_get(self):
        tree = BPlusTree(fanout=8)
        tree.put(b"b", b"2")
        tree.put(b"a", b"1")
        value, _ = tree.get(b"a")
        assert value == b"1"
        assert tree.get(b"missing")[0] is None
        assert len(tree) == 2

    def test_overwrite_keeps_size(self):
        tree = BPlusTree()
        tree.put(b"k", b"1")
        tree.put(b"k", b"2")
        assert len(tree) == 1
        assert tree.get(b"k")[0] == b"2"

    def test_delete(self):
        tree = BPlusTree()
        tree.put(b"k", b"v")
        removed, _ = tree.delete(b"k")
        assert removed
        assert tree.get(b"k")[0] is None
        removed, _ = tree.delete(b"k")
        assert not removed

    def test_splits_preserve_order(self):
        tree = BPlusTree(fanout=4)
        keys = [b"k%05d" % i for i in range(2000)]
        random.Random(1).shuffle(keys)
        for k in keys:
            tree.put(k, b"v" * 40)
        tree.check_invariants()
        got = [k for k, _, _ in tree.iterate_from(b"")]
        assert got == sorted(keys)
        assert tree.page_count > 10

    def test_iterate_from_middle(self):
        tree = BPlusTree(fanout=4)
        for i in range(100):
            tree.put(b"k%03d" % i, b"v")
        got = [k for k, _, _ in tree.iterate_from(b"k050")]
        assert got[0] == b"k050"
        assert len(got) == 50

    def test_dirty_page_tracking(self):
        tree = BPlusTree()
        tree.put(b"a", b"1")
        dirty = tree.take_dirty()
        assert dirty
        assert not tree.take_dirty()

    @given(
        st.lists(
            st.tuples(st.booleans(), st.binary(min_size=1, max_size=6)),
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_model_equivalence(self, ops):
        tree = BPlusTree(fanout=4)
        model = {}
        for is_put, key in ops:
            if is_put:
                tree.put(key, key + b"!")
                model[key] = key + b"!"
            else:
                tree.delete(key)
                model.pop(key, None)
        tree.check_invariants()
        assert len(tree) == len(model)
        for key, value in model.items():
            assert tree.get(key)[0] == value


class TestBPlusTreeStore:
    @pytest.fixture
    def db(self):
        env = repro.Environment(cache_bytes=1 << 20)
        return repro.open_store("btree", env.storage), env

    def test_roundtrip(self, db):
        store, _ = db
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_seek_and_range(self, db):
        store, _ = db
        for i in range(50):
            store.put(b"k%03d" % i, b"%d" % i)
        rows = store.range_query(b"k010", b"k012")
        assert [k for k, _ in rows] == [b"k010", b"k011", b"k012"]

    def test_write_amplification_is_high(self, db):
        """Section 2.2: in-place page writes amplify small values hugely."""
        store, _ = db
        for i in range(600):
            store.put(b"key%09d" % (i * 7919 % 10**8), b"v" * 128)
        amp = store.stats().write_amplification
        assert amp > 10, f"B+tree write amp unexpectedly low: {amp}"

    def test_higher_amp_than_lsm(self):
        amps = {}
        for engine in ("btree", "hyperleveldb"):
            env = repro.Environment(cache_bytes=1 << 20)
            store = repro.open_store(engine, env.storage)
            for i in range(600):
                store.put(b"key%09d" % (i * 7919 % 10**8), b"v" * 128)
            if hasattr(store, "wait_idle"):
                store.wait_idle()
            amps[engine] = store.stats().write_amplification
        assert amps["btree"] > amps["hyperleveldb"]


class TestWiredTigerStore:
    @pytest.fixture
    def db(self):
        env = repro.Environment(cache_bytes=1 << 20)
        return repro.open_store("wiredtiger", env.storage), env

    def test_roundtrip(self, db):
        store, _ = db
        for i in range(200):
            store.put(b"k%04d" % i, b"v%d" % i)
        assert store.get(b"k0042") == b"v42"
        store.delete(b"k0042")
        assert store.get(b"k0042") is None
        store.check_invariants()

    def test_checkpoints_run(self, db):
        store, env = db
        for i in range(3000):
            store.put(b"k%05d" % i, b"v" * 128)
        store.close()
        assert store.stats().flushes >= 1, "no checkpoint ever completed"

    def test_amp_between_lsm_and_btree(self):
        """Figure 5.6b shape: WT writes less than the B+tree, more than
        PebblesDB."""
        amps = {}
        for engine in ("btree", "wiredtiger", "pebblesdb"):
            env = repro.Environment(cache_bytes=1 << 20)
            store = repro.open_store(engine, env.storage)
            rng = random.Random(5)
            for i in range(1500):
                store.put(b"key%09d" % rng.randrange(10**7), b"v" * 128)
            if hasattr(store, "wait_idle"):
                store.wait_idle()
            store.close()
            amps[engine] = store.stats().write_amplification
        assert amps["wiredtiger"] < amps["btree"]
        assert amps["pebblesdb"] < amps["btree"]

    def test_checkpoint_stall_is_charged_to_a_cause(self, db):
        """The eviction-pressure wait behind a running checkpoint is a
        stall under one cause label, with its ``stall`` span, so the
        per-cause counters sum to ``stall.seconds`` exactly."""
        store, _ = db
        buffer = io.StringIO()
        store.enable_tracing(TraceSink(buffer))
        rng = random.Random(1)
        for _ in range(20_000):
            store.put(b"key%09d" % rng.randrange(10**7), b"v" * 200)
        store.close()
        stall = store.stats().stall_seconds
        causes = {
            dict(metric.labels)["cause"]: metric.value
            for metric in store.registry
            if metric.name == "stall.cause_seconds"
        }
        assert stall > 0.0
        assert set(causes) == {"checkpoint_wait"}
        assert sum(causes.values()) == stall
        spans = [s for s in read_trace(io.StringIO(buffer.getvalue())) if s["name"] == "stall"]
        assert spans
        assert sum(s["end"] - s["start"] for s in spans) == pytest.approx(stall)

    def test_scan(self, db):
        store, _ = db
        for i in range(30):
            store.put(b"k%02d" % i, b"v")
        it = store.seek(b"k10")
        keys = []
        while it.valid and len(keys) < 5:
            keys.append(it.key())
            it.next()
        assert keys == [b"k10", b"k11", b"k12", b"k13", b"k14"]


class TestJournalRecovery:
    @pytest.mark.parametrize("engine", ["btree", "wiredtiger"])
    def test_reopen_replays_journal(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        store = repro.open_store(engine, env.storage, prefix="db/")
        model = {}
        for i in range(400):
            k, v = b"k%04d" % i, b"v%04d" % i
            store.put(k, v)
            model[k] = v
        for i in range(0, 400, 3):
            store.delete(b"k%04d" % i)
            model.pop(b"k%04d" % i, None)
        store.close()
        store2 = repro.open_store(engine, env.storage, prefix="db/")
        for k, v in model.items():
            assert store2.get(k) == v
        assert store2.get(b"k0003") is None
        store2.check_invariants()

    @pytest.mark.parametrize("engine", ["btree", "wiredtiger"])
    def test_crash_preserves_synced_journal(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        store = repro.open_store(engine, env.storage, prefix="db/")
        for i in range(200):
            store.put(b"k%04d" % i, b"v")
        # Make the journal durable, then lose power.
        store._journal.sync(store._acct)
        env.storage.crash()
        store2 = repro.open_store(engine, env.storage, prefix="db/")
        assert store2.get(b"k0100") == b"v"
        store2.check_invariants()
