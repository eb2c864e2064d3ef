"""NoSQL application layers: document codec, HyperDex, MongoDB, adapter."""

import pytest

import repro
from repro.apps import (
    HyperDexStore,
    MongoStore,
    YcsbAppAdapter,
    decode_document,
    encode_document,
)
from repro.errors import InvalidArgumentError
from repro.workloads import YCSB_WORKLOADS, YcsbRunner
from hypothesis import given, settings, strategies as st


class TestDocumentCodec:
    def test_roundtrip_mixed_types(self):
        doc = {"name": "alice", "age": 30, "blob": b"\x00\xff", "neg": -5}
        assert decode_document(encode_document(doc)) == doc

    def test_empty_document(self):
        assert decode_document(encode_document({})) == {}

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            encode_document({"flag": True})

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.binary(max_size=32),
                st.text(max_size=16),
                st.integers(min_value=-(2**62), max_value=2**62),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, doc):
        assert decode_document(encode_document(doc)) == doc


@pytest.fixture
def hyperdex():
    env = repro.Environment(cache_bytes=1 << 20)
    kv = repro.open_store("pebblesdb", env.storage)
    store = HyperDexStore(kv)
    store.add_space("users", ["city", "team"])
    return store, env


class TestHyperDex:
    def test_put_get(self, hyperdex):
        store, _ = hyperdex
        store.put("users", b"u1", {"city": "austin", "age": 31})
        assert store.get("users", b"u1") == {"city": "austin", "age": 31}

    def test_search_by_attribute(self, hyperdex):
        store, _ = hyperdex
        for i, city in enumerate(["austin", "austin", "shanghai"]):
            store.put("users", b"u%d" % i, {"city": city})
        assert sorted(store.search("users", "city", "austin")) == [b"u0", b"u1"]

    def test_update_moves_index_entry(self, hyperdex):
        store, _ = hyperdex
        store.put("users", b"u1", {"city": "austin"})
        store.put("users", b"u1", {"city": "tokyo"})
        assert store.search("users", "city", "austin") == []
        assert store.search("users", "city", "tokyo") == [b"u1"]

    def test_delete_cleans_indexes(self, hyperdex):
        store, _ = hyperdex
        store.put("users", b"u1", {"city": "austin"})
        assert store.delete("users", b"u1")
        assert store.get("users", b"u1") is None
        assert store.search("users", "city", "austin") == []
        assert not store.delete("users", b"u1")

    def test_unsearchable_attribute_rejected(self, hyperdex):
        store, _ = hyperdex
        with pytest.raises(InvalidArgumentError):
            store.search("users", "age", 31)

    def test_unknown_space_rejected(self, hyperdex):
        store, _ = hyperdex
        with pytest.raises(InvalidArgumentError):
            store.get("nope", b"k")

    def test_scan_in_key_order(self, hyperdex):
        store, _ = hyperdex
        for key in (b"c", b"a", b"b"):
            store.put("users", key, {"city": "x"})
        got = [k for k, _ in store.scan("users", b"a")]
        assert got == [b"a", b"b", b"c"]

    def test_read_before_write_costs_more_time(self):
        times = {}
        for rbw in (True, False):
            env = repro.Environment(cache_bytes=512 * 1024)
            kv = repro.open_store("pebblesdb", env.storage)
            store = HyperDexStore(kv, read_before_write=rbw, app_overhead=0.0)
            store.add_space("s", [])
            # Build a dataset large enough that gets cost real IO.
            for i in range(1500):
                store.put("s", b"k%06d" % i, {"v": b"x" * 256})
            t0 = env.now
            for i in range(500):
                store.put("s", b"k%06d" % i, {"v": b"y" * 256})
            times[rbw] = env.now - t0
        assert times[True] > times[False]


@pytest.fixture
def mongo():
    env = repro.Environment(cache_bytes=1 << 20)
    kv = repro.open_store("wiredtiger", env.storage)
    return MongoStore(kv), env


class TestMongo:
    def test_insert_assigns_id(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        doc_id = coll.insert_one({"x": 1})
        assert coll.find_one(doc_id) == {"_id": doc_id, "x": 1}

    def test_update_merges_fields(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        doc_id = coll.insert_one({"x": 1, "y": 2})
        assert coll.update_one(doc_id, {"y": 3, "z": 4})
        assert coll.find_one(doc_id) == {"_id": doc_id, "x": 1, "y": 3, "z": 4}
        assert not coll.update_one(b"missing", {"x": 0})

    def test_secondary_index_query(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        coll.create_index("team")
        a = coll.insert_one({"team": "red"})
        coll.insert_one({"team": "blue"})
        found = coll.find_by("team", "red")
        assert [d["_id"] for d in found] == [a]

    def test_index_backfills_existing_docs(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        doc_id = coll.insert_one({"team": "red"})
        coll.create_index("team")
        assert [d["_id"] for d in coll.find_by("team", "red")] == [doc_id]

    def test_index_updated_on_update(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        coll.create_index("team")
        doc_id = coll.insert_one({"team": "red"})
        coll.update_one(doc_id, {"team": "blue"})
        assert coll.find_by("team", "red") == []
        assert [d["_id"] for d in coll.find_by("team", "blue")] == [doc_id]

    def test_delete_removes_doc_and_index(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        coll.create_index("team")
        doc_id = coll.insert_one({"team": "red"})
        assert coll.delete_one(doc_id)
        assert coll.find_one(doc_id) is None
        assert coll.find_by("team", "red") == []

    def test_unindexed_query_rejected(self, mongo):
        store, _ = mongo
        with pytest.raises(InvalidArgumentError):
            store.collection("c").find_by("nope", 1)

    def test_collections_isolated(self, mongo):
        store, _ = mongo
        a = store.collection("a")
        b = store.collection("b")
        a.insert_one({"_id": b"k", "v": 1})
        assert b.find_one(b"k") is None

    def test_scan(self, mongo):
        store, _ = mongo
        coll = store.collection("c")
        for key in (b"k2", b"k1", b"k3"):
            coll.insert_one({"_id": key})
        assert [k for k, _ in coll.scan()] == [b"k1", b"k2", b"k3"]


class TestAdapter:
    @pytest.mark.parametrize("app_kind", ["hyperdex", "mongo"])
    def test_ycsb_through_app(self, app_kind):
        env = repro.Environment(cache_bytes=1 << 20)
        kv = repro.open_store("pebblesdb", env.storage)
        app = HyperDexStore(kv) if app_kind == "hyperdex" else MongoStore(kv)
        adapter = YcsbAppAdapter(app)
        runner = YcsbRunner(adapter, env.storage, record_count=400, value_size=128)
        runner.load()
        for name in ("A", "E"):
            result = runner.run(YCSB_WORKLOADS[name], 100)
            assert result.ops == 100

    def test_adapter_roundtrip(self):
        env = repro.Environment(cache_bytes=1 << 20)
        kv = repro.open_store("pebblesdb", env.storage)
        adapter = YcsbAppAdapter(HyperDexStore(kv))
        adapter.put(b"k1", b"v1")
        assert adapter.get(b"k1") == b"v1"
        adapter.put(b"k2", b"v2")
        it = adapter.seek(b"k1")
        assert (it.key(), it.value()) == (b"k1", b"v1")
        it.next()
        assert it.key() == b"k2"
        adapter.delete(b"k1")
        assert adapter.get(b"k1") is None

    def test_closing_the_adapter_closes_the_store_under_the_app(self):
        env = repro.Environment(cache_bytes=1 << 20)
        kv = repro.open_store("pebblesdb", env.storage)
        adapter = YcsbAppAdapter(MongoStore(kv))
        adapter.put(b"k1", b"v1")
        adapter.close()
        with pytest.raises(repro.errors.ReproError):
            kv.get(b"k1")

    @pytest.mark.parametrize("app_kind", ["hyperdex", "mongo"])
    def test_ledger_and_tracing_are_the_stores_under_the_app(self, app_kind):
        import io

        from repro.obs.trace import TraceSink

        env = repro.Environment(cache_bytes=1 << 20)
        kv = repro.open_store("pebblesdb", env.storage)
        adapter = YcsbAppAdapter(HyperDexStore(kv) if app_kind == "hyperdex" else MongoStore(kv))
        out = io.StringIO()
        tracer = adapter.enable_tracing(TraceSink(out))
        assert kv.tracer is tracer
        for i in range(300):
            adapter.put(b"k%04d" % i, b"v" * 128)
        kv.flush_memtable()
        assert out.getvalue(), "no span reached the sink"
        ledger = adapter.io_ledger()
        assert ledger.total_write_bytes > 0
        assert ledger.to_json() == kv.io_ledger().to_json()

    def test_app_overhead_dilutes_engine_gain(self):
        """Paper section 5.4: app latency shrinks PebblesDB's advantage."""
        throughput = {}
        for overhead in (0.0, 150e-6):
            env = repro.Environment(cache_bytes=512 * 1024)
            kv = repro.open_store("pebblesdb", env.storage)
            app = HyperDexStore(kv, app_overhead=overhead)
            adapter = YcsbAppAdapter(app)
            t0 = env.now
            for i in range(500):
                adapter.put(b"k%05d" % i, b"v" * 128)
            throughput[overhead] = 500 / (env.now - t0)
        assert throughput[0.0] > 2 * throughput[150e-6]


class TestHyperDexRangeSearch:
    def test_range_over_int_attribute(self, hyperdex):
        store, _ = hyperdex
        store.add_space("emp", ["level"])
        for i, level in enumerate([3, 5, 7, 9, 11]):
            store.put("emp", b"e%d" % i, {"level": level})
        assert sorted(store.search_range("emp", "level", 5, 9)) == [b"e1", b"e2", b"e3"]

    def test_range_over_string_attribute(self, hyperdex):
        store, _ = hyperdex
        for key, city in [(b"a", "austin"), (b"b", "boston"), (b"s", "shanghai")]:
            store.put("users", key, {"city": city})
        assert sorted(store.search_range("users", "city", "a", "c")) == [b"a", b"b"]

    def test_range_empty_result(self, hyperdex):
        store, _ = hyperdex
        store.put("users", b"x", {"city": "austin"})
        assert store.search_range("users", "city", "y", "z") == []

    def test_range_unsearchable_rejected(self, hyperdex):
        store, _ = hyperdex
        with pytest.raises(InvalidArgumentError):
            store.search_range("users", "age", 1, 2)

    def test_range_reflects_updates(self, hyperdex):
        store, _ = hyperdex
        store.add_space("emp", ["level"])
        store.put("emp", b"e", {"level": 5})
        store.put("emp", b"e", {"level": 50})
        assert store.search_range("emp", "level", 1, 10) == []
        assert store.search_range("emp", "level", 40, 60) == [b"e"]
