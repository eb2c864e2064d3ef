"""The repro.obs subsystem: metrics registry, histograms, and tracing.

Covers the observability contracts this layer promises:

* histogram percentiles within one bucket width of the exact sample
  quantile, with bounded memory;
* byte-identical trace files for the same seed + workload (single
  engine and a sharded cluster), and zero perturbation of the simulated
  run when tracing is on;
* the span-nesting invariant (no span closes before its children);
* one trace id spanning client -> shard server -> engine -> background
  work for a cluster operation;
* StoreStats staying a live view over the registry.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

import repro
from repro.obs.metrics import HIST_GROWTH, Histogram, MetricsRegistry
from repro.obs.trace import TraceSink, Tracer, read_trace, verify_nesting
from tests.conftest import make_store


def _exact_percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class TestHistogram:
    def test_percentile_within_one_bucket_width(self):
        rng = random.Random(11)
        hist = Histogram("lat")
        samples = []
        for _ in range(5000):
            value = rng.expovariate(1.0 / 50e-6)  # latency-shaped, ~50us
            samples.append(value)
            hist.record(value)
        assert len(hist) == 5000
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            exact = _exact_percentile(samples, q)
            estimate = hist.percentile(q)
            width = hist.bucket_width_at(exact)
            assert abs(estimate - exact) <= width, (
                f"p{q}: |{estimate} - {exact}| > bucket width {width}"
            )

    def test_bounded_memory(self):
        hist = Histogram("lat")
        for i in range(100_000):
            hist.record((i % 977 + 1) * 1e-7)
        # A raw list would hold 100k floats; the buckets stay O(log range).
        assert len(hist.buckets) < 80
        assert hist.count == 100_000

    def test_relative_error_is_growth_bounded(self):
        hist = Histogram("lat")
        rng = random.Random(5)
        samples = [rng.uniform(1e-6, 1e-2) for _ in range(2000)]
        for value in samples:
            hist.record(value)
        for q in (0.5, 0.9, 0.99):
            exact = _exact_percentile(samples, q)
            assert hist.percentile(q) <= exact * HIST_GROWTH + 1e-12
            assert hist.percentile(q) >= exact / HIST_GROWTH - 1e-12

    def test_min_max_clamping(self):
        hist = Histogram("lat")
        hist.record(3.0)
        hist.record(5.0)
        assert hist.percentile(0.0) >= 3.0
        assert hist.percentile(1.0) <= 5.0

    def test_merge(self):
        a, b = Histogram("x"), Histogram("x")
        for i in range(10):
            a.record(i + 1.0)
            b.record((i + 1.0) * 100)
        a.merge(b)
        assert a.count == 20
        assert a.max == 1000.0
        with pytest.raises(ValueError):
            a.merge(Histogram("x", lo=1.0))


class TestRegistry:
    def test_exposition_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("op.puts").inc(3)
        reg.gauge("store.memory_bytes").set(42)
        reg.histogram("flush.seconds").record(0.25)
        reg.counter("read.files_probed", level=2).inc()
        text = reg.to_text()
        assert "# TYPE repro_op_puts counter" in text
        assert "repro_op_puts 3" in text
        assert 'repro_read_files_probed{level="2"} 1' in text
        assert "repro_flush_seconds_count 1" in text
        assert text == "".join(sorted(text.splitlines(True), key=lambda _: 0))

    def test_delta_and_merge(self):
        reg = MetricsRegistry()
        counter = reg.counter("op.gets")
        counter.inc(5)
        before = reg.snapshot()
        counter.inc(2)
        assert reg.delta(before)["op.gets"] == 2

        other = MetricsRegistry()
        other.counter("op.gets").inc(10)
        other.gauge("compaction.parallel_peak").set(3)
        reg.merge(other)
        assert reg.value("op.gets") == 17
        assert reg.value("compaction.parallel_peak") == 3

    def test_snapshot_and_delta_of_every_metric_kind(self):
        reg = MetricsRegistry()
        reg.counter("op.puts").inc(3)
        reg.gauge("store.memory_bytes").set(42)
        hist = reg.histogram("flush.seconds")
        hist.record(0.5)
        hist.record(0.25)
        before = reg.snapshot()
        assert before["op.puts"] == 3 and before["store.memory_bytes"] == 42
        flush = before["flush.seconds"]
        assert (flush["count"], flush["sum"], flush["min"], flush["max"]) == (2, 0.75, 0.25, 0.5)
        assert sum(flush["buckets"].values()) == 2
        hist.record(1.0)
        after = reg.delta(before)["flush.seconds"]
        assert (after["count"], after["sum"], sum(after["buckets"].values())) == (1, 1.0, 1)
        assert reg.delta(before)["store.memory_bytes"] == 42
        empty = MetricsRegistry()
        empty.histogram("flush.seconds")
        assert empty.snapshot()["flush.seconds"]["min"] == 0.0

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_exposition_order_is_insertion_independent(self):
        """Scrape joins must be able to diff two registries textually, so
        ``to_text`` sorts by metric name, not creation order."""
        forward, backward = MetricsRegistry(), MetricsRegistry()
        entries = [("op.puts", 3), ("flush.bytes", 9), ("wal.syncs", 2)]
        for name, value in entries:
            forward.counter(name).inc(value)
        for name, value in reversed(entries):
            backward.counter(name).inc(value)
        backward.counter("read.probes", level=1).inc()
        forward.counter("read.probes", level=1).inc()
        assert forward.to_text() == backward.to_text()

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("files.open", path='db/"a"\\b\nc').inc()
        text = reg.to_text()
        assert '{path="db/\\"a\\"\\\\b\\nc"}' in text
        assert "\nc\"" not in text  # no raw newline inside the label

    def test_empty_registry_exposes_nothing(self):
        assert MetricsRegistry().to_text() == ""


def _exercise(db, n=400):
    for i in range(n):
        db.put(b"key%06d" % i, b"v" * 64)
    for i in range(0, n, 4):
        db.get(b"key%06d" % i)
    it = db.seek(b"key%06d" % (n // 2))
    for _ in range(10):
        if not it.valid:
            break
        it.next()
    it.close()
    db.wait_idle()


def _digest(env) -> str:
    digest = hashlib.sha256()
    for name in env.storage.list_files(""):
        data = env.storage._files[name].data  # test support: raw view
        digest.update(name.encode())
        digest.update(bytes(data))
    return digest.hexdigest()


class TestEngineTraceDeterminism:
    def _run(self, traced: bool):
        env = repro.Environment(cache_bytes=4 * 1024 * 1024)
        db = make_store("pebblesdb", env)
        buffer = io.StringIO()
        if traced:
            db.enable_tracing(TraceSink(buffer))
        _exercise(db)
        digest, now = _digest(env), env.now
        stats = db.stats()
        db.close()
        return buffer.getvalue(), digest, now, stats

    def test_same_seed_byte_identical_trace(self):
        trace_a = self._run(traced=True)[0]
        trace_b = self._run(traced=True)[0]
        assert trace_a, "trace is empty"
        assert trace_a == trace_b

    def test_tracing_does_not_perturb_the_simulation(self):
        _, digest_on, now_on, stats_on = self._run(traced=True)
        _, digest_off, now_off, stats_off = self._run(traced=False)
        assert digest_on == digest_off
        assert now_on == now_off
        assert vars(stats_on) == vars(stats_off)

    def test_nesting_invariant(self):
        trace = self._run(traced=True)[0]
        spans = read_trace(io.StringIO(trace))
        verify_nesting(spans)
        names = {span["name"] for span in spans}
        assert "write" in names and "get" in names
        assert "flush" in names

    def test_background_spans_link_to_scheduler(self):
        trace = self._run(traced=True)[0]
        spans = read_trace(io.StringIO(trace))
        by_id = {span["span"]: span for span in spans}
        flushes = [s for s in spans if s["name"] == "flush"]
        assert flushes
        linked = [s for s in flushes if s.get("parent") in by_id]
        assert linked, "no flush span links back to the span that scheduled it"


class TestClusterTraceDeterminism:
    def _run_cluster(self, path):
        from repro.net.client import BlockingClusterClient
        from repro.net.server import KVServer, ServerConfig

        server = KVServer(ServerConfig(shards=4, seed=3))
        client = BlockingClusterClient(server)
        sink = client.enable_tracing(path)
        for i in range(600):
            client.put(b"user%06d" % i, b"v" * 300)
        for i in range(0, 600, 6):
            client.get(b"user%06d" % i)
        client.scan(b"user000000", b"user000050")
        client.wait_idle()
        client.close()
        sink.close()
        with open(path) as handle:
            return handle.read()

    def test_sharded_trace_byte_identical(self, tmp_path):
        trace_a = self._run_cluster(str(tmp_path / "a.jsonl"))
        trace_b = self._run_cluster(str(tmp_path / "b.jsonl"))
        assert trace_a, "cluster trace is empty"
        assert trace_a == trace_b

    def test_one_trace_spans_client_server_engine_background(self, tmp_path):
        trace = self._run_cluster(str(tmp_path / "t.jsonl"))
        spans = read_trace(io.StringIO(trace))
        verify_nesting(spans)
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)
        # At least one client put's trace reaches all the way down into
        # background work scheduled by the engine write it caused.
        full = [
            chain
            for chain in by_trace.values()
            if {s["kind"] for s in chain} >= {"client", "server", "internal", "background"}
        ]
        assert full, "no trace covers client -> server -> engine -> background"
        chain = full[0]
        names = {s["name"] for s in chain}
        assert "client.put" in names and "server.put" in names
        assert "write" in names
        # Every span in the chain shares the one trace id by construction;
        # check the parent links actually connect the layers.
        by_id = {s["span"]: s for s in chain}
        server_spans = [s for s in chain if s["kind"] == "server"]
        assert any(s.get("parent") in by_id for s in server_spans)

    def test_metrics_wire_op(self):
        from repro.net.client import BlockingClusterClient
        from repro.net.server import KVServer, ServerConfig

        server = KVServer(ServerConfig(shards=2, seed=1))
        client = BlockingClusterClient(server)
        client.put(b"user1", b"x")
        texts = client.all_metrics()
        assert len(texts) == 2
        assert all(t and "# TYPE repro_op_puts counter" in t for t in texts)
        assert server.metrics_text().startswith("# TYPE")
        client.close()


class TestWireTraceField:
    def test_trace_field_roundtrip(self):
        from repro.net.protocol import Op, Request, decode_payload

        request = Request(op=Op.GET, request_id=9, shard=1, key=b"k", trace="t1/s1")
        decoded = decode_payload(request.encode())
        assert decoded.trace == "t1/s1"
        assert decoded.key == b"k"

    def test_untraced_payload_has_no_extra_bytes(self):
        from repro.net.protocol import Op, Request, decode_payload

        traced = Request(op=Op.PUT, request_id=1, key=b"k", value=b"v", trace="t/s")
        plain = Request(op=Op.PUT, request_id=1, key=b"k", value=b"v")
        assert len(plain.encode()) < len(traced.encode())
        assert decode_payload(plain.encode()).trace == ""

    def test_metrics_op_roundtrip(self):
        from repro.net.protocol import Op, Request, decode_payload

        request = Request(op=Op.METRICS, request_id=4, shard=3)
        decoded = decode_payload(request.encode())
        assert decoded.op == Op.METRICS and decoded.shard == 3


class TestStatsView:
    def test_store_stats_is_a_registry_view(self):
        env = repro.Environment()
        db = make_store("pebblesdb", env)
        for i in range(20):
            db.put(b"k%04d" % i, b"v")
        stats = db.stats()
        assert stats.puts == 20
        assert db.registry.value("op.puts") == 20
        db.get(b"k0001")
        assert db.registry.value("op.gets") == 1
        assert db.stats().gets == 1
        db.close()

    def test_health_property_carries_scheduler_counters(self):
        env = repro.Environment()
        db = make_store("pebblesdb", env)
        health = db.get_property("repro.health")
        assert health.split()[0] in ("ok", "degraded")
        assert "parallel-peak=" in health and "conflict-stall=" in health
        db.close()


class TestPointTracer:
    def test_span_ids_are_deterministic(self):
        sink_a, sink_b = io.StringIO(), io.StringIO()
        for sink in (sink_a, sink_b):
            tracer = Tracer(TraceSink(sink), component="c", seed=9)
            with tracer.span("outer"):
                with tracer.span("inner", depth=2):
                    pass
            tracer.point("evt", at=1.5)
        assert sink_a.getvalue() == sink_b.getvalue()
        spans = read_trace(io.StringIO(sink_a.getvalue()))
        assert [s["name"] for s in spans] == ["inner", "outer", "evt"]
        assert all(s["span"].startswith("c-9-") for s in spans)
