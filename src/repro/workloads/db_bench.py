"""The db_bench micro-benchmark suite (paper section 5.2).

Mirrors the LevelDB ``db_bench`` workloads the paper runs: ``fillseq``,
``fillrandom``, ``readrandom``, ``seekrandom``, ``deleterandom``,
``overwrite`` (updates), plus a mixed readwhilewriting-style workload for
the concurrency experiment.  Each run reports throughput in simulated
KOps/s and the exact device IO the store performed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engines.base import KeyValueStore
from repro.obs.metrics import Histogram
from repro.sim.storage import SimulatedStorage
from repro.workloads.distributions import KeyCodec, value_bytes


def _latency_histogram() -> Histogram:
    """Bounded-memory per-op latency sink (replaces raw sample lists)."""
    return Histogram("latency_seconds")


@dataclass
class BenchResult:
    """Outcome of one micro-benchmark phase."""

    name: str
    ops: int
    elapsed_seconds: float
    device_bytes_written: int
    device_bytes_read: int
    user_bytes_written: int
    stall_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def kops(self) -> float:
        """Throughput in thousands of operations per simulated second."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.ops / self.elapsed_seconds / 1000.0

    #: Per-operation simulated latency distribution, log-bucketed so a
    #: multi-million-op run stays O(buckets) not O(ops); percentiles are
    #: within one bucket width (~19%) of the exact sample quantile.
    latencies: Optional[Histogram] = None

    @property
    def write_amplification(self) -> float:
        if self.user_bytes_written == 0:
            return 0.0
        return self.device_bytes_written / self.user_bytes_written

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (q in [0, 1]); 0.0 if unsampled."""
        if not self.latencies:
            return 0.0
        return self.latencies.percentile(q)

    def row(self) -> str:
        text = (
            f"{self.name:<16} {self.ops:>9} ops  {self.kops:>9.2f} KOps/s  "
            f"W {self.device_bytes_written / 1e6:>8.1f} MB  "
            f"R {self.device_bytes_read / 1e6:>8.1f} MB  "
            f"amp {self.write_amplification:>5.2f}"
        )
        if self.latencies:
            text += (
                f"  p50 {self.percentile(0.5) * 1e6:>7.1f}us"
                f"  p95 {self.percentile(0.95) * 1e6:>7.1f}us"
                f"  p99 {self.percentile(0.99) * 1e6:>8.1f}us"
            )
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (percentiles included, raw samples dropped)."""
        out: Dict[str, object] = {
            "name": self.name,
            "ops": self.ops,
            "elapsed_seconds": self.elapsed_seconds,
            "kops_per_sec": round(self.kops, 3),
            "device_bytes_written": self.device_bytes_written,
            "device_bytes_read": self.device_bytes_read,
            "user_bytes_written": self.user_bytes_written,
            "write_amplification": round(self.write_amplification, 4),
            "stall_seconds": self.stall_seconds,
        }
        if self.latencies:
            out["latency_us"] = {
                "p50": round(self.percentile(0.5) * 1e6, 3),
                "p95": round(self.percentile(0.95) * 1e6, 3),
                "p99": round(self.percentile(0.99) * 1e6, 3),
                "max": round(self.latencies.max * 1e6, 3),
                "samples": len(self.latencies),
            }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


class PhaseMeter:
    """A :class:`BenchResult` is the ``stats()`` delta across one phase.

    Mixin for runners holding ``self.db`` and ``self.storage``.
    """

    def _snapshot(self):
        stats = self.db.stats()
        return (
            self.storage.clock.now,
            stats.device_bytes_written,
            stats.device_bytes_read,
            stats.user_bytes_written,
            stats.stall_seconds,
            stats.block_cache_hits,
            stats.block_cache_misses,
        )

    def _result(self, name: str, ops: int, before) -> BenchResult:
        after = self._snapshot()
        result = BenchResult(
            name=name,
            ops=ops,
            elapsed_seconds=after[0] - before[0],
            device_bytes_written=after[1] - before[1],
            device_bytes_read=after[2] - before[2],
            user_bytes_written=after[3] - before[3],
            stall_seconds=after[4] - before[4],
        )
        # Decoded-block cache traffic during this phase (host-side
        # wall-clock memoization; no bearing on the simulated numbers).
        hits = after[5] - before[5]
        misses = after[6] - before[6]
        if hits or misses:
            result.extra["block_cache_hits"] = hits
            result.extra["block_cache_misses"] = misses
            result.extra["block_cache_hit_rate"] = hits / (hits + misses)
        return result


class DBBench(PhaseMeter):
    """Drives micro-benchmarks against one store on one simulated device."""

    def __init__(
        self,
        db: KeyValueStore,
        storage: SimulatedStorage,
        *,
        num_keys: int = 20000,
        value_size: int = 1024,
        key_width: int = 16,
        seed: int = 0,
    ) -> None:
        self.db = db
        self.storage = storage
        self.num_keys = num_keys
        self.value_size = value_size
        self.codec = KeyCodec(key_width)
        self.seed = seed
        self._value_version = 0

    def _value(self, index: int) -> bytes:
        return value_bytes(index + self._value_version * self.num_keys, self.value_size)

    # ------------------------------------------------------------------
    # Write workloads
    # ------------------------------------------------------------------
    def fill_seq(self, count: Optional[int] = None) -> BenchResult:
        """Insert keys in ascending order (paper: LSM's best case)."""
        n = count if count is not None else self.num_keys
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for i in range(n):
            t0 = clock.now
            self.db.put(self.codec.encode(i), self._value(i))
            latencies.record(clock.now - t0)
        result = self._result("fillseq", n, before)
        result.latencies = latencies
        return result

    def fill_random(self, count: Optional[int] = None) -> BenchResult:
        """Insert keys in random order (the paper's headline workload)."""
        n = count if count is not None else self.num_keys
        order = list(range(n))
        random.Random(self.seed).shuffle(order)
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for i in order:
            t0 = clock.now
            self.db.put(self.codec.encode(i), self._value(i))
            latencies.record(clock.now - t0)
        result = self._result("fillrandom", n, before)
        result.latencies = latencies
        return result

    def fill_random_large(
        self, count: Optional[int] = None, value_size: Optional[int] = None
    ) -> BenchResult:
        """``fillrandom`` with large values (the KV-separation showcase:
        with a value log the tree compacts pointers, not bodies)."""
        big = value_size if value_size is not None else max(self.value_size, 16 * 1024)
        saved = self.value_size
        self.value_size = big
        try:
            result = self.fill_random(count)
        finally:
            self.value_size = saved
        result.name = "fillrandom-large"
        return result

    def overwrite(self, count: Optional[int] = None) -> BenchResult:
        """Update existing keys in random order."""
        n = count if count is not None else self.num_keys
        self._value_version += 1
        rng = random.Random(self.seed + self._value_version)
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for _ in range(n):
            i = rng.randrange(self.num_keys)
            t0 = clock.now
            self.db.put(self.codec.encode(i), self._value(i))
            latencies.record(clock.now - t0)
        result = self._result("overwrite", n, before)
        result.latencies = latencies
        return result

    def delete_random(self, count: Optional[int] = None) -> BenchResult:
        n = count if count is not None else self.num_keys
        order = list(range(self.num_keys))
        random.Random(self.seed + 77).shuffle(order)
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for i in order[:n]:
            t0 = clock.now
            self.db.delete(self.codec.encode(i))
            latencies.record(clock.now - t0)
        result = self._result("deleterandom", n, before)
        result.latencies = latencies
        return result

    def fill_sync(self, count: Optional[int] = None) -> BenchResult:
        """Random inserts with a synchronous WAL (db_bench's fillsync)."""
        n = count if count is not None else self.num_keys
        opts = getattr(self.db, "options", None)
        if opts is None or not hasattr(opts, "sync_writes"):
            return self.fill_random(n)
        previous = opts.sync_writes
        opts.sync_writes = True
        try:
            order = list(range(n))
            random.Random(self.seed + 5).shuffle(order)
            clock = self.storage.clock
            latencies = _latency_histogram()
            before = self._snapshot()
            for i in order:
                t0 = clock.now
                self.db.put(self.codec.encode(i), self._value(i))
                latencies.record(clock.now - t0)
            result = self._result("fillsync", n, before)
            result.latencies = latencies
            return result
        finally:
            opts.sync_writes = previous

    # ------------------------------------------------------------------
    # Read workloads
    # ------------------------------------------------------------------
    def read_random(self, count: int, *, expect_found: bool = True) -> BenchResult:
        rng = random.Random(self.seed + 1)
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        found = 0
        for _ in range(count):
            key = self.codec.encode(rng.randrange(self.num_keys))
            t0 = clock.now
            if self.db.get(key) is not None:
                found += 1
            latencies.record(clock.now - t0)
        result = self._result("readrandom", count, before)
        result.extra["found_fraction"] = found / count if count else 0.0
        result.latencies = latencies
        return result

    def read_missing(self, count: int) -> BenchResult:
        """Point-lookups of keys that are never present (bloom showcase)."""
        rng = random.Random(self.seed + 6)
        missing_codec = KeyCodec(self.codec.width, prefix=b"none")
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        found = 0
        for _ in range(count):
            key = missing_codec.encode(rng.randrange(self.num_keys))
            t0 = clock.now
            if self.db.get(key) is not None:
                found += 1
            latencies.record(clock.now - t0)
        result = self._result("readmissing", count, before)
        result.extra["found_fraction"] = found / count if count else 0.0
        result.latencies = latencies
        return result

    def read_hot(self, count: int, hot_fraction: float = 0.01) -> BenchResult:
        """Reads confined to a small hot set (cache-friendly)."""
        rng = random.Random(self.seed + 7)
        hot = max(1, int(self.num_keys * hot_fraction))
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for _ in range(count):
            key = self.codec.encode(rng.randrange(hot))
            t0 = clock.now
            self.db.get(key)
            latencies.record(clock.now - t0)
        result = self._result("readhot", count, before)
        result.latencies = latencies
        return result

    def read_seq(self, count: int) -> BenchResult:
        """One long sequential scan of ``count`` entries (readseq)."""
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        it = self.db.seek(self.codec.encode(0))
        scanned = 0
        while it.valid and scanned < count:
            t0 = clock.now
            it.next()
            latencies.record(clock.now - t0)
            scanned += 1
        it.close()
        result = self._result("readseq", scanned, before)
        result.latencies = latencies
        return result

    def seek_random(self, count: int, nexts: int = 0) -> BenchResult:
        """Position an iterator at random keys; ``nexts`` next() calls each."""
        rng = random.Random(self.seed + 2)
        name = "seekrandom" if nexts == 0 else f"rangequery{nexts}"
        clock = self.storage.clock
        latencies = _latency_histogram()
        before = self._snapshot()
        for _ in range(count):
            key = self.codec.encode(rng.randrange(self.num_keys))
            t0 = clock.now
            it = self.db.seek(key)
            for _ in range(nexts):
                if not it.valid:
                    break
                it.next()
            it.close()
            latencies.record(clock.now - t0)
        result = self._result(name, count, before)
        result.latencies = latencies
        return result

    # ------------------------------------------------------------------
    # Mixed workloads (Figure 5.1c)
    # ------------------------------------------------------------------
    def mixed_read_write(self, reads: int, writes: int) -> BenchResult:
        """Interleave reads and writes (concurrent reader/writer threads)."""
        rng = random.Random(self.seed + 3)
        ops: List[int] = [0] * reads + [1] * writes
        rng.shuffle(ops)
        self._value_version += 1
        clock = self.storage.clock
        latencies = _latency_histogram()
        read_lat = _latency_histogram()
        write_lat = _latency_histogram()
        before = self._snapshot()
        for op in ops:
            i = rng.randrange(self.num_keys)
            key = self.codec.encode(i)
            t0 = clock.now
            if op:
                self.db.put(key, self._value(i))
            else:
                self.db.get(key)
            elapsed = clock.now - t0
            latencies.record(elapsed)
            (write_lat if op else read_lat).record(elapsed)
        result = self._result("mixed", reads + writes, before)
        result.latencies = latencies
        # Per-op-type percentiles: the combined sample hides that writes
        # stall behind compaction while reads do not.
        for label, samples in (("read", read_lat), ("write", write_lat)):
            if samples:
                result.extra[f"{label}_p50_us"] = round(samples.percentile(0.5) * 1e6, 3)
                result.extra[f"{label}_p95_us"] = round(samples.percentile(0.95) * 1e6, 3)
                result.extra[f"{label}_p99_us"] = round(samples.percentile(0.99) * 1e6, 3)
        return result
