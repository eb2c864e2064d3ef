"""Read-path microbenchmark: decoded-block cache wall-clock speedup.

Unlike the per-figure benchmarks (which report *simulated* quantities),
the number under test here is **host wall-clock**: the decoded-block
cache exists purely to stop the pure-Python reproduction from re-parsing
sstable blocks it already parsed.  The benchmark runs the same random-read
workload over a warmed, compacted store twice — cache disabled, cache
enabled — and checks two things:

1. wall-clock speedup of the read phase (acceptance bar: >= 2x at the
   default workload size), and
2. **byte-identical simulated metrics** in both runs: device seconds, IO
   byte/op counts, and page-cache hit/miss/eviction totals must not move
   by a single unit, because the cache charges the exact simulated costs
   a raw read would have.

Results land in ``BENCH_readpath.json`` at the repo root (and in
pytest-benchmark's ``extra_info``).  Scale with ``READPATH_GETS`` /
``READPATH_KEYS`` env vars; CI uses a reduced op count.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.harness import fresh_run, standard_config
from _helpers import run_once

NUM_KEYS = int(os.environ.get("READPATH_KEYS", "12000"))
GETS = int(os.environ.get("READPATH_GETS", "1000000"))
VALUE_SIZE = 512
CACHE_BYTES = 32 * 1024 * 1024

#: Full-size runs must clear the acceptance bar; reduced runs (CI smoke)
#: amortize the warm-up over fewer reads, so they get a softer floor.
_FULL_SCALE = GETS >= 1_000_000
SPEEDUP_FLOOR = 2.0 if _FULL_SCALE else 1.2

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_readpath.json"


def _measure(block_cache_bytes: int):
    """One warmed-store random-read run; returns (wall, sim_metrics, stats)."""
    # Each measurement starts from a clean heap so an earlier run's
    # garbage cannot tax this run's timed loop.
    gc.collect()
    cfg = standard_config(
        num_keys=NUM_KEYS,
        value_size=VALUE_SIZE,
        seed=3,
        option_overrides={"pebblesdb": {"block_cache_bytes": block_cache_bytes}},
    )
    run = fresh_run("pebblesdb", cfg)
    run.bench.fill_random()
    run.db.compact_all()
    run.db.wait_idle()
    t0 = time.perf_counter()
    result = run.bench.read_random(GETS)
    wall = time.perf_counter() - t0
    run.db.wait_idle()
    storage = run.env.storage
    sim = {
        "sim_seconds": run.env.clock.now,
        "bytes_read": storage.stats.bytes_read,
        "bytes_written": storage.stats.bytes_written,
        "read_ops": storage.stats.read_ops,
        "write_ops": storage.stats.write_ops,
        "page_cache_hits": storage.cache.stats.hits,
        "page_cache_misses": storage.cache.stats.misses,
        "page_cache_evictions": storage.cache.stats.evictions,
        "read_kops_simulated": round(result.kops, 6),
        "found_fraction": result.extra["found_fraction"],
    }
    stats = run.db.stats()
    cache_stats = {
        "hits": stats.block_cache_hits,
        "misses": stats.block_cache_misses,
        "hit_rate": round(stats.block_cache_hit_rate, 4),
        "resident_bytes": stats.block_cache_bytes,
    }
    run.db.close()
    return wall, sim, cache_stats


def test_readpath_cache_speedup(benchmark):
    def experiment():
        wall_off, sim_off, _ = _measure(0)
        wall_on, sim_on, cache_stats = _measure(CACHE_BYTES)
        return {
            "engine": "pebblesdb",
            "num_keys": NUM_KEYS,
            "gets": GETS,
            "value_size": VALUE_SIZE,
            "block_cache_bytes": CACHE_BYTES,
            "wall_seconds_cache_off": round(wall_off, 3),
            "wall_seconds_cache_on": round(wall_on, 3),
            "speedup": round(wall_off / wall_on, 3),
            "sim_metrics_identical": sim_off == sim_on,
            "block_cache": cache_stats,
            "sim_metrics": sim_on,
        }

    result = run_once(benchmark, experiment)
    _JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print(
        f"\nread path ({GETS} gets, {NUM_KEYS} keys): "
        f"off={result['wall_seconds_cache_off']:.2f}s "
        f"on={result['wall_seconds_cache_on']:.2f}s "
        f"speedup={result['speedup']:.2f}x "
        f"(decoded-cache hit rate {result['block_cache']['hit_rate'] * 100:.1f}%)"
    )
    print(f"simulated metrics identical: {result['sim_metrics_identical']}")
    print(f"recorded to {_JSON_PATH.name}")

    assert result["sim_metrics_identical"], (
        "decoded-block cache changed a simulated metric — it must be "
        "invisible to the simulation"
    )
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"read-path speedup {result['speedup']:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
