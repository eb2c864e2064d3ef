"""Figure 5.2: environmental factors — aged file system/store, low memory.

Paper 5.2(a): after file-system aging (fill/delete cycles to 89%
utilization) plus key-value-store aging (inserts/deletes/updates),
absolute numbers drop and PebblesDB's write advantage shrinks (~2x from
2.7x); reads stay ahead, seeks degrade to ~-40%.

Paper 5.2(b): with DRAM at 6% of the dataset, PebblesDB still wins
writes (+64%) and reads (+63%); seeks stay ~40% behind.
"""

from __future__ import annotations

from repro.analysis import Table
from repro.harness import fresh_run, standard_config
from repro.sim.aging import FilesystemAging
from _helpers import print_paper_comparison, run_once

NUM_KEYS = 10000
VALUE_SIZE = 1024
ENGINES = ("pebblesdb", "hyperleveldb")


def _table_cache_misses(db) -> int:
    return db.stats_part()["registry"].value("read.table_cache_misses")


def _micro(run, reads=2500, seeks=1200):
    bench = run.bench
    writes = bench.fill_random()
    reopens = _table_cache_misses(run.db)
    r = bench.read_random(reads)
    reopens = _table_cache_misses(run.db) - reopens
    s = bench.seek_random(seeks)
    return {
        "write": writes.kops,
        "read": r.kops,
        "seek": s.kops,
        # Table-cache misses per get: each re-charges the table's footer
        # and index reads on the simulated clock (filters are resident
        # with the file metadata, so a filter's "no" opens nothing).
        "reopens_per_get": reopens / reads,
    }


def _age_store(run):
    """The paper's store aging: inserts, deletes, updates in random order."""
    bench = run.bench
    bench.fill_random()
    bench.delete_random(NUM_KEYS // 3)
    bench.overwrite(NUM_KEYS // 3)


def test_aged_filesystem_and_store(benchmark):
    def experiment():
        rows = {}
        for engine in ENGINES:
            cfg = standard_config(
                num_keys=NUM_KEYS,
                value_size=VALUE_SIZE,
                seed=15,
                aging=FilesystemAging(fill_cycles=2, utilization=0.89),
            )
            run = fresh_run(engine, cfg)
            _age_store(run)
            rows[engine] = _micro(run)
        return {"rows": rows}

    rows = run_once(benchmark, experiment)["rows"]
    table = Table(
        "Figure 5.2(a) — aged file system + aged store (KOps/s)",
        ["store", "writes", "reads", "seeks", "table reopens/get"],
    )
    for engine, r in rows.items():
        table.add_row(
            engine,
            f"{r['write']:.1f}",
            f"{r['read']:.1f}",
            f"{r['seek']:.1f}",
            f"{r['reopens_per_get']:.2f}",
        )
    table.print()
    p, h = rows["pebblesdb"], rows["hyperleveldb"]
    print_paper_comparison(
        "Figure 5.2(a)",
        [
            f"writes P/H: paper ~2x (down from 2.7x) | measured {p['write'] / h['write']:.2f}x",
            f"reads P/H: paper ~1.08x | measured {p['read'] / h['read']:.2f}x",
            f"seeks P/H: paper ~0.6x | measured {p['seek'] / h['seek']:.2f}x",
        ],
    )
    assert p["write"] > h["write"]
    # What the figure is about: on an aged store PebblesDB's reads keep up
    # with HyperLevelDB's (paper 1.08x), because a get opens only the
    # sstables its resident filters and sequence bounds leave — this ratio
    # sat at 0.46x while a filter's "no" still cost a table open.
    assert p["read"] / h["read"] >= 0.9
    assert p["reopens_per_get"] < 1.0


def test_low_memory(benchmark):
    def experiment():
        rows = {}
        dataset = NUM_KEYS * (16 + VALUE_SIZE)
        for engine in ENGINES:
            cfg = standard_config(
                num_keys=NUM_KEYS,
                value_size=VALUE_SIZE,
                seed=16,
                cache_bytes=int(dataset * 0.06),  # DRAM = 6% of data
            )
            # Paper runs this with RocksDB-style Level-0 parameters.
            cfg.option_overrides = {
                eng: {"level0_slowdown_trigger": 20, "level0_stop_trigger": 24}
                for eng in ENGINES
            }
            run = fresh_run(engine, cfg)
            rows[engine] = _micro(run)
        return {"rows": rows}

    rows = run_once(benchmark, experiment)["rows"]
    table = Table(
        "Figure 5.2(b) — low memory, DRAM = 6% of dataset (KOps/s)",
        ["store", "writes", "reads", "seeks"],
    )
    for engine, r in rows.items():
        table.add_row(engine, f"{r['write']:.1f}", f"{r['read']:.1f}", f"{r['seek']:.1f}")
    table.print()
    p, h = rows["pebblesdb"], rows["hyperleveldb"]
    print_paper_comparison(
        "Figure 5.2(b)",
        [
            f"writes P/H: paper ~1.64x | measured {p['write'] / h['write']:.2f}x",
            f"reads P/H: paper ~1.63x | measured {p['read'] / h['read']:.2f}x",
            f"seeks P/H: paper ~0.6x | measured {p['seek'] / h['seek']:.2f}x",
        ],
    )
    assert p["write"] > h["write"]
