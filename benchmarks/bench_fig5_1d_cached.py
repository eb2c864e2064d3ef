"""Figure 5.1(d): small dataset that fits entirely in the page cache.

Paper (1M x 1KB, 1 GB dataset, 16 GB RAM): PebblesDB still wins writes;
reads pay ~7% and seeks ~47% CPU overhead because no IO hides the extra
guard work; with ``max_sstables_per_guard=1`` (PebblesDB-1) reads beat
HyperLevelDB and the seek overhead drops to ~13%.
"""

from __future__ import annotations

from repro.analysis import Table
from repro.harness import fresh_run, standard_config
from _helpers import print_paper_comparison, run_once

NUM_KEYS = 4000
VALUE_SIZE = 1024
SEEKS = 2000


def _positioned_tables(db) -> float:
    """Tables every seek so far positioned an iterator on, all levels."""
    return sum(
        m.value for m in db.stats_part()["registry"] if m.name == "seek.positioned_tables"
    )


def _run(engine, overrides=None):
    cfg = standard_config(
        num_keys=NUM_KEYS,
        value_size=VALUE_SIZE,
        cache_bytes=64 * 1024 * 1024,  # dataset fully cached
        seed=7,
    )
    if overrides:
        cfg.option_overrides = {engine: overrides}
    run = fresh_run(engine, cfg)
    bench = run.bench
    writes = bench.fill_random()
    run.db.compact_all()
    reads = bench.read_random(4000)
    sstables = sum(run.db.files_per_level())
    before = _positioned_tables(run.db)
    seeks = bench.seek_random(SEEKS)
    return {
        "write": writes.kops,
        "read": reads.kops,
        "seek": seeks.kops,
        "sstables": sstables,
        "tables_per_seek": (_positioned_tables(run.db) - before) / SEEKS,
    }


def test_cached_dataset(benchmark):
    def experiment():
        return {
            "hyperleveldb": _run("hyperleveldb"),
            "pebblesdb": _run("pebblesdb"),
            "pebblesdb-1": _run("pebblesdb", {"max_sstables_per_guard": 1}),
        }

    rows = run_once(benchmark, lambda: {"rows": experiment()})["rows"]
    table = Table(
        "Figure 5.1(d) — fully cached dataset (KOps/s)",
        ["store", "writes", "reads", "seeks", "sstables", "tables positioned per seek"],
    )
    for name, r in rows.items():
        table.add_row(
            name,
            f"{r['write']:.1f}",
            f"{r['read']:.1f}",
            f"{r['seek']:.1f}",
            r["sstables"],
            f"{r['tables_per_seek']:.2f}",
        )
    table.print()

    h, p, p1 = rows["hyperleveldb"], rows["pebblesdb"], rows["pebblesdb-1"]
    print_paper_comparison(
        "Figure 5.1(d)",
        [
            f"writes P/H: paper >1x | measured {p['write'] / h['write']:.2f}x",
            f"reads P/H: paper ~0.93x | measured {p['read'] / h['read']:.2f}x",
            f"seeks P/H: paper ~0.53x | measured {p['seek'] / h['seek']:.2f}x",
            f"seeks P1/H: paper ~0.87x | measured {p1['seek'] / h['seek']:.2f}x",
        ],
    )
    assert p["write"] > h["write"]
    # PebblesDB-1 behaves like an LSM: its seeks must be at least on par
    # with default PebblesDB (both are pure-CPU on a cached dataset).
    assert p1["seek"] >= 0.9 * p["seek"], "PebblesDB-1 must close the seek gap"
