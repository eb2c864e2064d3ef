"""Section 5.2 'Impact of Different Optimizations' — the ablation study.

Paper: with no optimizations, range-query throughput drops 66% below
HyperLevelDB's; parallel seeks alone reduce the gap to 48%; seek-based
compaction alone to 7%; sstable bloom filters improve point reads 63%.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis import Table
from repro.harness import fresh_run, standard_config
from _helpers import print_paper_comparison, run_once

NUM_KEYS = 10000
VALUE_SIZE = 1024
SEEKS = 1500

#: What the seek phase is read through: jobs and bytes per compaction
#: trigger, and the tables each seek positions an iterator on, per level.
SEEK_COUNTERS = (
    "compaction.triggered",
    "compaction.triggered_bytes",
    "seek.positioned_tables",
)

VARIANTS = {
    "all-off": dict(
        enable_sstable_bloom=False,
        enable_parallel_seeks=False,
        enable_seek_based_compaction=False,
        enable_aggressive_seek_compaction=False,
    ),
    "parallel-seeks": dict(
        enable_sstable_bloom=False,
        enable_parallel_seeks=True,
        enable_seek_based_compaction=False,
        enable_aggressive_seek_compaction=False,
    ),
    "seek-compaction": dict(
        enable_sstable_bloom=False,
        enable_parallel_seeks=False,
        enable_seek_based_compaction=True,
        enable_aggressive_seek_compaction=True,
    ),
    "bloom-only": dict(
        enable_sstable_bloom=True,
        enable_parallel_seeks=False,
        enable_seek_based_compaction=False,
        enable_aggressive_seek_compaction=False,
    ),
    "all-on": dict(),
}


def _seek_counters(db) -> Dict[Tuple[str, str], float]:
    """``(counter, trigger or level) -> value`` for ``SEEK_COUNTERS``."""
    return {
        (m.name, m.labels[0][1]): m.value
        for m in db.stats_part()["registry"]
        if m.name in SEEK_COUNTERS
    }


def _run_variant(overrides):
    cfg = standard_config(num_keys=NUM_KEYS, value_size=VALUE_SIZE, seed=25)
    if overrides:
        cfg.option_overrides = {"pebblesdb": overrides}
    run = fresh_run("pebblesdb", cfg)
    bench = run.bench
    bench.fill_random()
    reads = bench.read_random(2500)
    before = _seek_counters(run.db)
    seeks = bench.seek_random(SEEKS)
    phase = {
        key: value - before.get(key, 0)
        for key, value in _seek_counters(run.db).items()
    }
    return {
        "read": reads.kops,
        "seek": seeks.kops,
        "seek_phase": phase,
        "files": run.db.files_per_level(),
    }


def _seek_phase_table(rows) -> Table:
    table = Table(
        f"Section 5.2 ablation — the {SEEKS:,}-seek phase",
        [
            "variant",
            "compactions by trigger",
            "MB compacted",
            "tables positioned per seek (L0/L1/...)",
            "files per level after",
        ],
    )
    for name, r in rows.items():
        phase = r["seek_phase"]
        jobs = [
            f"{trigger}={value:.0f}"
            for (counter, trigger), value in sorted(phase.items())
            if counter == "compaction.triggered" and value
        ]
        moved = sum(
            value
            for (counter, _), value in phase.items()
            if counter == "compaction.triggered_bytes"
        )
        per_seek = "/".join(
            f"{phase.get(('seek.positioned_tables', str(level)), 0) / SEEKS:.1f}"
            for level in range(len(r["files"]))
        )
        table.add_row(
            name,
            " ".join(jobs) or "none",
            f"{moved / 1e6:.2f}",
            per_seek,
            "/".join(map(str, r["files"])),
        )
    return table


def test_optimization_ablation(benchmark):
    def experiment():
        return {"rows": {name: _run_variant(ov) for name, ov in VARIANTS.items()}}

    rows = run_once(benchmark, experiment)["rows"]
    table = Table(
        "Section 5.2 ablation — PebblesDB optimizations (KOps/s)",
        ["variant", "readrandom", "seekrandom"],
    )
    for name, r in rows.items():
        table.add_row(name, f"{r['read']:.1f}", f"{r['seek']:.1f}")
    table.print()
    _seek_phase_table(rows).print()

    print_paper_comparison(
        "Section 5.2 ablation",
        [
            f"bloom filters improve reads: paper +63% | measured "
            f"{rows['bloom-only']['read'] / rows['all-off']['read']:.2f}x",
            f"parallel seeks improve seeks: paper 66%->48% gap | measured "
            f"{rows['parallel-seeks']['seek'] / rows['all-off']['seek']:.2f}x",
            f"seek-compaction improves seeks: paper 66%->7% gap | measured "
            f"{rows['seek-compaction']['seek'] / rows['all-off']['seek']:.2f}x",
            f"everything on is best for seeks: measured "
            f"{rows['all-on']['seek'] >= max(rows['all-off']['seek'], rows['parallel-seeks']['seek'])}",
        ],
    )
    assert rows["bloom-only"]["read"] > rows["all-off"]["read"]
    assert rows["seek-compaction"]["seek"] > rows["all-off"]["seek"]
    assert rows["all-on"]["seek"] >= rows["all-off"]["seek"]
