"""Section 5.2 'Impact of Different Optimizations' — the ablation study.

Paper: with no optimizations, range-query throughput drops 66% below
HyperLevelDB's; parallel seeks alone reduce the gap to 48%; seek-based
compaction alone to 7%; sstable bloom filters improve point reads 63%.

Every variant, and HyperLevelDB beside them, runs at five seeds: a store
that schedules by completion time moves ~10 % per cell between seeds, so
one seed cannot carry a claim.  Cells are median [min, max], and each
claim must hold at four seeds of five.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Tuple

from repro.analysis import Table
from repro.harness import fresh_run, standard_config
from _helpers import print_paper_comparison, run_once

NUM_KEYS = 10000
VALUE_SIZE = 1024
SEEKS = 1500
SEEDS = (1, 2, 3, 4, 25)
#: The seed whose seek phase is broken down by trigger and level.
DETAIL_SEED = 25

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
    ),
    "parallel-seeks": dict(
        enable_sstable_bloom=False,
        enable_parallel_seeks=True,
        enable_seek_based_compaction=False,
    ),
    "seek-compaction": dict(
        enable_sstable_bloom=False,
        enable_parallel_seeks=False,
        enable_seek_based_compaction=True,
    ),
    "bloom-only": dict(
        enable_sstable_bloom=True,
        enable_parallel_seeks=False,
        enable_seek_based_compaction=False,
    ),
    "all-on": dict(),
}

#: The store the paper states every seek gap against.
BASELINE = "hyperleveldb"

#: The claims asserted, each judged on one seed's rows.
CLAIMS = {
    "bloom-only reads > all-off": lambda r: r["bloom-only"]["read"] > r["all-off"]["read"],
    "seek-compaction seeks > all-off": (
        lambda r: r["seek-compaction"]["seek"] > r["all-off"]["seek"]
    ),
    "all-on seeks >= all-off": lambda r: r["all-on"]["seek"] >= r["all-off"]["seek"],
}


def _seek_counters(db) -> Dict[Tuple[str, str], float]:
    """``(counter, trigger or level) -> value`` for ``SEEK_COUNTERS``."""
    return {
        (m.name, m.labels[0][1]): m.value
        for m in db.stats_part()["registry"]
        if m.name in SEEK_COUNTERS
    }


def _run_store(engine, seed, overrides):
    cfg = standard_config(num_keys=NUM_KEYS, value_size=VALUE_SIZE, seed=seed)
    if overrides:
        cfg.option_overrides = {engine: overrides}
    run = fresh_run(engine, cfg)
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


def _run_seed(seed):
    rows = {name: _run_store("pebblesdb", seed, ov) for name, ov in VARIANTS.items()}
    rows[BASELINE] = _run_store(BASELINE, seed, None)
    return rows


def _spread(values, fmt="{:.1f}") -> str:
    """``median [min, max]`` of ``values``."""
    low, mid, high = (fmt.format(v) for v in (min(values), median(values), max(values)))
    return f"{mid} [{low}, {high}]"


def _seek_phase_table(rows) -> Table:
    table = Table(
        f"Section 5.2 ablation — the {SEEKS:,}-seek phase at seed {DETAIL_SEED}",
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
        return {"seeds": {seed: _run_seed(seed) for seed in SEEDS}}

    by_seed = run_once(benchmark, experiment)["seeds"]
    runs = list(by_seed.values())

    def gaps(name):
        """How far ``name``'s seeks fall short of the baseline's, per seed."""
        return [1 - r[name]["seek"] / r[BASELINE]["seek"] for r in runs]

    def over_all_off(name, metric):
        return [r[name][metric] / r["all-off"][metric] for r in runs]

    table = Table(
        f"Section 5.2 ablation — KOps/s, median [min, max] over seeds {SEEDS}",
        ["variant", "readrandom", "seekrandom", f"seek gap to {BASELINE}"],
    )
    for name in list(VARIANTS) + [BASELINE]:
        table.add_row(
            name,
            _spread([r[name]["read"] for r in runs]),
            _spread([r[name]["seek"] for r in runs]),
            _spread(gaps(name), "{:.0%}"),
        )
    table.print()
    _seek_phase_table(by_seed[DETAIL_SEED]).print()

    held = {claim: sum(map(check, runs)) for claim, check in CLAIMS.items()}
    seek_ratio = median(over_all_off("seek-compaction", "seek"))
    print_paper_comparison(
        "Section 5.2 ablation",
        [
            f"bloom filters improve reads: paper +63% | measured "
            f"{_spread(over_all_off('bloom-only', 'read'), '{:.2f}x')}",
            f"seek gap to {BASELINE}: paper all-off 66%, parallel seeks 48%, "
            f"seek compaction 7%",
        ]
        + [
            f"  measured {name}: {_spread(gaps(name), '{:.0%}')}"
            for name in ("all-off", "parallel-seeks", "seek-compaction", "all-on")
        ]
        + [
            f"seek compaction over all-off: measured "
            f"{_spread(over_all_off('seek-compaction', 'seek'), '{:.2f}x')}",
        ]
        + [f"{claim}: {n} of {len(runs)} seeds" for claim, n in held.items()],
    )
    for claim, n in held.items():
        assert n >= len(runs) - 1, f"{claim}: holds at {n} of {len(runs)} seeds"
    assert seek_ratio >= 1.15, f"seek compaction {seek_ratio:.2f}x all-off (median)"
