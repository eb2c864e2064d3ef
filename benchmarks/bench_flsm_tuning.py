"""Sections 3.5 and 4.4: the FLSM tuning knobs.

* ``max_sstables_per_guard`` trades write IO for read/seek latency: at 1,
  FLSM behaves like LSM (most write IO, fastest seeks); larger values
  approach pure fragmented behaviour (least IO, slower seeks).
* Guard probability (``top_level_bits``): over-estimating the key count
  (sparser guards than needed) is harmless beyond skew; under-estimating
  floods the store with empty guards, which must stay performance-neutral
  (the Figure 5.4 claim from a different angle).
"""

from __future__ import annotations

from repro.analysis import Table
from repro.harness import fresh_run, standard_config
from _helpers import print_paper_comparison, run_once

NUM_KEYS = 8000
VALUE_SIZE = 1024


def _run_with(pebbles_overrides):
    cfg = standard_config(num_keys=NUM_KEYS, value_size=VALUE_SIZE, seed=33)
    cfg.option_overrides = {"pebblesdb": pebbles_overrides}
    run = fresh_run("pebblesdb", cfg)
    bench = run.bench
    bench.fill_random()
    run.db.wait_idle()
    amp = run.db.stats().write_amplification
    seeks = bench.seek_random(800)
    return amp, seeks.kops


def test_max_sstables_per_guard_tradeoff(benchmark):
    def experiment():
        rows = {}
        for cap in (1, 2, 4, 8):
            rows[cap] = _run_with(
                dict(max_sstables_per_guard=cap, enable_seek_based_compaction=False)
            )
        return {"rows": rows}

    rows = run_once(benchmark, experiment)["rows"]
    table = Table(
        "Section 3.5 — max_sstables_per_guard trade-off",
        ["cap", "write amp", "seek KOps/s"],
    )
    for cap, (amp, kops) in rows.items():
        table.add_row(cap, f"{amp:.2f}", f"{kops:.2f}")
    table.print()

    amps = {cap: amp for cap, (amp, _) in rows.items()}
    print_paper_comparison(
        "Section 3.5",
        [
            f"cap=1 writes the most IO (LSM-like): measured "
            f"{amps[1] == max(amps.values())}",
            f"larger caps write less IO: amp(8)={amps[8]:.2f} < amp(1)={amps[1]:.2f}",
            f"paper: 'trade-off more write IO for lower read and range "
            f"query latencies' — measured amp spread "
            f"{amps[1] / amps[8]:.2f}x across the knob",
        ],
    )
    assert amps[1] == max(amps.values()), "cap=1 must write the most IO"
    # Caps 4 and 8 must both sit well below cap=1 and the trend must not
    # turn upward.  How much cap=8 still saves over cap=4 is not asserted:
    # it depends on which compactions the timing happens to batch (0.0 to
    # 0.9 across seeds 33-38, before and after ISSUE 23).
    assert amps[8] < 0.8 * amps[1] and amps[4] < 0.8 * amps[1]
    assert amps[8] < amps[4] + 0.5


def test_guard_probability_estimation(benchmark):
    def experiment():
        rows = {}
        # Guard density mis-tuning in both directions around the scaled
        # default of 13 bits: low bits = far too many guards for the key
        # count (most end up thin or empty), high bits = almost none
        # (all data concentrates in a few guards — the skew case).
        for label, bits in (
            ("dense/empty guards", 9),
            ("tuned", 13),
            ("sparse/skewed", 19),
        ):
            rows[label] = _run_with(dict(top_level_bits=bits))
        return {"rows": rows}

    rows = run_once(benchmark, experiment)["rows"]
    table = Table(
        "Section 4.4 — guard probability mis-estimation",
        ["tuning", "write amp", "seek KOps/s"],
    )
    for label, (amp, kops) in rows.items():
        table.add_row(label, f"{amp:.2f}", f"{kops:.2f}")
    table.print()

    tuned_seek = rows["tuned"][1]
    dense_seek = rows["dense/empty guards"][1]
    print_paper_comparison(
        "Section 4.4",
        [
            "paper: mis-estimating the key count is tolerable — surplus "
            "guards sit empty ('harmless'), too few guards skew data",
            f"dense/empty-guard seeks vs tuned: measured "
            f"{dense_seek / tuned_seek:.2f}x (must not collapse)",
            f"sparse/skewed amp vs tuned: measured "
            f"{rows['sparse/skewed'][0] / rows['tuned'][0]:.2f}x "
            f"(rebalance_guards() is the countermeasure, section 7)",
        ],
    )
    # Surplus guards (mostly thin or empty) must not collapse seeks.
    assert dense_seek > 0.5 * tuned_seek