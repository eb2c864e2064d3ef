#!/usr/bin/env python
"""The before/after recipe of the pinned benchmark as one command.

Usage: ``python scripts/bench_pairs.py PARENT_CHECKOUT [--workloads W ...]
[--pairs 10] [--seed S]``

Runs ``python -m bench run`` in ``PARENT_CHECKOUT`` (a ``git clone`` of
the parent commit) and in this checkout alternately — the side that goes
first swaps every pair, so neither always runs on the warmer or the
noisier machine — collecting each side's records in its own ``--out``
directory.  Then prints ``python -m bench compare parent change`` and,
for every workload and host-clock metric, in how many pairs the change
was ahead (ties count for neither side) with each side's per-run values:
a gain is claimed only when the change wins nine pairs of ten *and* the
medians differ by more than the parent's own quartile distance, which
``compare`` prints.  Exits with ``compare``'s status.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics read off the host clock or the host's memory;
#: everything else the benchmark reports is exact and ``compare`` judges
#: it by equality.
HOST_METRICS = ("wall_kops", "wall_p50_us", "wall_p99_us", "setup_s", "peak_rss_mb")


def _better(benchmark: dict) -> Dict[str, str]:
    """metric -> ``higher``/``lower``, as BENCHMARK.json declares it."""
    declared = benchmark["end_to_end"] + benchmark["per_layer"]
    return {m["name"]: m["better"] for m in declared if m["name"] in HOST_METRICS}


def _run(checkout: str, out: str, workloads: List[str], seed: int) -> None:
    subprocess.run(
        [sys.executable, "-m", "bench", "run", "--seed", str(seed), "--out", out,
         "--workloads", *workloads],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )


def _values(out: str, workload: str, metric: str, pairs: int) -> List[float]:
    values = []
    for k in range(1, pairs + 1):
        with open(os.path.join(out, f"{workload}.run.{k}.json")) as f:
            values.append(json.load(f)["end_to_end"][metric])
    return values


def main() -> int:
    with open(os.path.join(HERE, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_CHECKOUT")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    parent = os.path.abspath(args.parent)
    out = tempfile.mkdtemp(prefix="bench-pairs-")
    outs = {"parent": os.path.join(out, "parent"), "change": os.path.join(out, "change")}
    checkouts = {"parent": parent, "change": HERE}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            _run(checkouts[side], outs[side], args.workloads, args.seed)
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)

    compared = subprocess.run(
        [sys.executable, "-m", "bench", "compare", outs["parent"], outs["change"]],
        cwd=HERE,
    )
    print(f"\npairwise, seed {args.seed} (records in {out}):")
    directions = _better(benchmark)
    for workload in args.workloads:
        for metric, better in directions.items():
            a = _values(outs["parent"], workload, metric, args.pairs)
            b = _values(outs["change"], workload, metric, args.pairs)
            if better == "higher":
                ahead = sum(y > x for x, y in zip(a, b))
            else:
                ahead = sum(y < x for x, y in zip(a, b))
            print(f"{workload:<14} {metric:<12} change ahead in {ahead} of {args.pairs} pairs")
            for side, values in (("parent", a), ("change", b)):
                print(f"{'':<14} {side:>12} " + " ".join(f"{v:.6g}" for v in values))
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
