"""``python -m bench compare A B`` — judge two sets of runs.

A set is a directory of ``<workload>.run.<k>.json`` records written by
``python -m bench run --out DIR`` (run it several times, or with
``--runs N``).  A is the baseline, B the candidate.  Every workload x
end-to-end metric gets its own row and one verdict:

* host-clock metrics: ``regressed`` / ``improved`` when B's median is
  worse / better than A's by more than the metric's bound (a share of
  A's median), ``unresolved`` when A's own quartile spread exceeds the
  bound, else ``unchanged``;
* exact metrics (simulated clock): compared by equality per seed — any
  difference is a behaviour change and is judged by direction.

Every ratio is printed with its base (A's median).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Dict, List, Optional, Tuple

from bench.spec import END_TO_END, WORKLOADS, Metric, bound_for

Record = Dict[str, object]


def load_set(directory: str) -> Dict[str, List[Record]]:
    """workload -> its run records in ``directory``."""
    runs: Dict[str, List[Record]] = {name: [] for name in WORKLOADS}
    for path in sorted(glob.glob(os.path.join(directory, "*.run.*.json"))):
        with open(path) as f:
            record = json.load(f)
        runs[record["workload"]].append(record)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _worse_by(metric: Metric, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative = better)."""
    change = (other - base) / base if base else (0.0 if other == base else float("inf"))
    return -change if metric.better == "higher" else change


def judge_host(metric: Metric, bound: float, a: List[float], b: List[float]) -> Tuple[str, str]:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    worse = _worse_by(metric, a_med, b_med)
    if spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    ratio = f"{b_med / a_med:.4f}" if a_med else "n/a"
    detail = (
        f"A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] n={len(a)}  "
        f"B {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] n={len(b)}  "
        f"B/A {ratio} (base {a_med:.6g})  spread(A) {spread:.1%}  bound {bound:.0%}"
    )
    return verdict, detail


def judge_exact(
    metric: Metric, a: Dict[int, List[float]], b: Dict[int, List[float]]
) -> Tuple[str, str]:
    """Per common seed, every value on both sides must be one number."""
    verdicts = set()
    notes = []
    for seed in sorted(set(a) & set(b)):
        values_a, values_b = set(a[seed]), set(b[seed])
        if len(values_a) > 1 or len(values_b) > 1:
            verdicts.add("unresolved")
            notes.append(f"seed {seed}: not repeatable within a set {sorted(values_a | values_b)}")
            continue
        (va,), (vb,) = values_a, values_b
        if va == vb:
            verdicts.add("unchanged")
            notes.append(f"seed {seed}: {va!r} == {vb!r}")
        else:
            worse = _worse_by(metric, va, vb)
            verdicts.add("regressed" if worse > 0 else "improved")
            ratio = f"{vb / va:.6f}" if va else "n/a"
            notes.append(f"seed {seed}: A {va!r} -> B {vb!r}  B/A {ratio} (base {va!r})")
    if not notes:
        return "unresolved", "no seed in common"
    for verdict in ("regressed", "unresolved", "improved", "unchanged"):
        if verdict in verdicts:
            return verdict, "exact; " + "; ".join(notes)
    raise AssertionError("unreachable")


def compare(dir_a: str, dir_b: str) -> int:
    """Print the table; returns 1 if anything regressed, else 0."""
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    regressed = 0
    for workload in WORKLOADS:
        runs_a, runs_b = set_a[workload], set_b[workload]
        print(f"== {workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        if not runs_a or not runs_b:
            print("  no runs on one side")
            continue
        for metric in END_TO_END:
            bound = bound_for(workload, metric.name)
            values_a = [(r["seed"], r["end_to_end"][metric.name]) for r in runs_a]
            values_b = [(r["seed"], r["end_to_end"][metric.name]) for r in runs_b]
            if all(v is None for _, v in values_a + values_b):
                print(f"  {metric.name:<16} {'null':<10} ({runs_a[0]['null_reasons'][metric.name]})")
                continue
            if bound is None:
                verdict, detail = judge_exact(metric, _by_seed(values_a), _by_seed(values_b))
            elif bound == 0.0:
                # fail_ratio: any increase is a regression.
                worst_a = max(v for _, v in values_a)
                worst_b = max(v for _, v in values_b)
                verdict = (
                    "regressed" if worst_b > worst_a
                    else "improved" if worst_b < worst_a else "unchanged"
                )
                detail = f"A max {worst_a:.6g}  B max {worst_b:.6g}  bound 0 (any increase)"
            else:
                verdict, detail = judge_host(
                    metric, bound, [v for _, v in values_a], [v for _, v in values_b]
                )
            regressed += verdict == "regressed"
            print(f"  {metric.name:<16} {verdict:<10} {metric.unit:<10} {detail}")
    return 1 if regressed else 0


def _by_seed(values: List[Tuple[int, Optional[float]]]) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = {}
    for seed, value in values:
        out.setdefault(seed, []).append(value)
    return out
