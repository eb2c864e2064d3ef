"""``repro-trace`` — render span-trace JSONL files for humans.

Reads the trace files written by ``--trace-out`` (db_bench, netbench, or
any :class:`repro.obs.trace.TraceSink` user) and renders one of four
reports::

    repro-trace run.jsonl                      # summary (default)
    repro-trace run.jsonl --report timeline    # flush/compaction timeline
    repro-trace run.jsonl --report stalls      # write-stall attribution
    repro-trace run.jsonl --report reads       # read-path breakdown
    repro-trace flight-*.jsonl --report dump   # flight-recorder dump

Flight-recorder dumps (:mod:`repro.obs.recorder`) are valid trace files
whose first record is a ``flight.dump`` event carrying the dump reason;
``--report dump`` renders the reason plus the ring's recent events in
order.  A dump ring may hold children whose parents were already
evicted, so the nesting check is skipped for this report only.

Exits non-zero when the file cannot be decoded (2), is empty (1), or
violates the span-nesting invariant (1) — the CI trace-smoke job pipes a
fresh trace through every report mode and asserts a zero exit.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.obs.trace import read_trace, verify_nesting
from repro.obs.windows import SUMMARY_PERCENTILES, WindowedHistogram

#: Background span names that belong on the compaction/flush timeline.
_TIMELINE_NAMES = ("flush", "compaction", "compaction.move", "compaction.guard")

#: Every stall-cause label the engines emit, with a one-line gloss.  The
#: stalls report annotates known causes and flags unknown ones, so a
#: renamed label fails loudly here and in the stability bench together.
_STALL_CAUSES = {
    "imm_backpressure": "waiting for a memtable flush",
    "l0_slowdown": "cliff soft-limit delay (fixed)",
    "l0_graduated": "graduated soft-limit delay (debt-proportional)",
    "l0_stop": "hard stop: Level 0 at stop trigger",
    "l0_stop_conflict": "hard stop while the L0 drain was conflict-blocked",
    "flush_wait": "explicit flush/close wait",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Render repro span-trace JSONL files.",
    )
    parser.add_argument("trace", help="trace JSONL file (from --trace-out)")
    parser.add_argument(
        "--report",
        choices=("summary", "timeline", "stalls", "reads", "dump"),
        default="summary",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=40,
        help="max timeline rows to print (0 = all)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.0,
        help="sim-seconds per stability window in the stalls report "
        "(0 = auto: 1/20 of the traced write span)",
    )
    return parser


def _attr(span: Dict[str, object], key: str, default=None):
    attrs = span.get("attrs")
    if isinstance(attrs, dict):
        return attrs.get(key, default)
    return default


def _fmt_bytes(n: Optional[object]) -> str:
    if not isinstance(n, (int, float)):
        return "-"
    return f"{n / 1e6:.2f}MB" if n >= 1e5 else f"{int(n)}B"


def report_summary(spans: List[Dict[str, object]]) -> None:
    by_name: Dict[str, List[Dict[str, object]]] = {}
    traces = set()
    for span in spans:
        by_name.setdefault(str(span["name"]), []).append(span)
        traces.add(span["trace"])
    t_lo = min(float(s["start"]) for s in spans)
    t_hi = max(float(s["end"]) for s in spans)
    print(
        f"{len(spans)} spans, {len(traces)} traces, "
        f"sim window [{t_lo:.6f}s, {t_hi:.6f}s]"
    )
    print(f"{'name':<20} {'kind':<10} {'count':>7} {'total-s':>10} {'mean-us':>9}")
    print("-" * 60)
    for name in sorted(by_name):
        group = by_name[name]
        total = sum(float(s["end"]) - float(s["start"]) for s in group)
        mean_us = total / len(group) * 1e6
        print(
            f"{name:<20} {group[0]['kind']:<10} {len(group):>7} "
            f"{total:>10.4f} {mean_us:>9.1f}"
        )


def report_timeline(spans: List[Dict[str, object]], limit: int) -> None:
    jobs = [s for s in spans if s["name"] in _TIMELINE_NAMES]
    if not jobs:
        print("no flush/compaction spans in this trace")
        return
    jobs.sort(key=lambda s: (float(s["start"]), float(s["end"])))
    print(
        f"{'start-s':>10} {'dur-ms':>8} {'name':<17} {'lvl':>3} "
        f"{'in':>9} {'out':>9} {'wait-ms':>8}  guard"
    )
    print("-" * 78)
    shown = jobs if limit <= 0 else jobs[:limit]
    for span in shown:
        duration_ms = (float(span["end"]) - float(span["start"])) * 1e3
        wait = _attr(span, "queue_wait", _attr(span, "conflict_wait"))
        wait_ms = f"{wait * 1e3:8.2f}" if isinstance(wait, (int, float)) else "       -"
        guard_lo = _attr(span, "guard_lo", _attr(span, "guard"))
        guard = "" if guard_lo is None else str(guard_lo)
        hi = _attr(span, "guard_hi")
        if hi is not None:
            guard = f"{guard}..{hi}"
        level = _attr(span, "level", "-")
        print(
            f"{float(span['start']):>10.4f} {duration_ms:>8.2f} "
            f"{span['name']:<17} {str(level):>3} "
            f"{_fmt_bytes(_attr(span, 'bytes_in')):>9} "
            f"{_fmt_bytes(_attr(span, 'bytes_out')):>9} {wait_ms}  {guard}"
        )
    if limit > 0 and len(jobs) > limit:
        print(f"... {len(jobs) - limit} more (raise --limit)")


def report_stalls(spans: List[Dict[str, object]], window: float = 0.0) -> None:
    stalls = [s for s in spans if s["name"] == "stall"]
    writes = [s for s in spans if s["name"] == "write"]
    if not stalls and not writes:
        print("no stall or write spans in this trace")
        return
    if stalls:
        by_cause: Dict[str, List[float]] = {}
        for span in stalls:
            cause = str(_attr(span, "cause", "unknown"))
            by_cause.setdefault(cause, []).append(
                float(span["end"]) - float(span["start"])
            )
        total = sum(sum(v) for v in by_cause.values())
        print(f"{'cause':<20} {'count':>7} {'seconds':>12} {'share':>7}  note")
        print("-" * 76)
        for cause in sorted(by_cause, key=lambda c: -sum(by_cause[c])):
            seconds = sum(by_cause[cause])
            share = seconds / total * 100 if total else 0.0
            note = _STALL_CAUSES.get(cause, "(unknown cause label)")
            print(
                f"{cause:<20} {len(by_cause[cause]):>7} {seconds:>12.6f} "
                f"{share:>6.1f}%  {note}"
            )
        print("-" * 76)
        print(f"{'total':<20} {len(stalls):>7} {total:>12.6f}")
    else:
        print("no stall spans in this trace")
    if not writes:
        return
    # Per-window write-latency percentiles: the same reducer and quantile
    # names the stability bench uses, so the two reports agree.
    t_lo = min(float(s["start"]) for s in writes)
    t_hi = max(float(s["end"]) for s in writes)
    if window <= 0:
        window = max((t_hi - t_lo) / 20.0, 1e-6)
    reducer = WindowedHistogram(window)
    for span in writes:
        start = float(span["start"])
        reducer.record(start, float(span["end"]) - start)
    stall_by_window: Dict[int, float] = {}
    for span in stalls:
        index = reducer.window_index(float(span["start"]))
        stall_by_window[index] = stall_by_window.get(index, 0.0) + (
            float(span["end"]) - float(span["start"])
        )
    names = [name for name, _ in SUMMARY_PERCENTILES]
    print()
    print(f"write latency per {window:.6f}s window (us):")
    header = f"{'window-start':>13} {'writes':>7}"
    for name in names:
        header += f" {name:>9}"
    header += f" {'stall-s':>9}"
    print(header)
    print("-" * len(header))
    for row in reducer.summary():
        line = f"{row['start']:>13.6f} {row['count']:>7}"
        for name in names:
            line += f" {float(row[name]) * 1e6:>9.1f}"
        line += f" {stall_by_window.get(row['window'], 0.0):>9.6f}"
        print(line)


def report_reads(spans: List[Dict[str, object]]) -> None:
    gets = [s for s in spans if s["name"] == "get"]
    searches = [s for s in spans if s["name"] == "table.search"]
    if not gets and not searches:
        print("no read-path spans in this trace")
        return
    if gets:
        found = sum(1 for s in gets if _attr(s, "found"))
        sources: Dict[str, int] = {}
        for span in gets:
            source = str(_attr(span, "source", "miss"))
            sources[source] = sources.get(source, 0) + 1
        total_s = sum(float(s["end"]) - float(s["start"]) for s in gets)
        print(
            f"gets: {len(gets)} ({found} found), "
            f"mean {total_s / len(gets) * 1e6:.1f}us"
        )
        for source in sorted(sources):
            print(f"  source {source:<10} {sources[source]:>7}")
    if searches:
        names = ("files_probed", "bloom_skipped", "seq_skipped")
        tallies: Dict[object, List[int]] = {}
        for span in searches:
            row = tallies.setdefault(_attr(span, "level"), [0] * len(names))
            for i, name in enumerate(names):
                row[i] += int(_attr(span, name, 0) or 0)
        print(f"table searches: {len(searches)} (grouped by found-at level)")
        print(f"{'level':>7} {'files-probed':>13} {'bloom-skipped':>14} {'seq-skipped':>12}")
        for level in sorted(tallies, key=lambda x: (x is None, str(x))):
            label = "(miss)" if level is None else str(level)
            probed, bloom, seq = tallies[level]
            print(f"{label:>7} {probed:>13} {bloom:>14} {seq:>12}")


def report_dump(spans: List[Dict[str, object]], limit: int) -> None:
    """Render a flight-recorder dump: reason header + recent records."""
    header = next((s for s in spans if s["name"] == "flight.dump"), None)
    if header is not None:
        print(
            f"flight dump: reason={_attr(header, 'reason', '?')} "
            f"component={_attr(header, 'component', '?')} "
            f"at={float(header['start']):.6f}s "
            f"({_attr(header, 'records', 0)} ring records)"
        )
    else:
        print("flight dump: (no flight.dump header — plain trace file?)")
    records = [s for s in spans if s is not header]
    if not records:
        print("ring was empty at dump time")
        return
    records.sort(key=lambda s: (float(s["start"]), float(s["end"])))
    print(f"{'start-s':>12} {'dur-us':>9} {'kind':<11} {'name':<26} attrs")
    print("-" * 84)
    shown = records if limit <= 0 else records[-limit:]
    if len(shown) < len(records):
        print(f"... {len(records) - len(shown)} earlier (raise --limit)")
    for span in shown:
        duration_us = (float(span["end"]) - float(span["start"])) * 1e6
        attrs = span.get("attrs") or {}
        attr_text = " ".join(
            f"{k}={v}" for k, v in sorted(attrs.items()) if k != "component"
        )
        print(
            f"{float(span['start']):>12.6f} {duration_us:>9.1f} "
            f"{str(span['kind']):<11} {str(span['name']):<26} {attr_text}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spans = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"repro-trace: {args.trace} contains no spans", file=sys.stderr)
        return 1
    if args.report != "dump":
        # A dump ring may hold spans whose parents were evicted, so the
        # nesting invariant only applies to full trace files.
        try:
            verify_nesting(spans)
        except AssertionError as exc:
            print(f"repro-trace: nesting violation: {exc}", file=sys.stderr)
            return 1
    try:
        if args.report == "summary":
            report_summary(spans)
        elif args.report == "timeline":
            report_timeline(spans, args.limit)
        elif args.report == "stalls":
            report_stalls(spans, args.window)
        elif args.report == "dump":
            report_dump(spans, args.limit)
        else:
            report_reads(spans)
    except BrokenPipeError:  # downstream `head` closed the pipe; not an error
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
