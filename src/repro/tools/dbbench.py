"""db_bench-style command line runner.

Mirrors LevelDB's ``db_bench`` flags on the simulated stores::

    python -m repro.tools.dbbench --engine pebblesdb \
        --num 20000 --value-size 1024 --threads 1 \
        --benchmarks fillrandom,readrandom,seekrandom

Prints one result row per benchmark phase (simulated KOps/s and exact
device IO) and a final stats block.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.engines.registry import ENGINES
from repro.errors import ReproError
from repro.harness import fresh_run, standard_config
from repro.obs.render import report
from repro.sim.aging import FilesystemAging
from repro.sim.device import DeviceModel
from repro.sim.faults import FaultInjector, FaultPlan
from repro.workloads.db_bench import BenchResult

#: Benchmarks the CLI understands, in db_bench naming.
BENCHMARKS = (
    "fillseq",
    "fillrandom",
    "fillsync",
    "overwrite",
    "readrandom",
    "readmissing",
    "readhot",
    "readseq",
    "seekrandom",
    "rangequery",
    "deleterandom",
    "mixed",
    "compact",
    "fillrandom-large",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dbbench",
        description="Run db_bench-style workloads against a simulated store.",
    )
    parser.add_argument(
        "--engine",
        default="pebblesdb",
        help="engine name, comma-separated list, or 'all' to compare "
        f"(choices: {', '.join(ENGINES)})",
    )
    parser.add_argument("--num", type=int, default=20000, help="number of keys")
    parser.add_argument("--value-size", type=int, default=1024)
    parser.add_argument("--reads", type=int, default=None, help="read ops (default: num/4)")
    parser.add_argument("--seeks", type=int, default=None, help="seek ops (default: num/8)")
    parser.add_argument("--nexts", type=int, default=50, help="next() calls per rangequery")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cache-mb", type=float, default=None, help="page cache size (default: dataset/3)"
    )
    parser.add_argument(
        "--block-cache-mb",
        type=float,
        default=None,
        help="host-side decoded-block cache in MB (0 disables; wall-clock "
        "only, simulated metrics are identical either way)",
    )
    parser.add_argument("--device", choices=("ssd", "ssd-raid0", "hdd"), default="ssd-raid0")
    parser.add_argument(
        "--compaction-workers",
        type=int,
        default=None,
        help="background worker timelines (default: the engine preset's)",
    )
    parser.add_argument(
        "--guard-parallel",
        choices=("on", "off"),
        default="on",
        help="FLSM compaction scheduling granularity: 'on' runs "
        "independent guard jobs concurrently under the conflict map, "
        "'off' restores whole-level serialization (pebblesdb only)",
    )
    parser.add_argument(
        "--value-separation-bytes",
        type=int,
        default=None,
        metavar="N",
        help="store values >= N bytes in the garbage-collected value log "
        "instead of the LSM tree (KV separation; default: off)",
    )
    parser.add_argument("--aged-fs", action="store_true", help="age the file system first")
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="inject storage faults while benchmarking; one or more "
        "';'-separated specs 'kind:op:pattern:trigger[:times=N][:torn=F]' "
        "with trigger 'at=K' or 'p=X', e.g. "
        "'transient:sync:db/*.log:at=5' or 'persistent:append:*.sst:p=0.001' "
        "(see repro.sim.faults.FaultPlan.from_string)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for probabilistic fault triggers (plans are deterministic)",
    )
    parser.add_argument(
        "--benchmarks",
        default="fillrandom,readrandom,seekrandom",
        help="comma-separated list from: " + ",".join(BENCHMARKS),
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write per-phase results (throughput, IO, latency "
        "percentiles) as JSON",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a span trace JSONL (get/write/stall/flush/compaction "
        "spans on the simulated clock; deterministic per seed). With "
        "multiple engines each gets PATH.<engine>",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the final metrics registry exposition "
        "(Prometheus-style text). With multiple engines each gets "
        "PATH.<engine>",
    )
    return parser


def _device_factory(name: str):
    return {
        "ssd": DeviceModel.ssd,
        "ssd-raid0": DeviceModel.ssd_raid0,
        "hdd": DeviceModel.hdd,
    }[name]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(f"unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
        return 2

    engines = (
        list(ENGINES)
        if args.engine == "all"
        else [e.strip() for e in args.engine.split(",") if e.strip()]
    )
    bad = [e for e in engines if e not in ENGINES]
    if bad:
        print(f"unknown engines: {', '.join(bad)}", file=sys.stderr)
        return 2
    if args.fault_plan is not None:
        try:
            FaultPlan.from_string(args.fault_plan, seed=args.fault_seed)
        except ValueError as exc:
            print(f"bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    reports: List[Dict[str, object]] = []
    rc = 0
    for engine in engines:
        if len(engines) > 1:
            print(f"\n===== {engine} =====")
        rc |= _run_one(engine, names, args, reports, multi=len(engines) > 1)
    if args.json is not None:
        payload = {
            "tool": "repro-dbbench",
            "num_keys": args.num,
            "value_size": args.value_size,
            "value_separation_bytes": args.value_separation_bytes,
            "threads": args.threads,
            "seed": args.seed,
            "device": args.device,
            "benchmarks": names,
            "fault_plan": args.fault_plan,
            "engines": reports,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json results written to {args.json}")
    return rc


def _run_one(
    engine: str,
    names: List[str],
    args,
    reports: Optional[List[Dict[str, object]]] = None,
    multi: bool = False,
) -> int:
    overrides = {}
    lsm_engine = engine not in ("btree", "wiredtiger")
    if args.block_cache_mb is not None and lsm_engine:
        overrides.setdefault(engine, {})["block_cache_bytes"] = int(
            args.block_cache_mb * 1024 * 1024
        )
    if args.compaction_workers is not None and lsm_engine:
        overrides.setdefault(engine, {})["background_workers"] = args.compaction_workers
    if args.value_separation_bytes is not None and lsm_engine:
        overrides.setdefault(engine, {})["value_separation_bytes"] = (
            args.value_separation_bytes or None  # 0 means off
        )
    if engine == "pebblesdb":
        overrides.setdefault(engine, {})["compaction_scheduler"] = (
            "guard" if args.guard_parallel == "on" else "level"
        )
    cfg = standard_config(
        num_keys=args.num,
        value_size=args.value_size,
        threads=args.threads,
        seed=args.seed,
        cache_bytes=int(args.cache_mb * 1024 * 1024) if args.cache_mb else None,
        device_factory=_device_factory(args.device),
        aging=FilesystemAging(2, 0.89) if args.aged_fs else None,
        option_overrides=overrides,
    )
    run = fresh_run(engine, cfg)
    sink = None
    if args.trace_out is not None:
        from repro.obs.trace import TraceSink

        trace_path = f"{args.trace_out}.{engine}" if multi else args.trace_out
        sink = TraceSink(trace_path)
        run.db.enable_tracing(sink)
    if args.fault_plan is not None:
        # Attached after the store opens: setup IO is never faulted, the
        # benchmark phases run entirely under the plan.
        plan = FaultPlan.from_string(args.fault_plan, seed=args.fault_seed)
        run.env.storage.set_fault_injector(FaultInjector(plan))
    bench = run.bench
    reads = args.reads if args.reads is not None else max(1, args.num // 4)
    seeks = args.seeks if args.seeks is not None else max(1, args.num // 8)

    print(f"engine={engine} keys={args.num} value={args.value_size}B "
          f"threads={args.threads} cache={cfg.effective_cache_bytes() // 1024}KB "
          f"device={args.device}"
          + (f" fault-plan={args.fault_plan!r}" if args.fault_plan else ""))
    print("-" * 78)
    phases = {
        "fillseq": lambda: bench.fill_seq(),
        "fillrandom": lambda: bench.fill_random(),
        "fillsync": lambda: bench.fill_sync(),
        "overwrite": lambda: bench.overwrite(),
        "readrandom": lambda: bench.read_random(reads),
        "readmissing": lambda: bench.read_missing(reads),
        "readhot": lambda: bench.read_hot(reads),
        "readseq": lambda: bench.read_seq(reads),
        "seekrandom": lambda: bench.seek_random(seeks),
        "rangequery": lambda: bench.seek_random(seeks, nexts=args.nexts),
        "deleterandom": lambda: bench.delete_random(),
        "mixed": lambda: bench.mixed_read_write(reads, reads),
        "fillrandom-large": lambda: bench.fill_random_large(),
    }
    results: List[BenchResult] = []
    for name in names:
        if name == "compact":
            try:
                run.db.compact_all()
                print(f"{'compact':<16} store compacted")
            except ReproError as exc:
                print(f"{'compact':<16} FAILED: {exc}")
            continue
        try:
            results.append(phases[name]())
        except ReproError as exc:
            # An injected fault (or the degraded state it caused) stopped
            # the phase; report it and keep benchmarking.
            print(f"{name:<16} FAILED: {exc}")
            continue
        print(results[-1].row())

    try:
        run.db.wait_idle()
    except ReproError:
        pass
    stats = run.db.stats()
    print("-" * 78)
    print(f"write amplification, device IO and stalls at sim time {run.env.now:.3f}s")
    print(report(run.db))
    scheduler = run.db.get_property("repro.compaction-scheduler")
    faults = run.env.storage.faults
    if faults is not None:
        fs = faults.stats
        print(
            f"faults: {fs.faults_injected} injected over {fs.ops_seen} storage "
            f"ops ({fs.transient_injected} transient / "
            f"{fs.persistent_injected} persistent) | "
            f"retries {stats.transient_fault_retries} | "
            f"background errors {stats.background_errors} | "
            f"resumes {stats.resumes}"
        )
    if reports is not None:
        summary = {
            "engine": engine,
            "phases": [result.to_dict() for result in results],
            "write_amplification": round(stats.write_amplification, 4),
            "device_bytes_written": stats.device_bytes_written,
            "device_bytes_read": stats.device_bytes_read,
            "stall_seconds": round(stats.stall_seconds, 6),
            "sstable_count": stats.sstable_count,
            "sim_seconds": round(run.env.now, 6),
        }
        if scheduler is not None:
            summary["compaction_scheduler"] = scheduler
        if faults is not None:
            summary["faults_injected"] = faults.stats.faults_injected
            summary["background_errors"] = stats.background_errors
            summary["degraded"] = stats.degraded
        reports.append(summary)
    if args.metrics_out is not None:
        metrics_path = f"{args.metrics_out}.{engine}" if multi else args.metrics_out
        with open(metrics_path, "w") as handle:
            handle.write(run.db.get_property("repro.metrics") or "")
        print(f"metrics written to {metrics_path}")
    run.db.close()
    if sink is not None:
        sink.close()
        print(f"trace written to {trace_path} ({sink.spans_written} spans)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
