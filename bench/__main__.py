"""``python -m bench one|run|trace|compare`` — see bench/README.md."""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports are set-up

import argparse
import glob
import json
import os
import subprocess
import sys
from typing import List, Optional

from bench.spec import END_TO_END, PER_LAYER, RUN_SECONDS, SMOKE_SCALE, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="run one workload in this process (the driver's entry)")
    one.add_argument("--workload", required=True, choices=list(WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help=f"scales the pinned op counts by seconds/{RUN_SECONDS} (no timer)")
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--out", default=None, help="directory for the full result record")

    for name, text in (
        ("run", "all workloads untraced, one fresh process each: the end-to-end metrics"),
        ("trace", "all workloads untraced then traced: the per-layer metrics"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--seed", type=int, default=1)
        cmd.add_argument("--out", default=None, help="directory collecting result records")
        cmd.add_argument("--runs", type=int, default=1, help="repeat the whole set")
        cmd.add_argument("--seconds", type=float, default=RUN_SECONDS)
        cmd.add_argument("--smoke", action="store_true", help="1/20 of the op counts")
        cmd.add_argument("--workloads", nargs="*", default=list(WORKLOADS),
                         choices=list(WORKLOADS))

    compare = sub.add_parser("compare", help="judge two sets of runs by the pinned bounds")
    compare.add_argument("a", help="directory of baseline run records")
    compare.add_argument("b", help="directory of candidate run records")
    return parser


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` so that set order — and
    with it any simulated outcome that follows set order — is the same in
    every run (worker processes inherit it)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], env)


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_result(result: dict) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} repetitions={result['repetitions']} "
        f"ops={result['ops']} samples={result['samples']} "
        f"host_noise_ratio={result['host_noise_ratio']:.3f} "
        f"inputs_sha256={result['inputs_sha256'][:16]}"
    )
    for metric in END_TO_END:
        value = result["end_to_end"][metric.name]
        reason = result["null_reasons"].get(metric.name)
        print(f"  {metric.name:<18} {_format(value):>12} {metric.unit}"
              + (f"   ({reason})" if reason else ""))
    if result["trace"]:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<44} {_format(result['per_layer'][name]):>14} {unit}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")


def _save(result: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if result["trace"] else "run"
    stem = os.path.join(out_dir, f"{result['workload']}.{kind}")
    index = len(glob.glob(f"{stem}.*.json")) + 1
    with open(f"{stem}.{index}.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def _one(args) -> int:
    _pin_hash_seed()
    from bench.harness import driver_line, run_workload

    result = run_workload(
        args.workload,
        args.seed,
        scale=args.seconds / RUN_SECONDS,
        trace=bool(args.trace),
        out_dir=args.out,
        import_s=time.perf_counter() - _T0,
    )
    _print_result(result)
    if args.out:
        _save(result, args.out)
    _reap_resource_tracker()
    print(driver_line(result), flush=True)
    return 0


def _reap_resource_tracker() -> None:
    """The process serving mode spawns its workers, which makes Python
    start a ``multiprocessing`` resource-tracker helper that would outlive
    this process by a moment.  Nothing we started may be left running, so
    stop it and wait for it (``_stop`` is what the stdlib's own tests
    use; without it the helper still exits by itself)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _all(args, trace: int) -> int:
    """One fresh subprocess per workload; non-zero if any was wrong."""
    seconds = args.seconds * (SMOKE_SCALE if args.smoke else 1.0)
    env = dict(os.environ, PYTHONHASHSEED="0")
    wrong: List[str] = []
    for _ in range(args.runs):
        for workload in args.workloads:
            cmd = [sys.executable, "-m", "bench", "one", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.out:
                cmd += ["--out", args.out]
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                wrong.append(workload)
    if wrong:
        print(f"FAILED: {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "one":
        return _one(args)
    if args.command == "compare":
        from bench.compare import compare

        return compare(args.a, args.b)
    return _all(args, trace=int(args.command == "trace"))


if __name__ == "__main__":
    raise SystemExit(main())
