"""Run one workload and turn what it measured into named metrics.

``run_workload`` is what ``python -m bench one`` executes (one workload
per fresh process) and what the self-tests call in-process at smoke
scale.

An untraced run is ``REPEATS`` repetitions of *set up from scratch, then
time*, on identical inputs.  The work of every repetition is the same, so
the exact metrics must come out identical (checked) and each host-clock
metric is the median of the repetitions: the reference box slows down by
a quarter for ten seconds at a time when a neighbour wakes up, and one
such burst then costs one repetition, not the run.  A traced run times
the same inputs twice — untraced, then with the wrapper spans of
:mod:`bench.trace` installed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from bench import embedded, inputs
from bench.calibrate import speed_factor
from bench.embedded import EmbeddedSession, Timed
from bench.layers import percentile, store_layer_metrics
from bench.served import ServedSession
from bench.spec import (
    CARRIED,
    DRIVER_BOUNDS,
    END_TO_END,
    END_TO_END_BY_NAME,
    NULL_REASONS,
    PER_LAYER,
    PER_LAYER_NAMES,
    REPEATS,
    RUN_SECONDS,
    scaled_sizes,
)

SERVED = "served_ycsb_a"


@dataclass
class Rep:
    """One repetition: a set-up and the timed phase that followed it,
    each with the host-speed factor measured around it."""

    inp: object
    timed: Timed
    setup_s: float
    workers_peak_rss_kib: int
    setup_speed: float
    timed_speed: float


def _start_like_a_fresh_process() -> None:
    """Repetitions share a process but must do identical work: empty
    every module-level ``functools`` cache of the program (today only
    ``murmur3_64``'s, which would otherwise let later repetitions skip
    the hashing the first one paid for) and collect the garbage the
    previous repetition left behind."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def repeat(
    name: str,
    seed: int,
    sizes: Dict[str, int],
    repeats: int,
    scale: float,
    tracer=None,
    mode: str = "process",
) -> List[Rep]:
    """``repeats`` x (generate inputs, build, load, warm up, time), every
    phase bracketed by host-speed calibrations (see bench/calibrate.py)."""
    reps: List[Rep] = []
    speed = speed_factor(scale)
    for _ in range(repeats):
        _start_like_a_fresh_process()
        t0 = time.perf_counter()
        inp = inputs.GENERATORS[name](seed, sizes)
        session = ServedSession(mode) if name == SERVED else EmbeddedSession(name)
        try:
            session.setup(inp)
            setup_s = time.perf_counter() - t0
            before_timed = speed_factor(scale)
            timed = session.timed(inp, tracer)
            after_timed = speed_factor(scale)
        finally:
            session.close()  # also stops and joins the worker processes
        reps.append(
            Rep(
                inp,
                timed,
                setup_s,
                session.workers_peak_rss_kib,
                setup_speed=(speed + before_timed) / 2,
                timed_speed=(before_timed + after_timed) / 2,
            )
        )
        speed = after_timed
    return reps


def sim_side(name: str, rep: Rep) -> Dict[str, Optional[float]]:
    """The simulated-clock metrics of one repetition.  Write amplification
    is read over the store's whole life — load and warm-up included — at
    the end of the timed phase; reads are charged to the timed ops."""
    timed = rep.timed
    if name == SERVED:
        net = timed.extra
        return {
            "sim_kops": None,
            "sim_p99_us": None,
            "space_amp": None,
            "write_amp": net["life_device_write_bytes"] / net["life_user_bytes"],
            "read_kb_per_op": net["device_read_bytes"] / timed.ops / 1024,
        }
    before, after = timed.before, timed.after
    return {
        "sim_kops": timed.ops / (after["sim_now"] - before["sim_now"]) / 1e3,
        "sim_p99_us": percentile(timed.sim_lat_s, 0.99) * 1e6,
        "space_amp": timed.live_bytes_idle / rep.inp.live_bytes,
        "write_amp": after["device_write_bytes"] / after["user_bytes"],
        "read_kb_per_op": (after["device_read_bytes"] - before["device_read_bytes"])
        / timed.ops
        / 1024,
    }


def host_side(reps: List[Rep], import_s: float, calibrated: bool) -> Dict[str, float]:
    """The host-time metrics, each the median over the repetitions; in
    calibrated (reference-box) seconds, or raw as measured."""
    phases = [(rep.timed, rep.timed_speed if calibrated else 1.0) for rep in reps]
    setups = [rep.setup_s / (rep.setup_speed if calibrated else 1.0) for rep in reps]
    median = lambda f: statistics.median(f(timed, speed) for timed, speed in phases)
    return {
        "wall_kops": median(lambda t, speed: t.ops / (t.wall_s / speed) / 1e3),
        "wall_p50_us": median(lambda t, speed: percentile(t.lat_s, 0.50) / speed * 1e6),
        "wall_p99_us": median(lambda t, speed: percentile(t.lat_s, 0.99) / speed * 1e6),
        "setup_s": import_s / (reps[0].setup_speed if calibrated else 1.0)
        + statistics.median(setups),
    }


def end_to_end(
    name: str, reps: List[Rep], import_s: float, open_loop: Optional[dict]
) -> Dict[str, Optional[float]]:
    """The twelve end-to-end metrics (``None`` only per ``NULL_REASONS``):
    host-clock ones calibrated and as medians over the repetitions,
    simulated-clock ones from the first (they are the same in all)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kib += max(rep.workers_peak_rss_kib for rep in reps)
    out: Dict[str, Optional[float]] = {
        **host_side(reps, import_s, calibrated=True),
        "peak_rss_mb": rss_kib / 1024,
        "fail_ratio": sum(r.timed.failed for r in reps) / sum(r.timed.attempted for r in reps),
        "sim_open_p99_us": (
            percentile(open_loop["lat_sorted_s"], 0.99) * 1e6 if open_loop else None
        ),
        **sim_side(name, reps[0]),
    }
    for metric, value in out.items():
        if (value is None) != ((name, metric) in NULL_REASONS):
            raise AssertionError(f"{name}.{metric}: null-ness disagrees with the spec")
    return {m.name: out[m.name] for m in END_TO_END}


def _net_layer_metrics(served: Optional[Timed]) -> Dict[str, float]:
    """(a)-column counts of the serving layers from a process-mode phase;
    all zero on an embedded workload (``served`` is None), where nothing
    in ``net.*`` runs."""
    net = served.extra if served is not None else {}
    n = lambda key: net.get(key, 0)
    return {
        "net.client.requests": n("requests"),
        "net.client.retries": n("retries"),
        "net.client.transient_errors": n("transient_errors"),
        "net.client.overload_backoffs": n("overload_backoffs"),
        "net.client.get_p99_us": percentile(net.get("get_lat_sorted_s", []), 0.99) * 1e6,
        "net.client.put_p99_us": percentile(net.get("put_lat_sorted_s", []), 0.99) * 1e6,
        "net.server.group_commits": n("group_commits"),
        "net.server.writes_per_commit": (
            n("coalesced_writes") / n("group_commits") if n("group_commits") else 0.0
        ),
        "net.server.duplicate_writes": n("duplicate_writes"),
        "net.server.overload_rejects": n("overload_rejects"),
        "net.server.protocol_errors": n("protocol_errors"),
        "net.server.sim_kops": served.ops / n("sim_s") / 1e3 if n("sim_s") else 0.0,
        "net.mp.parent_cpu_s": n("parent_cpu_s"),
        "net.mp.workers_cpu_s": n("workers_cpu_s"),
        "net.mp.shiplog_bytes": n("shiplog_bytes"),
        "net.mp.shiplog_records": n("shiplog_records"),
        "net.mp.heartbeat_misses": n("heartbeat_misses"),
    }


def environment_record() -> Dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
    }


def _git_sha() -> str:
    """HEAD of the checkout the benchmark lives in, read from ``.git``
    without starting a process; ``unknown`` outside a git checkout."""
    git = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _noise(timed: Timed) -> float:
    """1 - process CPU / host time over a timed phase: a phase that a
    neighbour descheduled shows here instead of just looking slow.  (On
    the served workload the process also waits for its workers, so the
    ratio is high by design there.)"""
    return max(0.0, 1.0 - timed.cpu_s / timed.wall_s)


def run_workload(
    name: str,
    seed: int,
    *,
    scale: float = 1.0,
    trace: bool = False,
    out_dir: Optional[str] = None,
    import_s: float = 0.0,
) -> Dict[str, object]:
    """Run ``name`` once; returns the full result record."""
    sizes = scaled_sizes(name, scale)
    reps = repeat(name, seed, sizes, 1 if trace else REPEATS, scale)
    first = reps[0]
    open_loop = embedded.write_heavy_open_loop(first.inp) if name == "write_heavy" else None
    e2e = end_to_end(name, reps, import_s, open_loop)
    attempted = sum(rep.timed.attempted for rep in reps) + 1
    failed = sum(rep.timed.failed for rep in reps)
    # Identical work must give identical simulated numbers.  (Not on the
    # served workload, whose group commits follow host timing.)
    repeatable = name == SERVED or all(sim_side(name, r) == sim_side(name, first) for r in reps)
    failed += not repeatable
    noise = statistics.median(_noise(rep.timed) for rep in reps)
    layers: Dict[str, float] = {}
    if trace:
        layers, moved = _traced_layers(name, seed, sizes, scale, first, out_dir)
        attempted, failed = attempted + 1, failed + moved
    e2e["fail_ratio"] = failed / attempted
    if trace:
        layers["engines.base.open_backlog_us"] = (
            open_loop["backlog_s"] * 1e6 if open_loop else 0.0
        )
        layers["host_noise_ratio"] = noise
        # Not applicable on this workload reads as 0 on the driver's line.
        layers.update({m: e2e[m] if e2e[m] is not None else 0.0 for m in CARRIED})
        if set(layers) != set(PER_LAYER_NAMES):
            raise AssertionError(sorted(set(layers) ^ set(PER_LAYER_NAMES)))
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": scale * RUN_SECONDS,
        "trace": int(trace),
        "env": environment_record(),
        "inputs_sha256": first.inp.sha256,
        "ops": first.timed.ops,
        "samples": len(first.timed.lat_s),
        "repetitions": len(reps),
        "setups_s": [rep.setup_s for rep in reps],
        "import_s": import_s,
        "timed_wall_s": [rep.timed.wall_s for rep in reps],
        "speed_factors": [[rep.setup_speed, rep.timed_speed] for rep in reps],
        "raw_host": host_side(reps, import_s, calibrated=False),
        "host_noise_ratio": noise,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": e2e,
        "null_reasons": {
            metric: reason for (w, metric), reason in NULL_REASONS.items() if w == name
        },
        "per_layer": layers,
    }


def _traced_layers(
    name: str, seed: int, sizes, scale: float, untraced: Rep, out_dir: Optional[str]
) -> Tuple[Dict[str, float], int]:
    """The per-layer metrics: exact counts from an untraced phase, host
    time from a second phase on identical inputs with spans installed.

    For the served workload the pair runs against an in-process server
    over TCP so every layer is in this interpreter; ``net.mp.*`` comes
    from the process-mode phase (``untraced``) and from the difference
    between the two modes.  Returns the metrics and 1 if a phase failed
    or the spans moved an exact metric (they must not perturb the
    simulation), else 0.
    """
    from bench.trace import Tracer

    served = name == SERVED
    plain = repeat(name, seed, sizes, 1, scale, mode="loopback")[0] if served else untraced
    tracer = Tracer(record_spans=out_dir is not None)
    tracer.install()
    try:
        traced = repeat(name, seed, sizes, 1, scale, tracer=tracer, mode="loopback")[0]
    finally:
        tracer.uninstall()
    layers = store_layer_metrics(plain.timed.before, plain.timed.after)
    layers.update(tracer.layer_metrics(traced.timed.wall_s, plain.timed.wall_s))
    layers.update(_net_layer_metrics(untraced.timed if served else None))
    if served:
        layers["net.mp.relay_overhead_us_per_op"] = (
            untraced.timed.wall_s / untraced.timed.ops - plain.timed.wall_s / plain.timed.ops
        ) * 1e6
        layers["net.server.residue_s"] = tracer.residue_seconds(traced.timed.wall_s)
        moved = False
    else:
        layers["net.mp.relay_overhead_us_per_op"] = 0.0
        layers["net.server.residue_s"] = 0.0
        moved = sim_side(name, traced) != sim_side(name, untraced)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"{name}.spans.jsonl"))
    return layers, int(moved or plain.timed.failed > 0 or traced.timed.failed > 0)


def driver_line(result: Dict[str, object]) -> str:
    """The one-line JSON the driver reads: exactly the gated end-to-end
    metrics untraced, exactly the per-layer metrics traced."""
    if result["trace"]:
        units = {n: u for n, u, _ in PER_LAYER}
        values = result["per_layer"]
    else:
        units = {n: END_TO_END_BY_NAME[n].unit for n in DRIVER_BOUNDS}
        values = result["end_to_end"]
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
