"""What the benchmark measures: workloads, metrics, bounds, pinned sizes.

Everything a later PR is judged by is fixed here and mirrored in
``BENCHMARK.json`` (``test_spec.py`` keeps the two in step).  Changing a
number in this file changes the benchmark, which is its own PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

KiB = 1024
MiB = 1024 * 1024

#: Repetitions of (set up from scratch, time) per untraced run, on
#: identical inputs; host-clock metrics are medians over them.
REPEATS = 3
#: Host seconds one run measures on the seed commit on the 2-core
#: reference box: ``REPEATS`` timed phases of about 3 s each.  Op counts
#: below are pinned for that length; ``--seconds`` scales every op count
#: by ``seconds / RUN_SECONDS``, so a run does a *fixed* amount of work
#: (same-seed runs then agree on every exact metric to the last digit)
#: rather than stopping on a timer.
RUN_SECONDS = 9
#: Self-test scale (1/20 of the pinned op counts).
SMOKE_SCALE = 0.05

ENGINE = "pebblesdb"
VALUE_BYTES = 1 * KiB
PAGE_CACHE_BYTES = 8 * MiB
#: Store seed (skip-list heights etc.); the workload ``--seed`` only
#: drives the generated inputs.
STORE_SEED = 0

#: Constant arrival rate of the open-loop pass of ``write_heavy`` in ops
#: per *simulated* second: 0.8 x the seed commit's closed-loop
#: ``sim_kops`` on that workload (121.2 K ops/sim-s at seed 1), rounded to
#: two figures and frozen.  It is an absolute rate, not re-derived per
#: run: a change that slows the simulated write path then shows up as a
#: longer open-loop queue instead of silently lowering the offered load.
OPEN_LOOP_SIM_OPS_PER_S = 97_000

SERVED_SHARDS = 2
SERVED_CONNECTIONS = 2
SERVED_CLIENTS = 8  # 2 connections x 4 outstanding, closed loop


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, goes to BENCHMARK.json
    #: Pinned op counts at scale 1.
    sizes: Dict[str, int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "write_heavy",
            "random inserts then overwrites: memtable, WAL, flush, sstable+bloom build, "
            "guard compaction and manifest do all the work; the read path does none",
            {"inserts": 12_000, "overwrites": 12_000},
        ),
        Workload(
            "read_aged",
            "uniform gets (10% absent) on an aged store larger than the block and page "
            "caches: bloom, index bisect, block decode, device charge; write path idle",
            {"inserts": 26_000, "overwrites": 13_000, "warmup": 5_000, "gets": 28_000},
        ),
        Workload(
            "scan_short",
            "zipfian seek+next(1..50) with 5% inserts on a store that fits the block "
            "cache: iterator merge and guard bookkeeping dominate, block decode does little",
            {"inserts": 20_000, "ops": 1_500},
        ),
        Workload(
            "served_ycsb_a",
            "50/50 get/put zipfian through ClusterClient over TCP to a 2-shard "
            "process-mode server: the only workload where net.* does any work",
            {"records": 12_000, "warmup": 3_000, "ops": 15_000},
        ),
    )
}


def scaled_sizes(workload: str, scale: float) -> Dict[str, int]:
    """Op counts of ``workload`` at ``scale`` (never below a small floor,
    so percentiles and the per-client split stay defined)."""
    return {
        key: max(SERVED_CLIENTS * 4, int(round(count * scale)))
        for key, count in WORKLOADS[workload].sizes.items()
    }


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "count"
    #: Share of the baseline median by which the metric may get worse
    #: before ``compare`` calls it a regression; ``None`` = exact (same
    #: seed must agree to the last digit, any difference is judged by
    #: direction).
    bound: Optional[float]
    what: str


#: The twelve end-to-end metrics, in print order.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_kops", "kops/s", "higher", "host", 0.08,
           "timed-phase ops / host seconds (closed loop)"),
    Metric("wall_p50_us", "us", "lower", "host", 0.10,
           "median per-op host latency, timed phase"),
    Metric("wall_p99_us", "us", "lower", "host", 0.10,
           "p99 per-op host latency, timed phase"),
    Metric("setup_s", "s", "lower", "host", 0.10,
           "imports + median of the set-ups (inputs, store/server build, load, warm-up)"),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.10,
           "max RSS of the workload process (+ largest worker in process mode)"),
    Metric("fail_ratio", "ratio", "lower", "count", 0.0,
           "ops that raised, were refused, or disagreed with the reference model / attempted"),
    Metric("sim_kops", "kops/sim_s", "higher", "sim", None,
           "timed-phase ops / simulated seconds (the paper's throughput)"),
    Metric("sim_p99_us", "sim_us", "lower", "sim", None,
           "p99 per-op simulated latency, closed loop"),
    Metric("sim_open_p99_us", "sim_us", "lower", "sim", None,
           "p99 simulated latency from each op's due time at a constant sim arrival rate"),
    Metric("write_amp", "ratio", "lower", "sim", None,
           "device bytes written (every ledger account) / user bytes written"),
    Metric("space_amp", "ratio", "lower", "sim", None,
           "live device bytes at the end / key+value bytes of live keys in the model"),
    Metric("read_kb_per_op", "KiB", "lower", "sim", None,
           "device bytes read (user + compaction accounts) / timed ops"),
)
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}

#: ``compare`` bounds that differ on one workload: the served numbers
#: depend on asyncio/TCP timing (group-commit composition), so they are
#: not exact there.
BOUND_OVERRIDES: Dict[Tuple[str, str], float] = {
    ("served_ycsb_a", "wall_kops"): 0.10,
    ("served_ycsb_a", "write_amp"): 0.03,
    ("served_ycsb_a", "read_kb_per_op"): 0.03,
}

#: Why a metric is ``null`` on a workload.  Nothing else may be null.
NULL_REASONS: Dict[Tuple[str, str], str] = {
    **{
        (w, "sim_open_p99_us"): "the open-loop pass exists only on write_heavy"
        for w in ("read_aged", "scan_short", "served_ycsb_a")
    },
    **{
        ("served_ycsb_a", m): "group-commit composition follows asyncio/TCP timing, so "
        "per-shard sim time does not repeat (see net.server.sim_kops)"
        for m in ("sim_kops", "sim_p99_us", "space_amp")
    },
}


def bound_for(workload: str, metric: str) -> Optional[float]:
    override = BOUND_OVERRIDES.get((workload, metric))
    return override if override is not None else END_TO_END_BY_NAME[metric].bound


#: The driver that accepts later PRs reads BENCHMARK.json.  Its contract
#: wants every gated end-to-end metric to be a non-zero number on every
#: workload, one bound per metric that is a share of the median (at most
#: 0.25), and quartile spreads over ten runs with ten *different* seeds
#: that stay inside the bound — ideally under a third of it.  So the file
#: gates the five metrics below, with bounds about three times the widest
#: spread measured on any workload where the 0.25 cap allows it
#: (bench/README.md has the table), and carries the other seven as
#: ungated ``per_layer`` entries: null on some workload, zero by design,
#: or too seed-dependent on some workload to gate (``wall_p99_us`` sits on
#: the flush/compaction cliff and spreads 14-67 %, ``read_kb_per_op``
#: 43 % on served_ycsb_a).  ``compare`` still judges all twelve by the
#: bounds above.  ``setup_s`` gets the widest bound, as the contract asks.
DRIVER_BOUNDS: Dict[str, float] = {
    "wall_kops": 0.25,
    "wall_p50_us": 0.25,
    "setup_s": 0.25,
    "peak_rss_mb": 0.15,
    "write_amp": 0.10,
}
CARRIED = tuple(m.name for m in END_TO_END if m.name not in DRIVER_BOUNDS)

# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  Names are <module>.<metric>.
# ----------------------------------------------------------------------
STALL_CAUSES = ("imm_backpressure", "l0_slowdown", "l0_stop", "l0_stop_conflict")

#: Layers that get ``self_s`` + ``calls`` from the traced run.
TIMED_LAYERS = (
    "net.protocol", "net.transport", "net.router", "engines.base", "core.pebbles",
    "memtable", "wal", "sstable.builder", "sstable.reader", "sim.storage",
)
#: Layers that get ``self_s`` only (the ``calls`` of these are already an
#: exact count under another name, e.g. ``blocks_decoded``).
SELF_ONLY_LAYERS = (
    "bloom", "sstable.format", "sstable.block_cache", "sstable.merger",
    "version.manifest", "sim.cache",
)
#: Leaves too hot to time: counted only, their time stays in the caller.
COUNT_ONLY_LAYERS = ("core.guards", "util.murmur")


def _per_layer() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for name in CARRIED:
        m = END_TO_END_BY_NAME[name]
        out.append((m.name, m.unit, m.better))
    out.append(("host_noise_ratio", "ratio", "lower"))
    count = lambda n, better="lower": out.append((n, "count", better))
    # --- (a) exact counts from public stats surfaces --------------------
    for n in ("requests", "retries", "transient_errors", "overload_backoffs"):
        count(f"net.client.{n}")
    out.append(("net.client.get_p99_us", "us", "lower"))
    out.append(("net.client.put_p99_us", "us", "lower"))
    count("net.protocol.frames")
    out.append(("net.protocol.bytes", "B", "lower"))
    count("net.server.group_commits")
    out.append(("net.server.writes_per_commit", "ratio", "higher"))
    for n in ("duplicate_writes", "overload_rejects", "protocol_errors"):
        count(f"net.server.{n}")
    out.append(("net.server.sim_kops", "kops/sim_s", "higher"))
    out.append(("net.server.residue_s", "s", "lower"))
    out.append(("net.mp.parent_cpu_s", "s", "lower"))
    out.append(("net.mp.workers_cpu_s", "s", "lower"))
    out.append(("net.mp.shiplog_bytes", "B", "lower"))
    count("net.mp.shiplog_records")
    count("net.mp.heartbeat_misses")
    out.append(("net.mp.relay_overhead_us_per_op", "us", "lower"))
    count("engines.base.flush_count")
    out.append(("engines.base.stall_s", "sim_s", "lower"))
    for cause in STALL_CAUSES:
        out.append((f"engines.base.stall_s.{cause}", "sim_s", "lower"))
    out.append(("engines.base.open_backlog_us", "sim_us", "lower"))
    count("core.pebbles.compactions")
    out.append(("core.pebbles.compaction_bytes_written", "B", "lower"))
    for n in ("conflicts", "sstables_start", "sstables_end", "guards", "empty_guards"):
        count(f"core.pebbles.{n}")
    count("wal.syncs")
    out.append(("wal.ledger_write_bytes", "B", "lower"))
    out.append(("bloom.files_probed_per_get", "ratio", "lower"))
    out.append(("bloom.bloom_skipped_per_get", "ratio", "higher"))
    out.append(("bloom.useful_ratio", "ratio", "higher"))
    count("sstable.builder.tables_built")
    count("sstable.format.blocks_decoded")
    out.append(("sstable.block_cache.hit_rate", "ratio", "higher"))
    out.append(("sstable.block_cache.resident_mb", "MiB", "lower"))
    count("sstable.merger.entries")
    out.append(("version.manifest.ledger_write_bytes", "B", "lower"))
    count("version.manifest.edits")
    for n in ("write_ops", "read_ops", "sync_ops"):
        count(f"sim.storage.{n}")
    for n in ("flush.write_bytes", "compaction.write_bytes", "compaction.read_bytes",
              "user.read_bytes"):
        out.append((f"sim.storage.ledger.{n}", "B", "lower"))
    out.append(("sim.cache.hit_rate", "ratio", "higher"))
    count("sim.cache.evictions")
    count("sim.executor.jobs_run")
    out.append(("sim.executor.busy_sim_s", "sim_s", "lower"))
    # --- (b) host time from the traced run ------------------------------
    for layer in TIMED_LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        count(f"{layer}.calls")
    out.append(("core.pebbles.schedule_self_s", "s", "lower"))
    for layer in SELF_ONLY_LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
    for layer in COUNT_ONLY_LAYERS:
        count(f"{layer}.calls")
    out.append(("trace.residue_share", "ratio", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())
PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "-m", "bench", "one"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {
                "name": m.name,
                "unit": m.unit,
                "better": m.better,
                "bound": DRIVER_BOUNDS[m.name],
            }
            for m in END_TO_END
            if m.name in DRIVER_BOUNDS
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
