"""The three embedded workloads: one synchronous caller on one store.

Each workload is a ``setup`` (build the environment and store, load,
warm up) and a ``timed`` closed loop.  Per-op host latency is read with
``time.perf_counter`` and per-op simulated latency from the store's own
clock around the same call; every result is compared with the reference
model as it arrives (outside the latency sample).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro

from bench import inputs as gen
from bench.layers import Snapshot, snapshot_store
from bench.spec import (
    ENGINE,
    OPEN_LOOP_SIM_OPS_PER_S,
    PAGE_CACHE_BYTES,
    STORE_SEED,
)


@dataclass
class Timed:
    """What one timed phase measured."""

    ops: int
    wall_s: float
    cpu_s: float
    #: Per-op host and simulated latencies, ascending.
    lat_s: List[float]
    sim_lat_s: List[float]
    attempted: int
    failed: int
    before: Snapshot
    after: Snapshot
    #: Live device bytes once all scheduled background work has applied.
    live_bytes_idle: int = 0
    #: Serving-side counters and latency samples (served workload only).
    extra: Dict[str, object] = field(default_factory=dict)


#: Stands in for the result of an op that raised; equals no expected value.
_RAISED = object()


def build_store() -> Tuple[repro.Environment, object]:
    """A fresh environment and an empty store: the preset's default
    ``StoreOptions`` (no knob touched), own 8 MiB page cache."""
    env = repro.Environment(cache_bytes=PAGE_CACHE_BYTES)
    db = repro.open_store(ENGINE, env.storage, prefix="db/", seed=STORE_SEED)
    return env, db


def _load(db, pairs) -> None:
    put = db.put
    for key, value in pairs:
        put(key, value)
    db.wait_idle()


class _Loop:
    """Start/stop bookkeeping shared by the timed loops."""

    def __init__(self, env, db, ops: int, tracer) -> None:
        self.env, self.db, self.ops, self.tracer = env, db, ops, tracer
        self.lat = [0.0] * ops
        self.sim_lat = [0.0] * ops
        self.attempted = 0
        self.failed = 0

    def __enter__(self) -> "_Loop":
        self.before = snapshot_store(self.db, self.env)
        if self.tracer is not None:
            self.tracer.start()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.stop()

    def result(self) -> Timed:
        after = snapshot_store(self.db, self.env)
        self.db.wait_idle()
        return Timed(
            ops=self.ops,
            wall_s=self.wall_s,
            cpu_s=self.cpu_s,
            lat_s=sorted(self.lat),
            sim_lat_s=sorted(self.sim_lat),
            attempted=self.attempted,
            failed=self.failed,
            before=self.before,
            after=after,
            live_bytes_idle=self.env.storage.total_live_bytes(self.db.prefix),
        )


# ----------------------------------------------------------------------
# write_heavy
# ----------------------------------------------------------------------
def write_heavy_setup(inp: gen.WriteHeavyInputs):
    return build_store()


def write_heavy_timed(env, db, inp: gen.WriteHeavyInputs, tracer=None) -> Timed:
    ops = inp.ops
    clock, put, now = env.clock, db.put, time.perf_counter
    with _Loop(env, db, len(ops), tracer) as loop:
        lat, sim_lat = loop.lat, loop.sim_lat
        failed = 0
        for i, (key, value) in enumerate(ops):
            s0 = clock.now
            t0 = now()
            try:
                put(key, value)
            except Exception:
                failed += 1
            lat[i] = now() - t0
            sim_lat[i] = clock.now - s0
    loop.attempted, loop.failed = len(ops), failed
    timed = loop.result()
    # The whole model, not a sample: a full forward scan must equal it.
    scanned = list(db.scan())
    timed.attempted += len(inp.final)
    if scanned != inp.final:
        have = dict(scanned)
        wrong = sum(1 for k, v in inp.final if have.get(k) != v)
        timed.failed += max(1, wrong + abs(len(scanned) - len(inp.final)))
    return timed


def write_heavy_open_loop(inp: gen.WriteHeavyInputs) -> Dict[str, float]:
    """Pass 2: the same puts on a fresh store at a constant arrival rate
    on the *simulated* clock, each timed from its due time (Luo & Carey).
    On the simulated clock the schedule is exact: the generator is never
    late, so the whole delay is the store's."""
    env, db = build_store()
    clock, put = env.clock, db.put
    interval = 1.0 / OPEN_LOOP_SIM_OPS_PER_S
    start = clock.now
    lat = [0.0] * len(inp.ops)
    due = start
    for i, (key, value) in enumerate(inp.ops):
        due = start + i * interval
        clock.advance_to(due)
        put(key, value)
        lat[i] = clock.now - due
    backlog = clock.now - due
    db.close()
    lat.sort()
    return {"lat_sorted_s": lat, "backlog_s": backlog}


# ----------------------------------------------------------------------
# read_aged
# ----------------------------------------------------------------------
def _gets(db, env, pairs, loop: Optional[_Loop]) -> int:
    """Issue the gets; returns how many disagreed with the model."""
    clock, get, now = env.clock, db.get, time.perf_counter
    lat = loop.lat if loop is not None else None
    sim_lat = loop.sim_lat if loop is not None else None
    failed = 0
    for i, (key, expected) in enumerate(pairs):
        s0 = clock.now
        t0 = now()
        try:
            got = get(key)
        except Exception:
            got = _RAISED
        t1 = now()
        if lat is not None:
            lat[i] = t1 - t0
            sim_lat[i] = clock.now - s0
        if got != expected:
            failed += 1
    return failed


def read_aged_setup(inp: gen.ReadAgedInputs):
    env, db = build_store()
    _load(db, inp.load)  # wait_idle, but no compact_all: the store stays aged
    _gets(db, env, inp.warmup, None)
    return env, db


def read_aged_timed(env, db, inp: gen.ReadAgedInputs, tracer=None) -> Timed:
    with _Loop(env, db, len(inp.gets), tracer) as loop:
        failed = _gets(db, env, inp.gets, loop)
    loop.attempted, loop.failed = len(inp.gets), failed
    return loop.result()


# ----------------------------------------------------------------------
# scan_short
# ----------------------------------------------------------------------
def scan_short_setup(inp: gen.ScanInputs):
    env, db = build_store()
    _load(db, inp.load)
    return env, db


def scan_short_timed(env, db, inp: gen.ScanInputs, tracer=None) -> Timed:
    ops = inp.ops
    clock, now = env.clock, time.perf_counter
    seek, put = db.seek, db.put
    with _Loop(env, db, len(ops), tracer) as loop:
        lat, sim_lat = loop.lat, loop.sim_lat
        failed = 0
        for i, (tag, key, arg, expected) in enumerate(ops):
            s0 = clock.now
            t0 = now()
            try:
                if tag == gen.INSERT:
                    put(key, arg)
                    got = None
                else:
                    got = []
                    it = seek(key)
                    steps = arg
                    while it.valid:
                        got.append((it.key(), it.value()))
                        if steps == 0:
                            break
                        steps -= 1
                        it.next()
                    it.close()
            except Exception:
                got = _RAISED
            lat[i] = now() - t0
            sim_lat[i] = clock.now - s0
            if got != expected:  # ascending keys, exact count, exact values
                failed += 1
    loop.attempted, loop.failed = len(ops), failed
    return loop.result()


#: name -> (setup, timed).  ``timed(env, db, inputs, tracer)``.
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "write_heavy": (write_heavy_setup, write_heavy_timed),
    "read_aged": (read_aged_setup, read_aged_timed),
    "scan_short": (scan_short_setup, scan_short_timed),
}


class EmbeddedSession:
    """Sync setup/timed/close over one embedded store (the shape
    :class:`bench.served.ServedSession` has for a cluster)."""

    workers_peak_rss_kib = 0
    env = db = None

    def __init__(self, name: str) -> None:
        self._setup, self._timed = WORKLOADS[name]

    def setup(self, inp) -> None:
        self.env, self.db = self._setup(inp)

    def timed(self, inp, tracer=None) -> Timed:
        return self._timed(self.env, self.db, inp, tracer)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
        self.env = self.db = None
