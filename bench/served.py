"""``served_ycsb_a``: the end-to-end scenario.

client -> ``net.protocol`` -> TCP -> (``net.mp`` relay ->) ``net.router``
-> ``net.server`` group commit -> engine -> simulated device.  Eight
closed-loop logical clients (2 connections x 4 outstanding) run in the one
benchmark process; in process mode each shard is its own worker process.

Closed loop only: a host-clock open loop on a shared 2-core box measures
the neighbours.  The open-loop instrument is the exact simulated-clock
one on ``write_heavy``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from typing import Dict, List, Optional

from repro.net import ClusterClient, ServerConfig, make_server

from bench import inputs as gen
from bench.embedded import Timed
from bench.layers import registry_total, snapshot_store, sum_snapshots
from bench.spec import ENGINE, PAGE_CACHE_BYTES, SERVED_CONNECTIONS, SERVED_SHARDS, STORE_SEED

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _worker_pids() -> List[int]:
    return [
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard") and p.pid is not None
    ]


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of another process (Linux ``/proc``; 0 elsewhere)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def _proc_peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class ServedSession:
    """One server + client pair; sync facade over a private event loop."""

    def __init__(self, mode: str = "process") -> None:
        self.mode = mode
        self._loop = asyncio.new_event_loop()
        self.server = None
        self.client: Optional[ClusterClient] = None
        self.setup_failed = 0
        self.workers_peak_rss_kib = 0

    def setup(self, inp: gen.ServedInputs) -> None:
        self._loop.run_until_complete(self._setup(inp))

    def timed(self, inp: gen.ServedInputs, tracer=None) -> Timed:
        return self._loop.run_until_complete(self._timed(inp, tracer))

    def close(self) -> None:
        self._loop.run_until_complete(self._close())
        self._loop.close()

    # ------------------------------------------------------------------
    async def _setup(self, inp: gen.ServedInputs) -> None:
        config = ServerConfig(
            engine=ENGINE,
            shards=SERVED_SHARDS,
            boundaries=list(inp.boundaries),
            seed=STORE_SEED,
            cache_bytes=PAGE_CACHE_BYTES,
        )
        self.server = make_server(config, serving_mode=self.mode)
        await self.server.serve_tcp("127.0.0.1", 0)
        host, port = self.server.tcp_address
        self.client = await ClusterClient.open_tcp(
            host, port, pool_size=SERVED_CONNECTIONS
        )
        load = [[(gen.PUT, k, v) for k, v in c.load] for c in inp.clients]
        await self._drive(load, None)
        await self._drive([c.warmup for c in inp.clients], None)
        await self.server.wait_idle()

    async def _close(self) -> None:
        if self.client is not None:
            await self.client.aclose()
        if self.server is not None:
            self.workers_peak_rss_kib = max(
                [_proc_peak_rss_kib(pid) for pid in _worker_pids()], default=0
            )
            await self.server.aclose()

    async def _drive(self, streams: List[List[tuple]], samples: Optional[dict]) -> None:
        """Run every client's op stream concurrently, each closed-loop."""
        client = self.client
        now = time.perf_counter

        async def one(ops: List[tuple]) -> None:
            get, put = client.get, client.put
            for tag, key, arg in ops:
                t0 = now()
                try:
                    if tag == gen.GET:
                        ok = (await get(key)) == arg
                    else:
                        # True = applied now; False = the server saw a
                        # duplicate, i.e. not acknowledged exactly once.
                        ok = (await put(key, arg)) is True
                except Exception:
                    ok = False
                elapsed = now() - t0
                if samples is not None:
                    samples["lat"].append(elapsed)
                    samples["get" if tag == gen.GET else "put"].append(elapsed)
                if not ok:
                    if samples is not None:
                        samples["failed"] += 1
                    else:
                        self.setup_failed += 1

        await asyncio.gather(*(one(ops) for ops in streams))

    def _store_snapshot(self):
        """Engine counters summed over the shards — only reachable when
        the shards live in this process (loopback serving mode)."""
        if self.mode != "loopback":
            return None
        return sum_snapshots(snapshot_store(s.db, s.env) for s in self.server.shards)

    async def _net_snapshot(self) -> Dict[str, float]:
        """Cumulative serving-side counters, read over the wire
        (``admin``), from the client, and from the server object."""
        server, stats = self.server, self.client.stats
        ledger = json.loads(await self.client.admin("ledger"))["totals"]
        totals = server.total_ops()
        registry = getattr(server, "registry", None)  # the process-mode parent's
        worker_errors = getattr(server, "worker_protocol_errors", lambda: 0)()
        return {
            "device_write_bytes": ledger["write_bytes"],
            "device_read_bytes": ledger["read_bytes"],
            "requests": stats.requests,
            "retries": stats.retries,
            "transient_errors": stats.transient_errors,
            "overload_backoffs": stats.overload_backoffs,
            "group_commits": totals["group_commits"],
            "coalesced_writes": totals["coalesced_writes"],
            "duplicate_writes": totals["duplicate_writes"],
            "overload_rejects": totals["overload_rejects"],
            "server_errors": totals["errors"],
            "protocol_errors": server.protocol_errors + worker_errors,
            "shiplog_bytes": registry_total(registry, "shiplog.bytes") if registry else 0,
            "shiplog_records": registry_total(registry, "shiplog.records") if registry else 0,
            "heartbeat_misses": (
                registry_total(registry, "supervisor.heartbeat_misses") if registry else 0
            ),
            "workers_cpu_s": sum(_proc_cpu_s(pid) for pid in _worker_pids()),
        }

    async def _timed(self, inp: gen.ServedInputs, tracer) -> Timed:
        streams = [c.ops for c in inp.clients]
        ops = sum(len(s) for s in streams)
        samples = {"lat": [], "get": [], "put": [], "failed": 0}
        store_before = self._store_snapshot()
        before = await self._net_snapshot()
        sim_before = self.server.shard_sim_times()
        if tracer is not None:
            tracer.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        await self._drive(streams, samples)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.stop()
        sim_s = max(
            b - a for a, b in zip(sim_before, self.server.shard_sim_times())
        )
        after = await self._net_snapshot()
        store_after = self._store_snapshot()
        await self.server.wait_idle()

        net = {k: after[k] - before[k] for k in after}
        puts = sum(1 for s in streams for op in s if op[0] == gen.PUT)
        failed = samples["failed"] + self.setup_failed
        # Beyond per-op answers: no bad frame anywhere, no server-side op
        # error, and every put committed once — never skipped as a duplicate.
        checks = (
            net["protocol_errors"] == 0,
            net["server_errors"] == 0,
            net["coalesced_writes"] == puts and net["duplicate_writes"] == 0,
        )
        # Write amplification is read over the servers' whole life (load
        # and warm-up included), like on the embedded workloads.
        net["life_device_write_bytes"] = after["device_write_bytes"]
        net["life_user_bytes"] = inp.put_bytes
        net["parent_cpu_s"] = cpu_s
        net["sim_s"] = sim_s  # the slowest shard's simulated seconds
        for kind in ("get", "put"):
            net[f"{kind}_lat_sorted_s"] = sorted(samples[kind])
        return Timed(
            ops=ops,
            wall_s=wall_s,
            cpu_s=cpu_s,
            lat_s=sorted(samples["lat"]),
            sim_lat_s=[],
            attempted=ops + len(checks),
            failed=failed + sum(1 for ok in checks if not ok),
            before=store_before,
            after=store_after,
            extra=net,
        )
