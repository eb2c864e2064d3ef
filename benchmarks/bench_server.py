"""Sharded serving-layer acceptance benchmark: shard-count sweep.

Runs the same seeded fill + readrandom workload through the
:mod:`repro.net` stack (loopback transport, fixed client concurrency)
against serving processes with 1, 2, and 4 range-partitioned PebblesDB
shards, and verifies the acceptance contract:

1. **read scaling** — aggregate simulated readrandom throughput at 4
   shards must be at least 1.5x the single-shard run at the same client
   concurrency.  Each shard owns its own simulated device and clock, so
   the aggregate rate is ``ops / max-over-shards(clock delta)`` — the
   slowest shard paces the cluster, exactly how a range-partitioned
   deployment behaves;
2. **correctness** — every read returns the value written, no client
   retries were needed on the clean loopback transport, and the server
   counted zero protocol errors;
3. **group commit** — concurrent writes must actually coalesce: the
   4-shard run's group commits must number strictly fewer than its
   writes;
4. **determinism** — repeating the 4-shard run yields byte-identical
   per-shard storage digests and identical per-shard simulated clocks;
5. **multi-core scaling (wall clock)** — process serving mode
   (:class:`repro.net.mp.ProcessKVServer`) with 4 shard workers must
   sustain at least 2.5x the *wall-clock* read throughput of 1 worker.
   Each worker gets its own driver process that pre-encodes its GET
   frames, waits on a start barrier, then blasts them straight at the
   worker's TCP port — the timed window holds only socket IO and a
   length-prefix frame walk, so the workers (not the GIL-bound parent)
   are the measured bottleneck.  On machines with fewer than 4 cores the
   numbers are still recorded but the floor is skipped, with the reason
   logged and stored in the report;
6. **availability** — killing a shard worker mid-workload (SIGKILL, no
   warning) must lose **zero** acknowledged writes: the supervisor
   restarts the worker and replays the parent's durable ship log while
   the client retries through the outage.  The report records the
   server-side time-to-recover and the client-observed unavailability
   window, both bounded by the contract.

Results land in ``BENCH_server.json`` at the repo root (simulated sweep
plus ``wall_clock`` and ``availability`` sections).  ``--smoke``
shrinks the workload for CI; ``--availability-only`` runs just the
kill-a-shard phase; any contract violation exits non-zero.

Run: ``PYTHONPATH=src python benchmarks/bench_server.py [--smoke]``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import random
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.net.client import ClusterClient
from repro.net.mp import ProcessKVServer
from repro.net.protocol import _HEADER, Op, Request, Status, decode_payload, encode_frame
from repro.net.server import KVServer, ServerConfig
from repro.workloads.distributions import KeyCodec, value_bytes

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"

SHARD_SWEEP = (1, 2, 4)
VALUE_SIZE = 256
CONCURRENCY = 16
SEED = 11
WALL_SPEEDUP_FLOOR = 2.5
#: Every Nth response is kept whole and fully decoded after the timed
#: window; the timed loop itself only peeks at the status byte.
_SAMPLE_EVERY = 256


async def _bounded(coros, concurrency: int):
    semaphore = asyncio.Semaphore(concurrency)

    async def run(coro):
        async with semaphore:
            return await coro

    return await asyncio.gather(*(run(c) for c in coros))


async def _run_cluster(shards: int, num_keys: int, reads: int) -> Dict[str, object]:
    server = KVServer(
        ServerConfig(
            engine="pebblesdb",
            shards=shards,
            uniform_keys=num_keys,
            seed=SEED,
            cache_bytes=1 << 20,
        )
    )
    client = await ClusterClient.open_loopback(server, pool_size=2)
    codec = KeyCodec(16)
    rng = random.Random(SEED)
    wall0 = time.perf_counter()

    fill_before = server.shard_sim_times()
    await _bounded(
        (
            client.put(codec.encode(i), value_bytes(i, VALUE_SIZE))
            for i in range(num_keys)
        ),
        CONCURRENCY,
    )
    await server.wait_idle()
    fill_delta = max(
        after - before
        for after, before in zip(server.shard_sim_times(), fill_before)
    )

    read_indices = [rng.randrange(num_keys) for _ in range(reads)]
    read_before = server.shard_sim_times()
    read_wall0 = time.perf_counter()
    values = await _bounded(
        (client.get(codec.encode(i)) for i in read_indices), CONCURRENCY
    )
    read_wall = time.perf_counter() - read_wall0
    read_delta = max(
        after - before
        for after, before in zip(server.shard_sim_times(), read_before)
    )
    wrong = sum(
        1
        for index, value in zip(read_indices, values)
        if value != value_bytes(index, VALUE_SIZE)
    )

    totals = server.total_ops()
    record = {
        "shards": shards,
        "fill_ops": num_keys,
        "fill_sim_seconds": round(fill_delta, 6),
        "fill_kops_per_sec": round(num_keys / fill_delta / 1000.0, 3)
        if fill_delta
        else 0.0,
        "read_ops": reads,
        "read_sim_seconds": round(read_delta, 6),
        "read_kops_per_sec": round(reads / read_delta / 1000.0, 3)
        if read_delta
        else 0.0,
        "read_wall_seconds": round(read_wall, 3),
        "read_wall_kops_per_sec": round(reads / read_wall / 1000.0, 3)
        if read_wall
        else 0.0,
        "wrong_values": wrong,
        "client_retries": client.stats.retries,
        "group_commits": totals["group_commits"],
        "coalesced_writes": totals["coalesced_writes"],
        "protocol_errors": server.protocol_errors,
        "state_digests": server.state_digests(),
        "shard_sim_times": [round(t, 9) for t in server.shard_sim_times()],
        "wall_seconds": round(time.perf_counter() - wall0, 3),
    }
    await client.aclose()
    await server.aclose()
    return record


# ----------------------------------------------------------------------
# Availability phase: kill a shard worker mid-workload, measure recovery
# ----------------------------------------------------------------------
async def _run_availability(ops: int) -> Dict[str, object]:
    """Kill one shard worker mid-workload and measure the recovery.

    A sequential put stream runs against a supervised 2-shard process
    cluster; a third of the way in, the victim shard's worker is killed
    outright (SIGKILL).  The supervisor detects the death, restarts the
    worker, and replays the parent's durable ship log; the client just
    retries through the outage.  Reported: the server-side time to
    recover (kill -> restart complete), the client-observed
    unavailability window (kill -> first acknowledged write on the
    victim shard), and ``ops_lost`` — acknowledged writes whose value is
    missing or wrong after recovery, which the contract pins at zero.
    """
    server = ProcessKVServer(
        ServerConfig(
            engine="pebblesdb",
            shards=2,
            uniform_keys=ops,
            seed=SEED,
            cache_bytes=1 << 20,
            heartbeat_interval=0.05,
            restart_backoff_base=0.01,
            restart_backoff_max=0.05,
        )
    )
    client = await ClusterClient.open_loopback(
        server, max_retries=60, backoff_base=0.01, backoff_max=0.25
    )
    codec = KeyCodec(16)
    victim = 0
    kill_at = ops // 3
    kill_time = recover_time = None
    deduped = 0
    for i in range(ops):
        if i == kill_at:
            server._workers[victim].process.kill()
            kill_time = time.monotonic()
        applied = await client.put(codec.encode(i), value_bytes(i, VALUE_SIZE))
        if not applied:
            deduped += 1  # retried write the replayed dedup table caught
        if (
            kill_time is not None
            and recover_time is None
            and server.router.shard_for(codec.encode(i)) == victim
        ):
            recover_time = time.monotonic()
    restart_after_kill = next(
        (when for shard, when in server.restart_events
         if shard == victim and kill_time is not None and when >= kill_time),
        None,
    )
    ops_lost = 0
    for i in range(ops):
        if await client.get(codec.encode(i)) != value_bytes(i, VALUE_SIZE):
            ops_lost += 1
    record = {
        "shards": 2,
        "ops": ops,
        "kill_after_ops": kill_at,
        "restarts": int(server.registry.value("supervisor.restarts", shard=victim)),
        "time_to_recover_seconds": round(restart_after_kill - kill_time, 3)
        if restart_after_kill is not None and kill_time is not None
        else None,
        "client_unavailability_seconds": round(recover_time - kill_time, 3)
        if recover_time is not None and kill_time is not None
        else None,
        "ops_lost": ops_lost,
        "deduped_retries": deduped,
        "client_retries": client.stats.retries,
    }
    await client.aclose()
    await server.aclose()
    return record


def _check_availability(record: Dict[str, object], failures: List[str]) -> None:
    if record["ops_lost"]:
        failures.append(
            f"{record['ops_lost']} acknowledged writes lost across the "
            "worker kill; the durability contract requires 0"
        )
    if record["restarts"] < 1:
        failures.append("worker kill never triggered a supervised restart")
    for key in ("time_to_recover_seconds", "client_unavailability_seconds"):
        value = record[key]
        if value is None:
            failures.append(f"availability run never measured {key}")
        elif value > 30.0:
            failures.append(
                f"{key} was {value}s; the contract requires bounded "
                "recovery (<= 30s)"
            )


# ----------------------------------------------------------------------
# Wall-clock phase: process serving mode, one driver process per worker
# ----------------------------------------------------------------------
def _recv_frames(sock, expected: int):
    """Walk ``expected`` length-prefixed frames off ``sock`` with minimal
    parsing: a struct unpack for the header and a status-byte peek past
    the request-id varint.  Returns (ok_count, sampled_payloads)."""
    buf = bytearray()
    start = 0
    done = ok = 0
    samples: List[bytes] = []
    while done < expected:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError(
                f"worker closed after {done}/{expected} responses"
            )
        buf += chunk
        while len(buf) - start >= _HEADER.size:
            length, _ = _HEADER.unpack_from(buf, start)
            end = start + _HEADER.size + length
            if len(buf) < end:
                break
            # Payload layout: [op][varint request_id][status]...
            pos = start + _HEADER.size + 1
            while buf[pos] & 0x80:
                pos += 1
            if buf[pos + 1] == Status.OK:
                ok += 1
            if done % _SAMPLE_EVERY == 0:
                samples.append(bytes(buf[start + _HEADER.size : end]))
            start = end
            done += 1
        if start > (1 << 20):
            del buf[:start]
            start = 0
    return ok, samples


def _wall_driver_main(port: int, shard: int, indices: List[int], conn) -> None:
    """Read driver, run in its own process: pre-encodes all GET frames,
    signals ready, waits for the start barrier, then blasts the frames at
    one shard worker's TCP port and counts responses.

    Everything expensive (frame encode, connection setup, HELLO) happens
    before the barrier, so the timed window holds only socket IO and the
    frame walk — the worker stays the measured bottleneck.
    """
    import socket

    codec = KeyCodec(16)
    blob = bytearray()
    for seq, index in enumerate(indices):
        request = Request(
            op=Op.GET, request_id=seq + 2, shard=shard, key=codec.encode(index)
        )
        blob += encode_frame(request.encode())
    blob = bytes(blob)

    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.sendall(encode_frame(Request(op=Op.HELLO, request_id=1).encode()))
        _recv_frames(sock, 1)
        conn.send("ready")
        assert conn.recv() == "go"
        t0 = time.perf_counter()
        writer = threading.Thread(target=sock.sendall, args=(blob,), daemon=True)
        writer.start()
        ok, samples = _recv_frames(sock, len(indices))
        wall = time.perf_counter() - t0
        writer.join()
        conn.send((wall, ok, samples))
    finally:
        sock.close()


async def _run_process_wall(workers: int, num_keys: int, reads: int) -> Dict[str, object]:
    """Fill a process-mode cluster (untimed, through a ClusterClient), then measure
    wall-clock read throughput with one direct driver process per worker."""
    server = ProcessKVServer(
        ServerConfig(
            engine="pebblesdb",
            shards=workers,
            uniform_keys=num_keys,
            seed=SEED,
            cache_bytes=1 << 20,
        )
    )
    codec = KeyCodec(16)
    client = await ClusterClient.open_loopback(server, pool_size=2)
    await _bounded(
        (
            client.put(codec.encode(i), value_bytes(i, VALUE_SIZE))
            for i in range(num_keys)
        ),
        CONCURRENCY,
    )
    await server.wait_idle()

    rng = random.Random(SEED + 1)
    per_shard: List[List[int]] = [[] for _ in range(workers)]
    for _ in range(reads):
        index = rng.randrange(num_keys)
        per_shard[server.router.shard_for(codec.encode(index))].append(index)

    ctx = multiprocessing.get_context("spawn")
    drivers = []
    for shard, indices in enumerate(per_shard):
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_wall_driver_main,
            args=(server.worker_ports[shard], shard, indices, child_conn),
            name=f"bench-driver{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        drivers.append((process, parent_conn, indices))
    for _, parent_conn, _ in drivers:
        assert parent_conn.recv() == "ready"
    t0 = time.perf_counter()
    for _, parent_conn, _ in drivers:
        parent_conn.send("go")
    results = [parent_conn.recv() for _, parent_conn, _ in drivers]
    wall = time.perf_counter() - t0
    for process, parent_conn, _ in drivers:
        process.join(30)
        parent_conn.close()

    ok = sum(r[1] for r in results)
    # Full decode + value check on the sampled responses (request_id maps
    # each sample back to the key index it asked for).
    sample_checked = sample_wrong = 0
    for (_, _, samples), (_, _, indices) in zip(results, drivers):
        for payload in samples:
            response = decode_payload(payload)
            index = indices[response.request_id - 2]
            sample_checked += 1
            if (
                response.status != Status.OK
                or response.value != value_bytes(index, VALUE_SIZE)
            ):
                sample_wrong += 1

    record = {
        "workers": workers,
        "reads": reads,
        "read_wall_seconds": round(wall, 3),
        "read_wall_kops_per_sec": round(reads / wall / 1000.0, 3) if wall else 0.0,
        "ok_responses": ok,
        "sample_checked": sample_checked,
        "sample_wrong": sample_wrong,
        "worker_protocol_errors": server.worker_protocol_errors(),
    }
    await client.aclose()
    await server.aclose()
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced workload for CI smoke runs"
    )
    parser.add_argument("--num-keys", type=int, default=None)
    parser.add_argument(
        "--availability-only",
        action="store_true",
        help="run only the kill-a-shard availability phase (merges its "
        "section into an existing BENCH_server.json when present)",
    )
    args = parser.parse_args(argv)
    num_keys = args.num_keys or (1200 if args.smoke else 4000)
    reads = num_keys
    avail_ops = 600 if args.smoke else 2000

    if args.availability_only:
        failures: List[str] = []
        availability = asyncio.run(_run_availability(avail_ops))
        _check_availability(availability, failures)
        print(
            f"availability: kill at op {availability['kill_after_ops']}, "
            f"recover {availability['time_to_recover_seconds']}s, "
            f"client outage {availability['client_unavailability_seconds']}s, "
            f"ops_lost={availability['ops_lost']}"
        )
        payload = {"benchmark": "sharded_serving_layer"}
        if _JSON_PATH.exists():
            try:
                payload = json.loads(_JSON_PATH.read_text())
            except json.JSONDecodeError:
                pass
        payload["availability"] = availability
        _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"results written to {_JSON_PATH}")
        if failures:
            for failure in failures:
                print(f"CONTRACT VIOLATION: {failure}", file=sys.stderr)
            return 1
        print("contract: PASS")
        return 0

    t0 = time.perf_counter()
    sweep: List[Dict[str, object]] = []
    for shards in SHARD_SWEEP:
        record = asyncio.run(_run_cluster(shards, num_keys, reads))
        sweep.append(record)
        print(
            f"shards={shards}: fill {record['fill_kops_per_sec']:>8.1f} KOps/s  "
            f"read {record['read_kops_per_sec']:>8.1f} KOps/s  "
            f"group-commits={record['group_commits']}  "
            f"wall={record['wall_seconds']}s"
        )

    repeat = asyncio.run(_run_cluster(4, num_keys, reads))
    four = next(r for r in sweep if r["shards"] == 4)
    one = next(r for r in sweep if r["shards"] == 1)

    read_speedup = (
        four["read_kops_per_sec"] / one["read_kops_per_sec"]
        if one["read_kops_per_sec"]
        else 0.0
    )
    failures: List[str] = []
    if read_speedup < 1.5:
        failures.append(
            f"read throughput at 4 shards is {read_speedup:.2f}x the 1-shard "
            "run; the contract requires >= 1.5x"
        )
    for record in sweep:
        if record["wrong_values"]:
            failures.append(
                f"{record['wrong_values']} wrong read values at "
                f"{record['shards']} shards"
            )
        if record["protocol_errors"]:
            failures.append(
                f"{record['protocol_errors']} protocol errors at "
                f"{record['shards']} shards"
            )
        if record["client_retries"]:
            failures.append(
                f"{record['client_retries']} client retries on a clean "
                f"loopback transport at {record['shards']} shards"
            )
    if four["group_commits"] >= num_keys:
        failures.append(
            f"group commit never coalesced: {four['group_commits']} commits "
            f"for {num_keys} writes"
        )
    if repeat["state_digests"] != four["state_digests"]:
        failures.append("4-shard repeat produced different storage digests")
    if repeat["shard_sim_times"] != four["shard_sim_times"]:
        failures.append("4-shard repeat produced different simulated clocks")

    # ---- wall-clock phase: process serving mode, 1 vs 4 workers ----
    wall_reads = 4800 if args.smoke else 16000
    cpu_count = os.cpu_count() or 1
    print(f"\nwall-clock phase (process mode, {wall_reads} reads, "
          f"{cpu_count} cores):")
    proc_records = []
    for workers in (1, 4):
        record = asyncio.run(_run_process_wall(workers, num_keys, wall_reads))
        proc_records.append(record)
        print(
            f"workers={workers}: read {record['read_wall_kops_per_sec']:>8.1f} "
            f"KOps/s wall  ({record['read_wall_seconds']}s, "
            f"{record['ok_responses']}/{record['reads']} OK)"
        )
    proc_one, proc_four = proc_records
    wall_speedup = (
        proc_four["read_wall_kops_per_sec"] / proc_one["read_wall_kops_per_sec"]
        if proc_one["read_wall_kops_per_sec"]
        else 0.0
    )
    contract_enforced = cpu_count >= 4
    skip_reason = None
    if not contract_enforced:
        skip_reason = (
            f"only {cpu_count} CPU core(s); the {WALL_SPEEDUP_FLOOR}x "
            "4-worker floor needs >= 4 cores to be meaningful"
        )
        print(f"wall-clock contract SKIPPED: {skip_reason}")
    elif wall_speedup < WALL_SPEEDUP_FLOOR:
        failures.append(
            f"wall-clock read throughput at 4 workers is {wall_speedup:.2f}x "
            f"the 1-worker run; the contract requires >= {WALL_SPEEDUP_FLOOR}x"
        )
    for record in proc_records:
        if record["ok_responses"] != record["reads"]:
            failures.append(
                f"{record['reads'] - record['ok_responses']} non-OK responses "
                f"at {record['workers']} workers (process mode)"
            )
        if record["sample_wrong"]:
            failures.append(
                f"{record['sample_wrong']} wrong sampled values at "
                f"{record['workers']} workers (process mode)"
            )
        if record["worker_protocol_errors"]:
            failures.append(
                f"{record['worker_protocol_errors']} worker protocol errors "
                f"at {record['workers']} workers (process mode)"
            )

    # ---- availability phase: kill a shard worker, supervised recovery ----
    availability = asyncio.run(_run_availability(avail_ops))
    _check_availability(availability, failures)
    print(
        f"\navailability: kill at op {availability['kill_after_ops']}, "
        f"recover {availability['time_to_recover_seconds']}s, "
        f"client outage {availability['client_unavailability_seconds']}s, "
        f"ops_lost={availability['ops_lost']}"
    )

    payload = {
        "benchmark": "sharded_serving_layer",
        "availability": availability,
        "engine": "pebblesdb",
        "num_keys": num_keys,
        "reads": reads,
        "value_size": VALUE_SIZE,
        "concurrency": CONCURRENCY,
        "seed": SEED,
        "sweep": sweep,
        "repeat_4shard": repeat,
        "read_speedup_4shard_vs_1": round(read_speedup, 3),
        "wall_clock": {
            "cpu_count": cpu_count,
            "wall_reads": wall_reads,
            "loopback": {
                str(record["shards"]): {
                    "read_wall_seconds": record["read_wall_seconds"],
                    "read_wall_kops_per_sec": record["read_wall_kops_per_sec"],
                }
                for record in sweep
            },
            "process": proc_records,
            "read_wall_speedup_4workers_vs_1": round(wall_speedup, 3),
            "contract": {
                "min_speedup": WALL_SPEEDUP_FLOOR,
                "enforced": contract_enforced,
                "skipped_reason": skip_reason,
            },
        },
        "contract": {
            "read_speedup_min": 1.5,
            "passed": not failures,
            "failures": failures,
        },
        "total_wall_seconds": round(time.perf_counter() - t0, 3),
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nread speedup 4 shards vs 1 (simulated): {read_speedup:.2f}x")
    print(f"read speedup 4 workers vs 1 (wall clock): {wall_speedup:.2f}x")
    print(f"results written to {_JSON_PATH}")
    if failures:
        for failure in failures:
            print(f"CONTRACT VIOLATION: {failure}", file=sys.stderr)
        return 1
    print("contract: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
