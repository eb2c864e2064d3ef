#!/usr/bin/env python
"""Process-mode server smoke: 2 shard workers, spawn start method.

200 puts + 200 gets + a scan through a ``ClusterClient`` that dials the
workers directly; checks the op totals, zero protocol errors and retries,
that the client opened exactly ``pool_size x (1 + shards)`` connections
(its pool to the parent plus one pool per worker — nothing relays), and
that shutdown leaves no worker process behind.

Usage: ``PYTHONPATH=src python scripts/mp_smoke.py``
"""

import asyncio
import multiprocessing
import os

from repro.net import ClusterClient, ProcessKVServer, ServerConfig

SHARDS = 2
POOL_SIZE = 2
KEYS = 2000
OPS = 200


def key(i: int) -> bytes:
    return f"user{i * (KEYS // OPS):012d}".encode()  # spread over both shards


async def main():
    assert multiprocessing.get_start_method(allow_none=False) in (
        "spawn", "fork", "forkserver",
    )  # ProcessKVServer always uses its own spawn context
    server = ProcessKVServer(ServerConfig(shards=SHARDS, uniform_keys=KEYS, seed=11))
    pids = [w.process.pid for w in server._workers]
    client = await ClusterClient.open_loopback(server, pool_size=POOL_SIZE)
    for i in range(OPS):
        assert await client.put(key(i), b"v%d" % i)
    for i in range(OPS):
        assert await client.get(key(i)) == b"v%d" % i, key(i)
    assert len(await client.scan(limit=50)) == 50
    totals = server.total_ops()
    assert totals["gets"] == OPS and totals["puts"] == OPS, totals
    assert server.worker_protocol_errors() == 0
    assert server.protocol_errors == 0
    assert client.stats.retries == 0, client.stats
    assert client.stats.connections_opened == POOL_SIZE * (1 + SHARDS), client.stats
    await client.aclose()
    await server.aclose()
    return pids


if __name__ == "__main__":  # spawn-safe: children re-import this file
    pids = asyncio.run(main())
    # Clean shutdown: no orphan worker processes.
    assert not multiprocessing.active_children(), "orphan workers left"
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker {pid} still running")
    print(f"mp-server-smoke OK: {OPS} writes + {OPS} reads, direct connections, clean shutdown")
