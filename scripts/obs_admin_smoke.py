#!/usr/bin/env python
"""Admin-plane smoke: scrape a 2-shard process-mode cluster, kill a worker.

Checks that ``Op.ADMIN`` answers with Prometheus text and an exact
ledger, that ``metrics_text()`` is the ``metrics`` section, and that a
SIGKILLed worker is restarted with a supervisor flight-recorder dump in
``DUMP_DIR`` (default ``/tmp/flight-dumps``; the CI job renders it with
``repro-trace --report dump`` afterwards).

Usage: ``PYTHONPATH=src python scripts/obs_admin_smoke.py [DUMP_DIR]``
"""

import asyncio
import json
import os
import signal
import sys

from repro.net import ClusterClient, ProcessKVServer, ServerConfig
from repro.obs.ledger import IoLedger


async def main(dump_dir: str) -> None:
    server = ProcessKVServer(ServerConfig(
        shards=2, uniform_keys=2000, seed=11, trace_dump_dir=dump_dir,
    ))
    client = await ClusterClient.open_loopback(
        server, max_retries=8, backoff_base=0.01, backoff_max=0.2
    )
    for i in range(200):
        assert await client.put(f"user{i:012d}".encode(), b"v%d" % i)
    await server.wait_idle()
    metrics = await client.admin("metrics")
    assert metrics and "# TYPE" in metrics, "no Prometheus text over Op.ADMIN"
    text = server.metrics_text()  # the same section, not one exposition per worker
    assert text.count("# TYPE repro_op_puts counter") == 1, "duplicate series"
    assert "repro_op_puts 200\n" in text, text
    ledger = IoLedger.from_dict(json.loads(await client.admin("ledger")))
    assert ledger.total_write_bytes > 0, ledger.to_text()
    assert ledger.write_bytes.get("wal", 0) > 0, ledger.to_text()
    # Kill one worker outright; the supervisor must restart the
    # shard and dump its flight-recorder ring for the post-mortem.
    os.kill(server._workers[0].process.pid, signal.SIGKILL)
    for _ in range(300):
        await asyncio.sleep(0.1)
        if server.recorder.dumps >= 1 and server.worker_alive(0):
            break
    assert server.recorder.dumps >= 1, "supervisor never dumped after kill"
    assert server.recorder.last_reason.startswith("worker-restart"), (
        server.recorder.last_reason
    )
    # Serving resumed and the admin plane still answers.
    assert await client.get(f"user{0:012d}".encode()) == b"v0"
    health = json.loads(await client.admin("health"))
    assert len(health["shards"]) == 2, health
    await client.aclose()
    await server.aclose()
    dumps = [f for f in os.listdir(dump_dir) if f.startswith("flight-supervisor-")]
    assert dumps, os.listdir(dump_dir)
    print("obs-admin smoke OK; dump:", dumps[0])


if __name__ == "__main__":  # spawn-safe: children re-import this file
    asyncio.run(main(sys.argv[1] if len(sys.argv) > 1 else "/tmp/flight-dumps"))
