"""The read-only admin plane (``Op.ADMIN`` + ``aggregate_admin``).

Contracts under test:

* ``Op.ADMIN`` requests round-trip through the wire codec;
* every section answers on a loopback cluster with well-formed output
  (Prometheus text, health JSON, an exact ledger, percentile series);
* the flagship invariant — loopback and process serving modes answer
  **byte-identically** for every section on the same seed, because both
  aggregate the same picklable per-shard parts through one function;
* unknown sections are a clean miss (``found=False`` → ``None``), not
  an error.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.net.client import BlockingClusterClient, ClusterClient
from repro.net.mp import ProcessKVServer
from repro.net.protocol import Op, Request, decode_payload
from repro.net.server import ADMIN_SECTIONS, KVServer, ServerConfig, aggregate_admin
from repro.obs.ledger import IoLedger
from repro.obs.metrics import MetricsRegistry

SECTIONS = ("metrics", "health", "ledger", "windows")


def config(**overrides):
    base = dict(shards=2, uniform_keys=2000, seed=7, cache_bytes=1 << 20)
    base.update(overrides)
    return ServerConfig(**base)


async def _drive(server, n=200):
    client = await ClusterClient.open_loopback(server)
    for i in range(n):
        await client.put(f"user{i:016d}".encode(), b"v" * 64)
    for i in range(0, n, 2):
        await client.get(f"user{i:016d}".encode())
    await server.wait_idle()
    return client


class TestWireCodec:
    def test_admin_request_round_trips(self):
        req = Request(op=Op.ADMIN, request_id=9, name="ledger")
        back = decode_payload(req.encode())
        assert back.op == Op.ADMIN
        assert back.request_id == 9
        assert back.name == "ledger"

    def test_sections_constant_covers_the_plane(self):
        assert set(SECTIONS) == set(ADMIN_SECTIONS)


class TestAggregate:
    def test_unknown_section_is_none(self):
        assert aggregate_admin("nope", []) is None

    def test_empty_parts_still_answer(self):
        assert aggregate_admin("metrics", []) == ""
        health = json.loads(aggregate_admin("health", []))
        assert health["shards"] == []
        ledger = IoLedger.from_dict(json.loads(aggregate_admin("ledger", [])))
        assert ledger.total_write_bytes == 0
        windows = json.loads(aggregate_admin("windows", []))
        assert windows["series"] == {}

    def test_parent_registry_merges_into_metrics(self):
        reg = MetricsRegistry()
        reg.counter("supervisor_restarts_total").inc(3)
        text = aggregate_admin("metrics", [], parent_registry=reg)
        assert "supervisor_restarts_total 3" in text

    def test_parent_ledger_merges_into_ledger(self):
        parent = IoLedger()
        parent.write_bytes["ship"] = 128
        merged = IoLedger.from_dict(
            json.loads(aggregate_admin("ledger", [], parent_ledger=parent))
        )
        assert merged.write_bytes["ship"] == 128


class TestLoopbackSections:
    def test_all_sections_answer(self):
        async def main():
            server = KVServer(config())
            client = await _drive(server)
            metrics = await client.admin("metrics")
            assert "# TYPE" in metrics
            health = json.loads(await client.admin("health"))
            assert [row["shard"] for row in health["shards"]] == [0, 1]
            assert all(row["state"] == "active" for row in health["shards"])
            assert health["totals"]["puts"] == 200
            ledger = IoLedger.from_dict(json.loads(await client.admin("ledger")))
            assert ledger.total_write_bytes == sum(
                s.env.storage.stats.bytes_written for s in server.shards
            )
            windows = json.loads(await client.admin("windows"))
            assert set(windows["series"]) >= {"get", "write"}
            await client.aclose()
            await server.aclose()

        asyncio.run(main())

    def test_unknown_section_returns_none(self):
        async def main():
            server = KVServer(config())
            client = await ClusterClient.open_loopback(server)
            assert await client.admin("bogus") is None
            await client.aclose()
            await server.aclose()

        asyncio.run(main())

    def test_blocking_client_admin(self):
        server = KVServer(config())
        client = BlockingClusterClient(server)
        try:
            client.put(b"user0000000000000001", b"v")
            health = json.loads(client.admin("health"))
            assert health["totals"]["puts"] == 1
            assert client.admin("bogus") is None
        finally:
            client.close()


    def test_repro_top_demo_renders_every_section(self, capsys):
        from repro.tools.top import main

        assert main(["--demo", "--demo-ops", "200"]) == 0
        out = capsys.readouterr().out
        for section in ADMIN_SECTIONS:
            assert f"== {section} " in out


class TestServingModeParity:
    def test_process_mode_answers_byte_identically(self):
        async def scrape(server):
            client = await _drive(server)
            out = {s: await client.admin(s) for s in SECTIONS}
            out["metrics_text()"] = server.metrics_text()
            await client.aclose()
            await server.aclose()
            return out

        async def main():
            # ship_log/supervise off: the parent does no IO of its own,
            # so both modes aggregate exactly the same shard parts.
            cfg = dict(ship_log=False, supervise=False)
            loop_out = await scrape(KVServer(config(**cfg)))
            proc_out = await scrape(ProcessKVServer(config(**cfg)))
            for section in loop_out:
                assert loop_out[section] == proc_out[section], section
            assert loop_out["metrics_text()"] == loop_out["metrics"]

        asyncio.run(main())
