"""``repro-top`` — live cluster introspection over the admin plane.

Connects to a serving cluster (``repro-server``, loopback or process
mode — the read-only ``Op.ADMIN`` wire op is answered identically by
both) and renders the aggregated observability sections::

    repro-top --connect 127.0.0.1:7380               # one full snapshot
    repro-top --connect 127.0.0.1:7380 --section ledger
    repro-top --connect 127.0.0.1:7380 --watch 2     # refresh every 2s
    repro-top --demo                                 # self-contained demo

Sections:

* ``health``  — per-shard serving state + summed op counters (JSON from
  the wire, rendered as a table).
* ``ledger``  — the I/O attribution ledger: device bytes by cause (WAL,
  flush, guard/level compaction, vlog, ship log, manifest, ...), whose
  rows sum exactly to the device totals.
* ``windows`` — windowed latency percentile series per op.
* ``metrics`` — the merged Prometheus text exposition, verbatim.
* ``all``     — everything above (default).

``--demo`` starts an in-process 2-shard cluster, runs a short seeded
workload, and renders the snapshot — useful for seeing the output format
without a running server.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import List, Optional

from repro.net.client import ClusterClient
from repro.obs.render import render_health, render_ledger, render_windows

_SECTIONS = ("health", "ledger", "windows", "metrics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Render a serving cluster's admin-plane sections.",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="cluster address (repro-server); omit with --demo",
    )
    parser.add_argument(
        "--section",
        choices=_SECTIONS + ("all",),
        default="all",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="refresh every N seconds until interrupted (0 = one snapshot)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run a seeded in-process demo cluster instead of connecting",
    )
    parser.add_argument(
        "--demo-ops", type=int, default=2000, help="demo workload size"
    )
    return parser


_RENDERERS = {
    "health": render_health,
    "ledger": render_ledger,
    "windows": render_windows,
    "metrics": lambda text: text.rstrip("\n"),
}


async def render_snapshot(client: ClusterClient, sections: List[str]) -> int:
    status = 0
    for section in sections:
        if len(sections) > 1:
            print(f"== {section} " + "=" * max(0, 60 - len(section)))
        text = await client.admin(section)
        if text is None:
            print(f"repro-top: server does not know section {section!r}",
                  file=sys.stderr)
            status = 1
            continue
        try:
            print(_RENDERERS[section](text))
        except (KeyError, ValueError) as exc:
            print(f"repro-top: cannot render {section}: {exc}", file=sys.stderr)
            status = 1
        if len(sections) > 1:
            print()
    return status


async def _run_connected(args, sections: List[str]) -> int:
    host, _, port = args.connect.rpartition(":")
    try:
        client = await ClusterClient.open_tcp(host or "127.0.0.1", int(port))
    except Exception as exc:  # connection refused, bad port, ...
        print(f"repro-top: cannot connect to {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    try:
        while True:
            status = await render_snapshot(client, sections)
            if args.watch <= 0:
                return status
            await asyncio.sleep(args.watch)
            print("\n" + "#" * 72 + f"\n# refreshed at {time.strftime('%H:%M:%S')}\n")
    finally:
        await client.aclose()


async def _run_demo(args, sections: List[str]) -> int:
    from repro.net.server import KVServer, ServerConfig

    server = KVServer(ServerConfig(shards=2, uniform_keys=10_000, seed=42))
    client = await ClusterClient.open_loopback(server)
    try:
        for i in range(args.demo_ops):
            await client.put(f"user{i % 1000:016d}".encode(), b"v" * 100)
            if i % 7 == 0:
                await client.get(f"user{(i * 13) % 1000:016d}".encode())
        await server.wait_idle()
        return await render_snapshot(client, sections)
    finally:
        await client.aclose()
        await server.aclose()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    sections = list(_SECTIONS) if args.section == "all" else [args.section]
    if args.demo:
        return asyncio.run(_run_demo(args, sections))
    if not args.connect:
        print("repro-top: pass --connect HOST:PORT or --demo", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_run_connected(args, sections))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
