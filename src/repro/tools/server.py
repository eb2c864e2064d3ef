"""``repro-server`` — serve sharded stores over TCP.

Starts one serving process hosting ``--shards`` range-partitioned engine
instances and speaks the :mod:`repro.net.protocol` wire format::

    python -m repro.tools.server --engine pebblesdb --shards 4 --port 7380

``--serving-mode process`` spawns one worker *process* per shard (spawn
start method), so shard work runs on separate cores instead of one
GIL-bound event loop.  The process listening on ``--port`` is then off
the data path: its HELLO reply tells each client which port every
shard's worker listens on (all bound to ``--host``), the client dials
the workers itself, and the parent keeps supervision, the durable ship
log and the ``Op.ADMIN`` plane::

    python -m repro.tools.server --shards 4 --serving-mode process

Clients connect with :meth:`repro.net.ClusterClient.open_tcp` (or the
``repro-netbench`` CLI) and learn the shard map — and, in process mode,
the routes — from the HELLO response.
Boundaries default to uniform quantiles over db_bench-style ``user...``
keys; pass explicit ``--boundary`` keys (repeatable) for other key
spaces.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.engines.registry import ENGINES
from repro.net.server import ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve range-sharded simulated stores over TCP.",
    )
    parser.add_argument("--engine", default="pebblesdb", choices=ENGINES)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="address every listener binds (process mode: the workers too, "
        "since clients dial them directly)",
    )
    parser.add_argument("--port", type=int, default=7380, help="0 picks a free port")
    parser.add_argument(
        "--boundary",
        action="append",
        default=None,
        metavar="KEY",
        help="explicit shard boundary key (repeat shards-1 times; "
        "default: uniform quantiles over --uniform-keys user... keys)",
    )
    parser.add_argument(
        "--uniform-keys",
        type=int,
        default=100_000,
        help="key-space size used to derive default boundaries",
    )
    parser.add_argument("--cache-mb", type=float, default=8.0, help="per-shard page cache")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-group-commit",
        action="store_true",
        help="commit every write individually (disable coalescing)",
    )
    parser.add_argument(
        "--async-commits",
        action="store_true",
        help="acknowledge writes without waiting for the WAL sync",
    )
    parser.add_argument(
        "--serving-mode",
        choices=("loopback", "process"),
        default="loopback",
        help="'loopback' hosts every shard on one asyncio loop "
        "(deterministic); 'process' spawns one worker process per shard "
        "(true multi-core)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=0,
        help="process mode: ship a compact snapshot every N commits so "
        "the parent can truncate the ship log (0 = full log; replay "
        "from a full log is byte-identical, from a snapshot logical)",
    )
    return parser


def config_from_args(args) -> ServerConfig:
    boundaries = None
    if args.boundary:
        boundaries = [b.encode("utf-8") for b in args.boundary]
    return ServerConfig(
        engine=args.engine,
        shards=args.shards,
        host=args.host,
        boundaries=boundaries,
        uniform_keys=args.uniform_keys,
        seed=args.seed,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        group_commit=not args.no_group_commit,
        sync_commits=not args.async_commits,
        snapshot_interval=args.snapshot_interval,
    )


async def _serve(args) -> int:
    from repro.net.mp import make_server

    server = make_server(config_from_args(args), serving_mode=args.serving_mode)
    tcp = await server.serve_tcp(port=args.port)
    host, port = server.tcp_address
    bounds = ", ".join(b.decode("utf-8", "replace") for b in server.router.boundaries)
    print(
        f"repro-server: engine={args.engine} shards={args.shards} "
        f"mode={args.serving_mode} listening on {host}:{port}"
    )
    if bounds:
        print(f"shard boundaries: {bounds}")
    sys.stdout.flush()
    try:
        async with tcp:
            await tcp.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("repro-server: shutting down")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
