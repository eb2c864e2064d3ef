"""repro.net — the sharded serving layer.

Turns any engine from :mod:`repro.engines.registry` into a networked
key-value service.  Four layers, bottom to top:

* :mod:`repro.net.protocol` — length-prefixed, CRC-guarded binary frames
  carrying get/put/delete/write-batch/scan/snapshot/property requests;
* :mod:`repro.net.transport` — the connection object both ends are built
  on (an asyncio protocol over TCP, pumped over a deterministic in-memory
  loopback pair), byte endpoints, and deterministic connection-fault
  injection in the spirit of :mod:`repro.sim.faults`;
* :mod:`repro.net.router` — boundary-key range partitioning across
  shards (FLSM guards, one level up), splitting scans and batches;
* :mod:`repro.net.server` / :mod:`repro.net.client` — an asyncio server
  hosting N range-partitioned shards with per-shard group commit and
  graceful degraded-mode responses, and a pooling/pipelining client with
  retry/backoff and idempotent (deduplicated) write retries;
* :mod:`repro.net.mp` — the multiprocessing serving mode: one worker
  process per shard, dialled directly by clients that learn the workers'
  addresses from the parent's HELLO routes, turning the simulated
  shard scaling into wall-clock multi-core scaling.  The parent keeps a
  durable per-shard ship log of acknowledged commits, supervises worker
  death/hangs with auto-restart + replay, and supports graceful shard
  handoff for rolling restarts.
"""

from repro.net.client import BlockingClusterClient, ClusterClient, ClusterSnapshot
from repro.net.errors import (
    FrameError,
    NetError,
    RemoteError,
    RetriesExhaustedError,
    ServerUnavailableError,
    ShardDegradedError,
    TransientNetError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Request,
    Response,
    Status,
    decode_payload,
    encode_frame,
)
from repro.net.mp import ProcessKVServer, make_server
from repro.net.router import ShardRouter
from repro.net.server import KVServer, ServerConfig
from repro.net.transport import (
    ConnectionFaultPlan,
    FaultyEndpoint,
    loopback_pair,
)

__all__ = [
    "BlockingClusterClient",
    "ClusterClient",
    "ClusterSnapshot",
    "ConnectionFaultPlan",
    "FaultyEndpoint",
    "FrameDecoder",
    "FrameError",
    "KVServer",
    "MAX_FRAME_BYTES",
    "NetError",
    "ProcessKVServer",
    "RemoteError",
    "Request",
    "RetriesExhaustedError",
    "Response",
    "ServerConfig",
    "ServerUnavailableError",
    "ShardDegradedError",
    "ShardRouter",
    "Status",
    "TransientNetError",
    "decode_payload",
    "encode_frame",
    "loopback_pair",
    "make_server",
]
