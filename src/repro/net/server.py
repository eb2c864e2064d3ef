"""Asyncio shard server: N range-partitioned engines behind one endpoint.

One :class:`KVServer` process hosts ``shards`` independent engine
instances (any name from :mod:`repro.engines.registry`), each on its own
simulated device with its own clock — the serving-layer model of one
machine (or container) per shard.  Requests carry a shard index chosen
by the client's :class:`~repro.net.router.ShardRouter`; the server's
HELLO response publishes the shard count and boundary keys so clients
configure themselves.

Two properties the storage stack below fought hard for are preserved at
this layer:

* **Group commit** — concurrent writes to one shard coalesce into a
  single engine ``write_batch`` with one WAL sync (the classic group
  commit).  The first write queued schedules one ``loop.call_soon``
  drain, which commits everything that joined the queue in that loop
  iteration; under the deterministic loopback transport the coalescing
  pattern is identical on every same-seed run.
* **Graceful degradation** — when a shard's background-error state
  machine trips (PR 2), writes answer ``DEGRADED`` with the error text
  while reads, scans, snapshots, and properties keep serving from the
  shard's last consistent state.

Write retries are made idempotent by deduplication: every write carries
the connection's ``client_id`` (from HELLO) and a client-chosen
``request_id``; a shard remembers recently applied ids per client and
answers a retried duplicate with ``applied=False`` instead of applying
it twice.

A connection is **one protocol object** (:class:`ClientLink`): asyncio
hands it each TCP chunk (a pump task does, for a loopback endpoint), and
it answers every request that never awaits right where it decoded it and
parks a write on the shard's queue with a callback the drain answers
through — no task per request, and none per TCP connection.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import repro
from repro.engines.registry import create_store
from repro.errors import BackgroundError, InvalidArgumentError, ReproError
from repro.net.errors import FrameError
from repro.obs.admin import ADMIN_SECTIONS, aggregate_admin  # noqa: F401  (re-exported)
from repro.net.protocol import (
    OP_NAMES,
    WRITE_OPS,
    Op,
    Request,
    Response,
    Route,
    Status,
    encode_frame,
)
from repro.net.router import ShardRouter
from repro.net.transport import FrameConnection, LoopbackEndpoint, loopback_pair
from repro.util.keys import KIND_DELETE, KIND_PUT


@dataclass
class ServerConfig:
    """Everything tunable about one serving process."""

    engine: str = "pebblesdb"
    shards: int = 1
    #: Address the listeners bind: ``serve_tcp``'s default and, in the
    #: process serving mode, every worker's.  Clients dial the workers,
    #: so they must be reachable wherever the parent is; a wildcard makes
    #: the HELLO routes leave the host for the client to fill in.
    host: str = "127.0.0.1"
    #: Router boundaries (``shards - 1`` keys); None derives uniform
    #: boundaries for ``uniform_keys`` db_bench-style ``user...`` keys.
    boundaries: Optional[List[bytes]] = None
    #: Key-space size used to derive default boundaries.
    uniform_keys: int = 100_000
    options: Optional[object] = None  # StoreOptions, engine presets if None
    seed: int = 0
    #: Per-shard DRAM page cache.
    cache_bytes: int = 8 * 1024 * 1024
    #: Coalesce concurrent writes into one engine batch + sync.
    group_commit: bool = True
    #: Sync the WAL once per group commit (durable acknowledgements).
    sync_commits: bool = True
    #: Admission control: maximum write requests a shard may have queued
    #: for group commit before new writes are shed with
    #: ``Status.OVERLOADED`` (0 = unlimited).  Shedding keeps the commit
    #: queue bounded instead of letting overload turn into unbounded
    #: in-process queueing.
    max_write_debt: int = 0
    #: Minimum backoff hint (seconds) carried by OVERLOADED responses;
    #: scaled up with how far past the cap the queue is.
    overload_retry_after: float = 0.005
    # -- process serving mode: durability + supervision (see net/mp.py) --
    #: Workers ship every acknowledged group commit to the parent, which
    #: keeps a durable per-shard log so acknowledged writes survive a
    #: worker crash (restart replays the log into the fresh worker).
    ship_log: bool = True
    #: Ship a compact snapshot every N commits so the parent can truncate
    #: the log (0 = never; replay then reproduces byte-identical state).
    snapshot_interval: int = 0
    #: Run the supervisor loop: heartbeat worker processes, auto-restart
    #: dead/hung ones with replay, trip the restart-storm breaker (its
    #: timing is the ``ProcessKVServer`` class constants).
    supervise: bool = True
    #: Directory the parent supervisor's flight recorder dumps into on a
    #: supervised restart or breaker trip (None = keep in memory only).
    #: Engine-level dumps are configured separately via
    #: ``StoreOptions.trace_dump_dir``.
    trace_dump_dir: Optional[str] = None

    def make_router(self) -> ShardRouter:
        if self.boundaries is not None:
            return ShardRouter(self.boundaries)
        if self.shards == 1:
            return ShardRouter.single()
        from repro.workloads.distributions import KeyCodec

        codec = KeyCodec(16)
        sample = (codec.encode(i) for i in range(self.uniform_keys))
        return ShardRouter.from_samples(sample, self.shards)


@dataclass
class ShardStats:
    """Serving counters for one shard."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    batches: int = 0
    scans: int = 0
    snapshots: int = 0
    properties: int = 0
    metrics: int = 0
    #: Group commits executed and writes coalesced into them.
    group_commits: int = 0
    coalesced_writes: int = 0
    #: Retried writes recognised and skipped.
    duplicate_writes: int = 0
    #: Writes rejected because the shard is degraded.
    degraded_rejects: int = 0
    #: Writes shed by admission control (OVERLOADED responses).
    overload_rejects: int = 0
    errors: int = 0


#: Recently applied write ids a shard remembers per client for dedup.
DEDUP_WINDOW = 4096


class _DedupTable:
    """Recently applied (client, request) ids, bounded per client."""

    def __init__(self) -> None:
        self._applied: Dict[int, Tuple[int, Set[int]]] = {}

    def seen(self, client_id: int, request_id: int) -> bool:
        if client_id == 0:
            return False  # anonymous clients opt out of dedup
        max_id, ids = self._applied.get(client_id, (-1, set()))
        if request_id in ids:
            return True
        # Ids that fell out of the window are conservatively treated as
        # applied: they can only be very old retries.
        return request_id <= max_id - DEDUP_WINDOW

    def record(self, client_id: int, request_id: int) -> None:
        if client_id == 0:
            return
        max_id, ids = self._applied.setdefault(client_id, (-1, set()))
        ids.add(request_id)
        new_max = max(max_id, request_id)
        if len(ids) > 2 * DEDUP_WINDOW:
            floor = new_max - DEDUP_WINDOW
            ids = {i for i in ids if i > floor}
        self._applied[client_id] = (new_max, ids)

    def export(self) -> List[Tuple[int, int, List[int]]]:
        """Deterministic dump: (client_id, max_id, sorted ids) per client."""
        return [
            (client_id, max_id, sorted(ids))
            for client_id, (max_id, ids) in sorted(self._applied.items())
        ]

    def restore(self, entries: List[Tuple[int, int, List[int]]]) -> None:
        self._applied = {
            client_id: (max_id, set(ids)) for client_id, max_id, ids in entries
        }


#: How a parked write is answered: True/False = applied/duplicate, or
#: the exception its group commit raised.
WriteAnswer = Callable[[Union[bool, Exception]], None]


class Shard:
    """One engine instance plus its serving state."""

    def __init__(self, index: int, config: ServerConfig) -> None:
        self.index = index
        self.env = repro.Environment(cache_bytes=config.cache_bytes)
        self.db = create_store(
            config.engine,
            self.env.storage,
            options=config.options,
            prefix=f"shard{index}/",
            seed=config.seed + index,
        )
        self.config = config
        self.stats = ShardStats()
        #: Engine tracer (component ``shardN``) once tracing is enabled;
        #: server-side dispatch spans share it with the engine's spans.
        self.tracer = None
        #: Called with ``(combined_ops, fresh_ids)`` after every group
        #: commit the engine accepted, *before* the writes are
        #: acknowledged — the log-shipping hook of the process serving
        #: mode (see :mod:`repro.net.mp`).
        self.on_commit: Optional[Callable[[list, List[Tuple[int, int]]], None]] = None
        self._snapshots: Dict[int, object] = {}
        self._next_snapshot_token = 1
        self._dedup = _DedupTable()
        # Group-commit queue: (ops, client_id, request_id, answer, trace_ctx).
        self._write_queue: List[Tuple[list, int, int, WriteAnswer, object]] = []

    @property
    def write_debt(self) -> int:
        """Write requests queued for group commit (admission input)."""
        return len(self._write_queue)

    # ------------------------------------------------------------------
    # Write path (group commit)
    # ------------------------------------------------------------------
    def queue_write(
        self,
        ops: list,
        client_id: int,
        request_id: int,
        answer: "WriteAnswer",
        trace_ctx=None,
    ) -> None:
        """Park a write for the next group commit.

        ``answer`` is called exactly once, after the commit was applied
        *and shipped*: with True (applied), False (a retried duplicate,
        skipped) or the exception the commit raised (every write of a
        failed batch gets it).  The first write of a batch schedules one
        ``call_soon`` drain, so every connection whose bytes are readable
        in this loop iteration joins the batch before it is cut — that is
        what makes commits *group* commits; with ``group_commit`` off
        the queue is cut at one.  ``trace_ctx`` is the server span of the
        request; the engine-side write span of a group commit adopts the
        first queued context.
        """
        self._write_queue.append((ops, client_id, request_id, answer, trace_ctx))
        if not self.config.group_commit:
            self._drain()
        elif len(self._write_queue) == 1:  # else a drain is already scheduled
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain(self) -> None:
        """Commit everything queued, then answer it."""
        batch, self._write_queue = self._write_queue, []
        try:
            outcomes: list = self._apply_writes(batch)
        except Exception as exc:
            # Raised before any dedup id was recorded: the whole batch
            # fails and stays retryable.
            outcomes = [exc] * len(batch)
        for (_, _, _, answer, _), outcome in zip(batch, outcomes):
            answer(outcome)

    def _apply_writes(self, batch: list) -> List[bool]:
        """One group commit: dedup, combine, write, record.

        Raises on engine failure *before* any dedup id is recorded, so a
        failed commit stays retryable.
        """
        combined: list = []
        applied_flags: List[bool] = []
        fresh: List[Tuple[int, int]] = []
        batch_ctx = None
        for ops, client_id, request_id, _, ctx in batch:
            if self._dedup.seen(client_id, request_id):
                applied_flags.append(False)
                self.stats.duplicate_writes += 1
            else:
                combined.extend(ops)
                fresh.append((client_id, request_id))
                applied_flags.append(True)
                if batch_ctx is None:
                    batch_ctx = ctx
        if combined:
            # The engine write span of a coalesced commit joins the first
            # contributing request's trace (the others are linked by the
            # shared group_commits counter, not by span parentage).
            if self.tracer is not None and batch_ctx is not None:
                with self.tracer.adopt(batch_ctx):
                    self.db.write_batch(combined, sync=self.config.sync_commits)
            else:
                self.db.write_batch(combined, sync=self.config.sync_commits)
            self.stats.group_commits += 1
            self.stats.coalesced_writes += len(fresh)
        for client_id, request_id in fresh:
            self._dedup.record(client_id, request_id)
        if fresh and self.on_commit is not None:
            # Ship the commit before any write of it is answered: once
            # the record is externalized, a crash between here and the
            # client's response cannot lose the write.
            self.on_commit(combined, fresh)
        return applied_flags

    # ------------------------------------------------------------------
    # Replay (process serving mode: restore a restarted worker)
    # ------------------------------------------------------------------
    def apply_shipped_commit(
        self, ops: list, ids: List[Tuple[int, int]]
    ) -> None:
        """Re-apply one shipped group commit from the parent's log.

        Issues the exact ``write_batch`` call the original commit made
        (same combined ops, same sync flag) and re-records its dedup
        ids, so a full-log replay reproduces byte-identical engine state
        and retried writes stay exactly-once across the restart.  The
        :attr:`on_commit` hook is deliberately not invoked — the parent
        already holds these records.
        """
        if ops:
            self.db.write_batch(list(ops), sync=self.config.sync_commits)
        for client_id, request_id in ids:
            self._dedup.record(client_id, request_id)

    def restore_snapshot(
        self,
        pairs: List[Tuple[bytes, bytes]],
        dedup_entries: List[Tuple[int, int, List[int]]],
    ) -> None:
        """Load a shipped compact snapshot into a fresh shard (logical
        restore: the key-value state and dedup table are exact, the
        physical sstable layout is not)."""
        if pairs:
            self.db.write_batch(
                [(KIND_PUT, key, value) for key, value in pairs],
                sync=self.config.sync_commits,
            )
        self._dedup.restore(dedup_entries)

    def export_snapshot(self) -> Tuple[list, List[Tuple[int, int, List[int]]]]:
        """The shard's full logical state for a compact ship snapshot."""
        return list(self.db.scan()), self._dedup.export()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def create_snapshot(self) -> int:
        get_snapshot = getattr(self.db, "get_snapshot", None)
        if get_snapshot is None:
            raise NotImplementedError(
                f"engine {type(self.db).__name__} has no snapshots"
            )
        token = self._next_snapshot_token
        self._next_snapshot_token += 1
        self._snapshots[token] = get_snapshot()
        self.stats.snapshots += 1
        return token

    def release_snapshot(self, token: int) -> None:
        snapshot = self._snapshots.pop(token, None)
        if snapshot is not None:
            self.db.release_snapshot(snapshot)

    def snapshot_for(self, token: Optional[int]):
        if token is None:
            return None
        snapshot = self._snapshots.get(token)
        if snapshot is None:
            raise InvalidArgumentError(f"unknown snapshot token {token}")
        return snapshot

    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Hash of every on-storage byte (determinism assertions)."""
        digest = hashlib.sha256()
        for name in self.env.storage.list_files(""):
            data = self.env.storage._files[name].data  # test support: raw view
            digest.update(name.encode())
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(bytes(data))
        return digest.hexdigest()

    def close(self) -> None:
        for token in list(self._snapshots):
            self.release_snapshot(token)
        try:
            self.db.close()
        except ReproError:  # pragma: no cover - close is best-effort
            pass


def text_response(request_id: int, text: Optional[str]) -> Response:
    """A textual answer (property, metrics, admin section); None = absent."""
    return Response(
        request_id=request_id,
        found=text is not None,
        value=(text or "").encode("utf-8"),
    )


def server_error(request_id: int, exc: Exception) -> Response:
    """The answer to an exception nothing expected: the op failed, the
    connection lives."""
    return Response(
        request_id=request_id,
        status=Status.SERVER_ERROR,
        message=f"{type(exc).__name__}: {exc}",
    )


class ClientLink(FrameConnection):
    """One client connection as the server sees it.  After EOF or a
    damaged frame it takes no request, and closes once every parked one
    is answered: a peer that half-closes still gets them all."""

    def __init__(self, server: "FrameServer") -> None:
        super().__init__()
        self.server = server
        self.client_id = 0
        #: Requests taken off this connection and not yet answered (writes
        #: queued for group commit); EOF waits for them before closing.
        self.parked = 0
        self._eof = False
        server._links.add(self)

    def message_received(self, request: Union[Request, Response]) -> None:
        if self._eof:
            return
        if not isinstance(request, Request):
            raise FrameError("client sent a response payload")
        try:
            if request.op == Op.HELLO:
                self.send(self.server._hello(self, request))
            else:
                self.server._serve(self, request)
        except Exception as exc:  # one op never kills the connection
            self.send(server_error(request.request_id, exc))

    def frame_error(self, exc: FrameError) -> None:
        # The stream cannot be resynced after a bad frame; take nothing
        # more and let the client reconnect and retry.
        if not self._eof:
            self.server.protocol_errors += 1
            self.eof_received()

    def eof_received(self) -> bool:
        self._eof = True
        if not self.parked:
            self.close()
        return True  # keep a half-closed socket open for the parked answers

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()

    def close(self) -> None:
        self._eof = True
        self.server._links.discard(self)
        if self.endpoint is not None:
            self.endpoint.close()

    def send(self, response: Response) -> None:
        try:
            self.endpoint.write(encode_frame(response.encode()))
        except ReproError:
            pass  # connection already gone; the client will retry

    def unpark(self) -> None:
        self.parked -= 1
        if self._eof and not self.parked:
            self.close()


class FrameServer:
    """What both serving frontends share: the router derived from the
    config, the loopback and TCP listeners, and their connections.

    A subclass answers requests in :meth:`_serve` (synchronously — a
    request that cannot be answered yet is *parked* on its connection
    and answered later through a callback) and may publish
    :meth:`_routes` in its HELLO reply.
    """

    #: Whether an anonymous HELLO (``client_id == 0``) is given a fresh
    #: id.  Exactly one process of a cluster may mint — two counters
    #: would hand two clients the same id, and the dedup table would
    #: drop the second one's writes as retries of the first's.
    mints_client_ids = True

    def __init__(self, config: Optional["ServerConfig"], overrides: dict) -> None:
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise InvalidArgumentError("pass either a config or overrides, not both")
        self.config = config
        self.router = config.make_router()
        if self.router.num_shards != config.shards:
            raise InvalidArgumentError(
                f"{config.shards} shards need {config.shards - 1} boundaries, "
                f"got {self.router.num_shards - 1}"
            )
        #: Frames that failed CRC/format checks (the CI smoke asserts 0).
        self.protocol_errors = 0
        self._next_client_id = 1
        #: Open connections, so a shutdown can close them.
        self._links: Set[ClientLink] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def connect_loopback(self) -> LoopbackEndpoint:
        """A new client endpoint served in-process (deterministic path)."""
        client_side, server_side = loopback_pair()
        ClientLink(self).attach(server_side)
        return client_side

    async def serve_tcp(self, host: Optional[str] = None, port: int = 0):
        """Start the TCP listener (on ``config.host`` unless told
        otherwise); returns the asyncio server object."""
        host = host if host is not None else self.config.host
        self._tcp_server = await asyncio.get_running_loop().create_server(
            lambda: ClientLink(self), host, port
        )
        return self._tcp_server

    @property
    def tcp_address(self) -> Tuple[str, int]:
        assert self._tcp_server is not None, "serve_tcp was not called"
        sock = self._tcp_server.sockets[0]
        address = sock.getsockname()
        return address[0], address[1]

    async def _close_connections(self) -> None:
        """Stop listening and drop every connection (parked answers are
        lost; their clients retry)."""
        if self._tcp_server is not None:
            self._tcp_server.close()
        links = list(self._links)
        for link in links:
            link.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        pumps = [link.pump for link in links if link.pump is not None]
        await asyncio.gather(*pumps, return_exceptions=True)

    def _hello(self, link: ClientLink, request: Request) -> Response:
        client_id = request.client_id
        if client_id == 0 and self.mints_client_ids:
            client_id = self._next_client_id
            self._next_client_id += 1
        link.client_id = client_id
        return Response(
            request_id=request.request_id,
            client_id=client_id,
            shard_count=self.router.num_shards,
            boundaries=list(self.router.boundaries),
            routes=self._routes(),
        )

    def _routes(self) -> List[Route]:
        """No routes: every shard is served on the connection that asked."""
        return []

    def _serve(self, link: ClientLink, request: Request) -> None:
        raise NotImplementedError

    def metrics_text(self) -> str:
        """Cluster-wide exposition: the ``metrics`` admin section."""
        return self.admin_text("metrics")

    def sim_now(self) -> float:
        """Cluster simulated time: the slowest shard's clock."""
        return max(self.shard_sim_times())


class KVServer(FrameServer):
    """Hosts the shards and speaks the wire protocol.

    ``shard_ids`` restricts the server to a subset of the cluster's
    shards while keeping their *global* identity — shard ``i`` keeps its
    ``shardN/`` storage prefix and ``seed + i`` engine seed, so a
    process-mode worker hosting one shard produces byte-identical state
    to the same shard inside a full loopback server.  The HELLO response
    still publishes the full cluster map (router boundaries are a
    cluster property); requests for shards this server does not host
    answer ``BAD_SHARD``.  ``mints_client_ids=False`` is for a server
    started under a parent that does the minting (a process-mode worker):
    an anonymous client then stays id 0 — opted out of dedup — instead
    of being handed an id the parent also gave to someone else.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        shard_ids: Optional[List[int]] = None,
        mints_client_ids: bool = True,
        **overrides,
    ) -> None:
        super().__init__(config, overrides)
        config = self.config
        if shard_ids is None:
            shard_ids = list(range(config.shards))
        elif any(not 0 <= i < config.shards for i in shard_ids):
            raise InvalidArgumentError(
                f"shard_ids {shard_ids} out of range for {config.shards} shards"
            )
        self.mints_client_ids = mints_client_ids
        self.shards = [Shard(i, config) for i in shard_ids]
        self._shard_map = {shard.index: shard for shard in self.shards}

    # ------------------------------------------------------------------
    # Serving one request
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_trace(trace: str):
        """Wire-carried ``trace_id/span_id`` → SpanContext tuple (or None)."""
        if not trace:
            return None
        trace_id, _, span_id = trace.partition("/")
        return (trace_id, span_id) if span_id else None

    def _serve(self, link: ClientLink, request: Request) -> None:
        """Answer ``request`` now, or park it if it is an admitted write."""
        rid = request.request_id
        if request.op == Op.ADMIN:
            # Admin is server-wide, never shard-routed: aggregate over
            # every hosted shard regardless of the request's shard field.
            link.send(text_response(rid, self.admin_text(request.name)))
            return
        shard = self._shard_map.get(request.shard)
        if shard is None:
            link.send(
                Response(
                    request_id=rid,
                    status=Status.BAD_SHARD,
                    message=(
                        f"no shard {request.shard} "
                        f"(hosting {sorted(self._shard_map)})"
                    ),
                )
            )
            return
        trc = shard.tracer
        span = None
        if trc is not None:
            span = trc.start_span(
                f"server.{OP_NAMES.get(request.op, str(request.op))}",
                kind="server",
                parent=self._parse_trace(request.trace),
                shard=shard.index,
            )
        try:
            if request.op in WRITE_OPS:
                # A parked write's engine span adopts the context inside
                # the group commit, not here: other requests are served
                # before it commits, and must not inherit it.
                response = self._admit_write(link, shard, request, span)
                if response is None:
                    return
            elif span is None:
                response = self._read(shard, request)
            else:
                with trc.adopt(span.context):
                    response = self._read(shard, request)
        except Exception as exc:  # never kill the connection on one op
            response = self._error_response(shard, rid, exc)
        self._answer(link, span, response)

    @staticmethod
    def _answer(link: ClientLink, span, response: Response) -> None:
        if span is not None:
            span.set(status=Status.NAMES.get(response.status, str(response.status)))
            span.end()
        link.send(response)

    @staticmethod
    def _error_response(shard: Shard, rid: int, exc: Exception) -> Response:
        if isinstance(exc, BackgroundError):
            shard.stats.degraded_rejects += 1
            return Response(request_id=rid, status=Status.DEGRADED, message=str(exc))
        if not isinstance(exc, ReproError):
            return server_error(rid, exc)
        shard.stats.errors += 1
        status = (
            Status.BAD_REQUEST
            if isinstance(exc, InvalidArgumentError)
            else Status.SERVER_ERROR
        )
        return Response(request_id=rid, status=status, message=str(exc))

    def _read(self, shard: Shard, request: Request) -> Response:
        """Every shard op that never awaits (all but the writes)."""
        op = request.op
        rid = request.request_id
        if op == Op.GET:
            shard.stats.gets += 1
            snapshot = shard.snapshot_for(request.snapshot)
            if snapshot is not None:
                value = shard.db.get(request.key, snapshot=snapshot)
            else:
                value = shard.db.get(request.key)
            return Response(
                request_id=rid,
                found=value is not None,
                value=value if value is not None else b"",
            )
        if op == Op.SCAN:
            shard.stats.scans += 1
            return Response(request_id=rid, pairs=self._scan(shard, request))
        if op == Op.SNAPSHOT:
            try:
                token = shard.create_snapshot()
            except NotImplementedError as exc:
                return Response(
                    request_id=rid, status=Status.UNSUPPORTED, message=str(exc)
                )
            return Response(request_id=rid, snapshot=token)
        if op == Op.RELEASE:
            shard.release_snapshot(request.snapshot or 0)
            return Response(request_id=rid)
        if op == Op.PROPERTY:
            shard.stats.properties += 1
            return text_response(rid, shard.db.get_property(request.name))
        if op == Op.METRICS:
            shard.stats.metrics += 1
            return text_response(rid, shard.db.get_property("repro.metrics"))
        return Response(
            request_id=rid, status=Status.BAD_REQUEST, message=f"unhandled op {op}"
        )

    def _admit_write(
        self, link: ClientLink, shard: Shard, request: Request, span
    ) -> Optional[Response]:
        """Park a write on its shard's group-commit queue (returns None;
        the drain answers it), or refuse it here with a response."""
        rid = request.request_id
        if request.op == Op.PUT:
            shard.stats.puts += 1
            ops = [(KIND_PUT, request.key, request.value)]
        elif request.op == Op.DELETE:
            shard.stats.deletes += 1
            ops = [(KIND_DELETE, request.key, b"")]
        else:
            shard.stats.batches += 1
            ops = list(request.ops)
        if shard.db.is_degraded:
            shard.stats.degraded_rejects += 1
            return Response(
                request_id=rid,
                status=Status.DEGRADED,
                message=shard.db.get_property("repro.background-error") or "degraded",
            )
        cap = self.config.max_write_debt
        if cap and shard.write_debt >= cap:
            # Shed instead of queueing: the client backs off at least
            # ``retry_after`` (scaled by how oversubscribed the queue is)
            # and retries inside its normal retry budget, so an
            # acknowledged write is still exactly-once via dedup.
            shard.stats.overload_rejects += 1
            hint = self.config.overload_retry_after * max(
                1.0, shard.write_debt / cap
            )
            # Mirror into the store registry so `repro.health` surfaces
            # shedding, and snapshot the flight recorder.
            shard.db.registry.counter("server.overload_rejects").value += 1
            recorder = getattr(shard.db, "recorder", None)
            if recorder is not None:
                recorder.point(
                    "server.overloaded",
                    shard=shard.index,
                    debt=shard.write_debt,
                    retry_after=hint,
                )
                recorder.dump("overloaded")
            return Response(
                request_id=rid,
                status=Status.OVERLOADED,
                message=f"shard {shard.index} write queue full "
                f"({shard.write_debt}/{cap})",
                retry_after=hint,
            )

        def answer(outcome: Union[bool, Exception]) -> None:
            if isinstance(outcome, Exception):
                response = self._error_response(shard, rid, outcome)
            else:
                response = Response(request_id=rid, applied=outcome)
            self._answer(link, span, response)
            link.unpark()

        link.parked += 1
        shard.queue_write(
            ops, link.client_id, rid, answer, span.context if span else None
        )
        return None

    def _scan(self, shard: Shard, request: Request) -> List[Tuple[bytes, bytes]]:
        snapshot = shard.snapshot_for(request.snapshot)
        lo = request.lo if request.lo else b"\x00"
        if snapshot is not None:
            iterator = shard.db.seek(lo, snapshot=snapshot)
        else:
            iterator = shard.db.seek(lo)
        pairs: List[Tuple[bytes, bytes]] = []
        limit = request.limit or None
        with iterator as it:
            while it.valid:
                key = it.key()
                if request.hi is not None and key >= request.hi:
                    break
                pairs.append((key, it.value()))
                if limit is not None and len(pairs) >= limit:
                    break
                it.next()
        return pairs

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def enable_tracing(self, sink) -> None:
        """Route every shard's spans (server + engine) into ``sink``.

        Each shard gets its own tracer (component ``shardN``) so span
        ids stay a pure function of per-shard call order; all tracers
        share the one sink, giving a single-file cross-shard trace.
        """
        for shard in self.shards:
            shard.tracer = shard.db.enable_tracing(
                sink, component=f"shard{shard.index}"
            )

    def _admin_parts(self) -> List[Dict[str, object]]:
        """One stats part per shard for :func:`aggregate_admin`.

        The process serving mode asks each worker for exactly this
        structure over the control pipe (everything in it pickles), so
        loopback and process modes aggregate identical parts.
        """
        return [
            dict(
                shard.db.stats_part(),
                shard=shard.index,
                state="active",
                ops=dict(vars(shard.stats)),
            )
            for shard in self.shards
        ]

    def admin_text(self, section: str) -> Optional[str]:
        """One aggregated admin section (``Op.ADMIN``); None if unknown."""
        return aggregate_admin(section, self._admin_parts())

    def shard_sim_times(self) -> List[float]:
        return [shard.env.clock.now for shard in self.shards]

    def state_digests(self) -> List[str]:
        """Per-shard on-storage digests (determinism assertions)."""
        return [shard.state_digest() for shard in self.shards]

    def total_ops(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for name, value in vars(shard.stats).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    async def wait_idle(self) -> None:
        """Let in-flight group commits and engine background work finish."""
        for shard in self.shards:
            while shard.write_debt:  # a queued write has a drain scheduled
                await asyncio.sleep(0)
            shard.db.wait_idle()

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self._close_connections()
        await self.wait_idle()
        for shard in self.shards:
            shard.close()
