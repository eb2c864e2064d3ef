"""Cluster client: pooling, pipelining, routing, retry with dedup.

:class:`ClusterClient` is the async client.  It keeps a small pool of
connections, pipelines concurrent requests over them (responses are
matched back by ``request_id``, so many calls can be in flight on one
connection), routes every operation through the
:class:`~repro.net.router.ShardRouter` learned from the server's HELLO
response, and splits scans and write batches into per-shard pieces whose
results are merged back transparently.

Against a process-mode server the HELLO reply also carries one
:class:`~repro.net.protocol.Route` per shard.  The client then keeps a
pool *per shard*, dialled straight to the worker that serves it, and the
connections to the server it was opened on carry only HELLO and
``Op.ADMIN``.  It caches no route beyond its open connections: whenever
a shard's pool slot has no live connection it asks again (one more
HELLO, ``ClientStats.route_refreshes``) and dials what the answer says.

Failures map onto the PR 2 fault taxonomy one layer up:

* connection loss, a damaged frame, a refused dial, or a shard whose
  route says ``restarting``/``handoff`` → :class:`TransientNetError`;
  the client reconnects, backs off exponentially, and retries the *same*
  request id, which the server deduplicates so retried writes are
  applied exactly once;
* retries exhausted → :class:`ServerUnavailableError`;
* a ``DEGRADED`` response or a ``degraded`` route →
  :class:`ShardDegradedError` immediately (the shard is read-only, or
  its restart-storm breaker is open, until an operator resumes it;
  retrying cannot help).

:class:`BlockingClusterClient` wraps the async client (plus an in-process
loopback server) behind the synchronous :class:`KeyValueStore`-style
interface the workload drivers expect, so db_bench and YCSB can run
unchanged against a sharded cluster.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import InvalidArgumentError
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
    OP_NAMES,
    SHARD_ACTIVE,
    SHARD_DEGRADED,
    Op,
    Request,
    Response,
    Status,
    encode_frame,
)
from repro.net.router import BatchOp, ShardRouter
from repro.net.transport import FrameConnection

#: ``connect(index) -> Connection`` factory; index counts connections ever
#: opened (reconnects included), so fault hooks can target specific ones.
ConnectFn = Callable[[int], Awaitable["Connection"]]


@dataclass
class ClientStats:
    """Client-side counters (retry behaviour is observable in tests)."""

    requests: int = 0
    retries: int = 0
    connections_opened: int = 0
    transient_errors: int = 0
    #: OVERLOADED responses honored: admission-control retries where the
    #: backoff was raised to at least the server's retry-after hint.
    overload_backoffs: int = 0
    #: HELLOs re-sent to learn where a shard is served now — one per
    #: worker connection dialled or attempted (process serving mode).
    route_refreshes: int = 0


@dataclass
class ClusterSnapshot:
    """A consistent read view pinned on every shard (one token each)."""

    tokens: List[int]

    def token_for(self, shard: int) -> int:
        return self.tokens[shard]


class Connection(FrameConnection):
    """One pipelined connection: each response resolves its caller's
    future in the callback that delivered its bytes."""

    def __init__(self) -> None:
        super().__init__()
        self._loop = asyncio.get_running_loop()
        self._pending: Dict[int, asyncio.Future] = {}
        self._dead = False
        #: Set from pause_writing to resume_writing: calls wait on it first.
        self._writable: Optional[asyncio.Future] = None

    @property
    def is_alive(self) -> bool:
        return not self._dead

    def message_received(self, response: Union[Request, Response]) -> None:
        if not isinstance(response, Response):
            raise FrameError("server sent a request payload")
        future = self._pending.pop(response.request_id, None)
        if future is not None and not future.done():
            future.set_result(response)

    def frame_error(self, exc: FrameError) -> None:
        self._fail(exc)

    def eof_received(self) -> None:
        self._fail(TransientNetError("connection closed by peer"))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(TransientNetError(f"connection lost: {exc or 'closed'}"))

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if writable is not None and not writable.done():
            writable.set_result(None)

    def _fail(self, exc: NetError) -> None:
        """Kill the connection; every in-flight call fails (and retries)."""
        self._dead = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        self.resume_writing()  # a waiting caller then finds its failed future
        self.endpoint.close()

    def call(self, request: Request) -> Awaitable[Response]:
        """Send one request; the result awaits its matched response (pipelined),
        after the transport resumes writing if it asked writers to pause."""
        if self._dead:
            raise TransientNetError("connection is dead")
        future = self._loop.create_future()
        self._pending[request.request_id] = future
        try:
            self.endpoint.write(encode_frame(request.encode()))
        except NetError as exc:
            self._pending.pop(request.request_id, None)
            self._fail(exc)
            raise TransientNetError(f"send failed: {exc}") from exc
        if self._writable is None:
            return future
        return self._drain_then(self._writable, future)

    @staticmethod
    async def _drain_then(writable: asyncio.Future, future: asyncio.Future) -> Response:
        await asyncio.shield(writable)  # shared by every waiting caller
        return await future

    async def close(self) -> None:
        self._fail(TransientNetError("connection closed"))
        if self.pump is not None:
            await asyncio.gather(self.pump, return_exceptions=True)


async def _dial(host: str, port: int) -> Connection:
    try:
        _, conn = await asyncio.get_running_loop().create_connection(
            Connection, host, port
        )
    except (ConnectionError, OSError) as exc:
        raise TransientNetError(f"connect failed: {exc}") from exc
    return conn


class _Pool(List[Optional[Connection]]):
    """A fixed number of connection slots, used round-robin."""

    def __init__(self, size: int) -> None:
        super().__init__([None] * size)
        self.locks = [asyncio.Lock() for _ in range(size)]
        self.next_slot = 0

    def take(self) -> int:
        """The slot the next call uses (round-robin)."""
        slot = self.next_slot
        self.next_slot = (slot + 1) % len(self)
        return slot


class ClusterClient:
    """Async client for one serving cluster.  Build via :meth:`open`."""

    def __init__(
        self,
        connect: ConnectFn,
        *,
        pool_size: int = 2,
        max_retries: int = 10,
        backoff_base: float = 0.01,
        backoff_max: float = 0.5,
        retry_budget: Optional[float] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        endpoint_wrap: Optional[Callable[[object, int], object]] = None,
        dialled_host: str = "127.0.0.1",
    ) -> None:
        if pool_size < 1:
            raise InvalidArgumentError("pool_size must be >= 1")
        self._connect = connect
        self._pool_size = pool_size
        #: The host the server was reached on: what a route with an empty
        #: host (a server bound to a wildcard address) stands for.
        self._dialled_host = dialled_host
        #: The default attempt cap is sized so the cumulative backoff
        #: (~2s expected with jitter) rides through a supervised worker
        #: restart in the process serving mode, not just a dropped
        #: connection.
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        #: Total backoff seconds one call may spend before it raises
        #: :class:`RetriesExhaustedError` (None = attempt cap only).
        self._retry_budget = retry_budget
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._endpoint_wrap = endpoint_wrap
        #: Connections to the server this client was opened on ...
        self._pool = _Pool(pool_size)
        #: ... and, when its HELLO publishes routes, to each shard's worker.
        self._shard_pools: Dict[int, _Pool] = {}
        self._routed = False
        self._next_request_id = 1
        self.client_id = 0
        self.router: Optional[ShardRouter] = None
        self.stats = ClientStats()
        #: Set via :meth:`enable_tracing`; every call then opens a client
        #: span whose context travels to the server in the request frame.
        self.tracer = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def open(cls, connect: ConnectFn, **kwargs) -> "ClusterClient":
        """Connect, HELLO, and learn the shard map."""
        client = cls(connect, **kwargs)
        await client._connection(slot=0)  # the HELLO fills in router + client_id
        return client

    @classmethod
    async def open_loopback(cls, server, **kwargs) -> "ClusterClient":
        """Client served in-process over deterministic loopback pipes."""

        async def connect(_index: int):
            return Connection().attach(server.connect_loopback())

        return await cls.open(connect, **kwargs)

    @classmethod
    async def open_tcp(cls, host: str, port: int, **kwargs) -> "ClusterClient":
        """Client over real TCP connections."""

        async def connect(_index: int):
            return await _dial(host, port)

        return await cls.open(connect, dialled_host=host, **kwargs)

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _pool_for(self, shard: Optional[int]) -> _Pool:
        """The connections to ``shard``'s worker, or (None) to the server
        this client was opened on."""
        if self._closed:
            raise TransientNetError("client is closed")
        if shard is None:
            return self._pool
        pool = self._shard_pools.get(shard)
        if pool is None:
            pool = self._shard_pools[shard] = _Pool(self._pool_size)
        return pool

    async def _connection(
        self, shard: Optional[int] = None, slot: Optional[int] = None
    ) -> Connection:
        """A live connection to ``shard``'s worker, or (None) to the
        server this client was opened on; dialled and introduced with a
        HELLO when the pool slot has none."""
        pool = self._pool_for(shard)
        if slot is None:
            slot = pool.take()
        conn = pool[slot]
        if conn is not None and conn.is_alive:
            return conn
        async with pool.locks[slot]:
            # Another caller may have reconnected this slot while we
            # waited for the lock; only one connection per slot at a time.
            conn = pool[slot]
            if conn is not None and conn.is_alive:
                return conn
            index = self.stats.connections_opened
            if shard is None:
                conn = await self._connect(index)
            else:
                conn = await self._dial_worker(shard)
            if self._endpoint_wrap is not None:
                conn.endpoint = self._endpoint_wrap(conn.endpoint, index)
            self.stats.connections_opened += 1
            pool[slot] = conn
            try:
                response = await conn.call(self._hello())
            except NetError:
                pool[slot] = None
                await conn.close()
                raise
            if shard is None:
                self.client_id = response.client_id
                self._routed = bool(response.routes)
                if self.router is None:
                    self.router = ShardRouter(response.boundaries)
            return conn

    def _hello(self) -> Request:
        return Request(
            op=Op.HELLO, request_id=self._alloc_id(), client_id=self.client_id
        )

    async def _dial_worker(self, shard: int) -> Connection:
        """Ask the server where ``shard`` is served *now*, and dial it.

        No route is remembered: a worker's address is only good for the
        connection dialled with it, and only the parent knows when a
        replacement has finished replaying the ship log.
        """
        self.stats.route_refreshes += 1
        front = await self._connection()
        routes = (await front.call(self._hello())).routes
        if not 0 <= shard < len(routes):
            raise RemoteError(
                f"BAD_SHARD: no shard {shard} (have {len(routes)})", Status.BAD_SHARD
            )
        state, host, port = routes[shard]
        if state == SHARD_DEGRADED:
            # The restart-storm breaker is sticky: not worth a retry.
            raise ShardDegradedError(
                f"shard degraded: shard {shard} breaker open after repeated "
                "worker crashes; resume_shard() to re-enable",
                Status.DEGRADED,
            )
        if state != SHARD_ACTIVE:
            raise TransientNetError(f"shard {shard} is {state}")
        return await _dial(host or self._dialled_host, port)

    def _alloc_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    # ------------------------------------------------------------------
    # Request execution with retry/backoff
    # ------------------------------------------------------------------
    def enable_tracing(
        self, sink, *, clock=None, component: str = "client", seed: int = 0
    ):
        """Open a client span per call; its context rides in the frame."""
        from repro.obs.trace import Tracer

        self.tracer = Tracer(sink, clock=clock, component=component, seed=seed)
        return self.tracer

    def _call(self, request: Request) -> Awaitable[Response]:
        """Issue ``request``, reconnecting and retrying transient failures.

        The same request id is re-sent on every attempt: reads are
        naturally idempotent and the server deduplicates writes, so a
        request whose response was lost is never applied twice.
        """
        self.stats.requests += 1
        if self.tracer is None:
            return self._call_with_retry(request, None)
        return self._traced_call(request)

    async def _traced_call(self, request: Request) -> Response:
        span = self.tracer.start_span(
            f"client.{OP_NAMES.get(request.op, str(request.op))}",
            kind="client",
            shard=request.shard,
        )
        request.trace = f"{span.trace_id}/{span.span_id}"
        with span:
            response = await self._call_with_retry(request, span)
            span.set(status=Status.NAMES.get(response.status, str(response.status)))
            return response

    def _backoff_delay(self, request_id: int, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The jitter multiplier lives in [0.5, 1.0) and is a pure function
        of (request_id, attempt) — a Knuth-style multiplicative hash —
        so two clients retrying different requests decorrelate while a
        same-seed rerun backs off identically.
        """
        delay = min(self._backoff_base * (2 ** attempt), self._backoff_max)
        h = (request_id * 2654435761 + attempt * 40503 + 97) & 0xFFFFFFFF
        return delay * (0.5 + (h / 2.0 ** 32) * 0.5)

    async def _retry_backoff(
        self,
        request: Request,
        span,
        attempt: int,
        spent: float,
        error: str,
        min_delay: float = 0.0,
    ) -> float:
        """Account one transient failure; sleep or raise when exhausted.

        Returns the updated backoff-seconds total.  Raises
        :class:`RetriesExhaustedError` (a :class:`ServerUnavailableError`)
        when the attempt cap or the backoff budget is spent — bounded
        behaviour against a shard that stays dead, instead of retrying
        forever.  ``min_delay`` floors the computed backoff (an
        OVERLOADED retry-after hint); the raised delay still counts
        against the same retry budget.
        """
        self.stats.transient_errors += 1
        delay = max(self._backoff_delay(request.request_id, attempt), min_delay)
        budget = self._retry_budget
        if attempt >= self._max_retries or (
            budget is not None and spent + delay > budget
        ):
            raise RetriesExhaustedError(
                f"request {request.request_id} failed after {attempt + 1} "
                f"attempts ({spent:.3f}s backoff): {error}",
                attempts=attempt + 1,
                backoff_spent=spent,
            )
        self.stats.retries += 1
        if span is not None:
            span.event("retry", attempt=attempt + 1, error=error)
        await self._sleep(delay)
        return spent + delay

    async def _call_with_retry(
        self, request: Request, span
    ) -> Response:
        attempt = 0
        spent = 0.0
        while True:
            # A routed cluster serves a shard's ops at its worker; ADMIN
            # is cluster-wide and stays with the server that aggregates.
            shard = request.shard if self._routed and request.op != Op.ADMIN else None
            try:
                # ``_connection`` in line while the slot is live: no
                # coroutine on an op's path that cannot suspend.
                pool = self._pool_for(shard)
                slot = pool.take()
                conn = pool[slot]
                if conn is None or not conn.is_alive:
                    conn = await self._connection(shard, slot)
                response = await conn.call(request)
            except (TransientNetError, FrameError) as exc:
                # Includes a worker that is down or being replaced (a
                # dropped or refused connection, a ``restarting`` or
                # ``handoff`` route): the supervisor restores it from the
                # ship log, so back off and ask for the route again.
                spent = await self._retry_backoff(
                    request, span, attempt, spent, type(exc).__name__
                )
                attempt += 1
                continue
            if response.status == Status.OVERLOADED:
                # Admission control shed this write.  Honor the server's
                # retry-after hint (flooring the normal backoff) inside
                # the same retry budget; the retried request keeps its
                # request id, so the eventual apply is still
                # exactly-once via server-side dedup.
                self.stats.overload_backoffs += 1
                spent = await self._retry_backoff(
                    request,
                    span,
                    attempt,
                    spent,
                    "OVERLOADED",
                    min_delay=response.retry_after,
                )
                attempt += 1
                continue
            return self._check(response)

    @staticmethod
    def _check(response: Response) -> Response:
        status = response.status
        if status in (Status.OK, Status.NOT_FOUND):
            return response
        name = Status.NAMES.get(status, str(status))
        if status == Status.DEGRADED:
            raise ShardDegradedError(
                f"shard degraded: {response.message}", status
            )
        raise RemoteError(f"{name}: {response.message}", status)

    def _router(self) -> ShardRouter:
        assert self.router is not None, "client not opened"
        return self.router

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def get(
        self, key: bytes, snapshot: Optional[ClusterSnapshot] = None
    ) -> Optional[bytes]:
        shard = self._router().shard_for(key)
        response = await self._call(
            Request(
                op=Op.GET,
                request_id=self._alloc_id(),
                shard=shard,
                key=key,
                snapshot=snapshot.token_for(shard) if snapshot else None,
            )
        )
        return response.value if response.found else None

    async def put(self, key: bytes, value: bytes) -> bool:
        """Returns False when the server skipped a retried duplicate."""
        response = await self._call(
            Request(
                op=Op.PUT,
                request_id=self._alloc_id(),
                shard=self._router().shard_for(key),
                key=key,
                value=value,
            )
        )
        return response.applied

    async def delete(self, key: bytes) -> bool:
        response = await self._call(
            Request(
                op=Op.DELETE,
                request_id=self._alloc_id(),
                shard=self._router().shard_for(key),
                key=key,
            )
        )
        return response.applied

    async def write_batch(self, ops: Sequence[BatchOp]) -> None:
        """Apply a batch, split per shard.

        Each per-shard piece is atomic and deduplicated under its own
        request id; atomicity across shards is *not* provided (the pieces
        commit independently), matching every range-sharded store.
        """
        pieces = self._router().split_batch(ops)
        calls = [
            self._call(
                Request(
                    op=Op.BATCH,
                    request_id=self._alloc_id(),
                    shard=shard,
                    ops=shard_ops,
                )
            )
            for shard, shard_ops in sorted(pieces.items())
        ]
        await asyncio.gather(*calls)

    async def scan(
        self,
        lo: bytes = b"\x00",
        hi: Optional[bytes] = None,
        limit: int = 0,
        snapshot: Optional[ClusterSnapshot] = None,
    ) -> List[Tuple[bytes, bytes]]:
        """All pairs in ``[lo, hi)`` across shards, globally sorted.

        Sub-scans run concurrently (pipelined over the pool); shard
        ranges are ordered and internally sorted, so concatenation in
        shard order is the complete merge.
        """
        pieces = self._router().split_range(lo if lo else b"\x00", hi)
        calls = [
            self._call(
                Request(
                    op=Op.SCAN,
                    request_id=self._alloc_id(),
                    shard=shard,
                    lo=sub_lo,
                    hi=sub_hi,
                    limit=limit,
                    snapshot=snapshot.token_for(shard) if snapshot else None,
                )
            )
            for shard, sub_lo, sub_hi in pieces
        ]
        results: List[Tuple[bytes, bytes]] = []
        for response in await asyncio.gather(*calls):
            results.extend(response.pairs)
            if limit and len(results) >= limit:
                break
        return results[:limit] if limit else results

    async def snapshot(self) -> ClusterSnapshot:
        """Pin a read view on every shard.

        The tokens are pinned shard by shard, not atomically across
        shards: like the cross-shard batch, per-shard consistency is
        exact while cross-shard consistency is best-effort.
        """
        tokens: List[int] = []
        for shard in range(self._router().num_shards):
            response = await self._call(
                Request(op=Op.SNAPSHOT, request_id=self._alloc_id(), shard=shard)
            )
            tokens.append(response.snapshot)
        return ClusterSnapshot(tokens)

    async def release(self, snapshot: ClusterSnapshot) -> None:
        for shard, token in enumerate(snapshot.tokens):
            await self._call(
                Request(
                    op=Op.RELEASE,
                    request_id=self._alloc_id(),
                    shard=shard,
                    snapshot=token,
                )
            )

    async def get_property(self, name: str, shard: int = 0) -> Optional[str]:
        response = await self._call(
            Request(
                op=Op.PROPERTY, request_id=self._alloc_id(), shard=shard, name=name
            )
        )
        return response.value.decode("utf-8") if response.found else None

    async def properties(self, name: str) -> List[Optional[str]]:
        """The property from every shard (index = shard)."""
        return list(
            await asyncio.gather(
                *(
                    self.get_property(name, shard)
                    for shard in range(self._router().num_shards)
                )
            )
        )

    async def metrics(self, shard: int = 0) -> Optional[str]:
        """One shard's metrics registry as Prometheus-style text."""
        response = await self._call(
            Request(op=Op.METRICS, request_id=self._alloc_id(), shard=shard)
        )
        return response.value.decode("utf-8") if response.found else None

    async def admin(self, section: str = "metrics") -> Optional[str]:
        """One cluster-wide admin section (``Op.ADMIN``), aggregated
        across every shard server-side; ``None`` for an unknown section.

        Sections: ``metrics`` (merged Prometheus text), ``health`` (JSON
        per-shard states + summed op counters), ``ledger`` (merged I/O
        attribution ledger as JSON), ``windows`` (windowed latency
        percentile series as JSON).  The op is not shard-routed — any
        connection answers for the whole cluster.
        """
        response = await self._call(
            Request(op=Op.ADMIN, request_id=self._alloc_id(), name=section)
        )
        return response.value.decode("utf-8") if response.found else None

    async def all_metrics(self) -> List[Optional[str]]:
        """The metrics dump from every shard (index = shard)."""
        return list(
            await asyncio.gather(
                *(self.metrics(shard) for shard in range(self._router().num_shards))
            )
        )

    async def aclose(self) -> None:
        self._closed = True
        for pool in (self._pool, *self._shard_pools.values()):
            for conn in pool:
                if conn is not None:
                    await conn.close()
        self._pool = _Pool(self._pool_size)
        self._shard_pools = {}


# ----------------------------------------------------------------------
# Synchronous facade
# ----------------------------------------------------------------------
class _ClientIterator:
    """DBIterator-shaped pager over :meth:`BlockingClusterClient.scan`."""

    PAGE = 128

    def __init__(self, client: "BlockingClusterClient", start: bytes) -> None:
        self._client = client
        self._page: List[Tuple[bytes, bytes]] = []
        self._index = 0
        self._exhausted = False
        self._fetch(start)

    def _fetch(self, lo: bytes) -> None:
        self._page = self._client.scan(lo, limit=self.PAGE)
        self._index = 0
        if len(self._page) < self.PAGE:
            self._exhausted = True

    @property
    def valid(self) -> bool:
        return self._index < len(self._page)

    def _entry(self) -> Tuple[bytes, bytes]:
        if not self.valid:
            raise InvalidArgumentError("iterator exhausted")
        return self._page[self._index]

    def key(self) -> bytes:
        return self._entry()[0]

    def value(self) -> bytes:
        return self._entry()[1]

    def next(self) -> bool:
        if not self.valid:
            return False
        last_key = self.key()
        self._index += 1
        if self._index >= len(self._page) and not self._exhausted:
            # The next page starts just above the last key we returned.
            self._fetch(last_key + b"\x00")
        return self.valid

    def close(self) -> None:
        self._page = []
        self._index = 0

    def __enter__(self) -> "_ClientIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _ClusterClockView:
    """Duck-types ``storage.clock`` for drivers timing a whole cluster."""

    def __init__(self, server) -> None:
        self._server = server

    @property
    def now(self) -> float:
        return self._server.sim_now()


class _ClusterStorageView:
    """Duck-types the ``storage`` argument the workload runners take."""

    def __init__(self, server) -> None:
        self.clock = _ClusterClockView(server)


class BlockingClusterClient:
    """Synchronous KeyValueStore-style facade over a loopback cluster.

    Owns a private event loop, an in-process :class:`KVServer`, and an
    async :class:`ClusterClient`, and exposes put/get/delete/seek/
    write_batch/stats so db_bench and YCSB drive a sharded cluster
    through the same interface as a local store.
    """

    def __init__(self, server, **client_kwargs) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self.client: ClusterClient = self._run(
            ClusterClient.open_loopback(server, **client_kwargs)
        )
        self.storage = _ClusterStorageView(server)

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    # -- KeyValueStore-shaped surface -----------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self._run(self.client.put(key, value))

    def get(self, key: bytes) -> Optional[bytes]:
        return self._run(self.client.get(key))

    def delete(self, key: bytes) -> None:
        self._run(self.client.delete(key))

    def write_batch(self, ops: Sequence[BatchOp], sync: bool = False) -> None:
        self._run(self.client.write_batch(ops))

    def scan(
        self, lo: bytes = b"\x00", hi: Optional[bytes] = None, limit: int = 0
    ) -> List[Tuple[bytes, bytes]]:
        return self._run(self.client.scan(lo, hi, limit))

    def seek(self, key: bytes) -> _ClientIterator:
        return _ClientIterator(self, key)

    def get_property(self, name: str, shard: int = 0) -> Optional[str]:
        return self._run(self.client.get_property(name, shard))

    def all_metrics(self) -> List[Optional[str]]:
        return self._run(self.client.all_metrics())

    def admin(self, section: str = "metrics") -> Optional[str]:
        return self._run(self.client.admin(section))

    def enable_tracing(self, sink):
        """One trace per cluster op: client → server → engine spans.

        ``sink`` is a :class:`~repro.obs.trace.TraceSink` or a path.  The
        client tracer is timed on the cluster clock view; every shard's
        tracer (server dispatch + engine) shares the same sink, so the
        whole cluster writes one chronologically-interleaved JSONL file.
        """
        from repro.obs.trace import TraceSink

        if isinstance(sink, str):
            sink = TraceSink(sink)
        self.client.enable_tracing(
            sink,
            clock=_ClusterClockView(self.server),
            seed=self.server.config.seed,
        )
        self.server.enable_tracing(sink)
        return sink

    def stats(self):
        """Aggregate engine stats across all shards (sums every
        ``STAT_METRICS`` field; degraded if any shard is)."""
        from repro.engines.base import STAT_METRICS, StoreStats

        total = StoreStats()
        for shard in self.server.shards:
            stats = shard.db.stats()
            for name in STAT_METRICS:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        total.degraded = bool(total.degraded)
        return total

    def wait_idle(self) -> None:
        self._run(self.server.wait_idle())

    def close(self) -> None:
        try:
            self._run(self.client.aclose())
            self._run(self.server.aclose())
        finally:
            self._loop.close()
