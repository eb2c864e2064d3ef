"""Byte transports (deterministic loopback pipes, TCP) and the connection
object both serving ends are built on.

Everything above this module writes to a duck-typed *endpoint*::

    await endpoint.read(n)   # up to n bytes; b"" once the peer closed
    endpoint.write(data)     # buffer outgoing bytes (one frame per call)
    endpoint.close()         # drop the connection

:class:`FrameConnection` is one side of a framed connection: asyncio
calls it as the protocol of a TCP transport, a pump task as the reader of
an in-memory endpoint.

:func:`loopback_pair` builds two in-memory endpoints joined back to back.
They use only asyncio futures on one event loop — no sockets, no timers —
so a client+server conversation over loopback is fully deterministic:
the same seed and the same call sequence schedule the same task
interleaving every run, which is what lets the net tests assert
byte-identical shard states.

:class:`StreamEndpoint` is the TCP endpoint: the write side of a
connection's transport, or an asyncio ``(StreamReader, StreamWriter)``
pair for a bare socket.

:class:`FaultyEndpoint` + :class:`ConnectionFaultPlan` inject the network
analogues of the PR 2 storage faults, deterministically by frame count:
a *cut* (connection dies: the peer sees EOF, the writer sees a transient
error) and a *corrupt* (one payload byte flipped in flight, caught by the
frame CRC on the receiving side).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.net.errors import FrameError, TransientNetError
from repro.net.protocol import FrameDecoder, decode_payload


class _PipeBuffer:
    """One direction of a loopback pipe: FIFO chunks plus an EOF marker."""

    def __init__(self) -> None:
        self._chunks: Deque[bytes] = deque()
        self._eof = False
        self._waiter: Optional[asyncio.Future] = None

    def feed(self, data: bytes) -> None:
        if data and not self._eof:
            self._chunks.append(data)
            self._wake()

    def feed_eof(self) -> None:
        self._eof = True
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def read(self, n: int) -> bytes:
        while not self._chunks:
            if self._eof:
                return b""
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        chunk = self._chunks.popleft()
        if len(chunk) > n:
            self._chunks.appendleft(chunk[n:])
            chunk = chunk[:n]
        return chunk


class LoopbackEndpoint:
    """One end of an in-memory duplex pipe."""

    def __init__(self, rx: _PipeBuffer, tx: _PipeBuffer) -> None:
        self._rx = rx
        self._tx = tx
        self._closed = False

    async def read(self, n: int = 65536) -> bytes:
        return await self._rx.read(n)

    def write(self, data: bytes) -> None:
        if self._closed:
            raise TransientNetError("connection is closed")
        self._tx.feed(data)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._tx.feed_eof()
            self._rx.feed_eof()

    @property
    def is_closed(self) -> bool:
        return self._closed


def loopback_pair() -> Tuple[LoopbackEndpoint, LoopbackEndpoint]:
    """Two endpoints joined back to back (client side, server side)."""
    a_to_b = _PipeBuffer()
    b_to_a = _PipeBuffer()
    return (
        LoopbackEndpoint(rx=b_to_a, tx=a_to_b),
        LoopbackEndpoint(rx=a_to_b, tx=b_to_a),
    )


class StreamEndpoint:
    """The TCP endpoint: ``writer`` is a :class:`FrameConnection`'s
    transport (``reader`` None: asyncio hands the bytes to the connection)
    or the StreamWriter of a stream pair, which :meth:`read` serves."""

    def __init__(
        self,
        reader: Optional[asyncio.StreamReader],
        writer: asyncio.StreamWriter | asyncio.WriteTransport,
    ) -> None:
        self._reader = reader
        self._writer = writer

    async def read(self, n: int = 65536) -> bytes:
        try:
            return await self._reader.read(n)
        except (ConnectionError, OSError):
            return b""

    def write(self, data: bytes) -> None:
        try:
            self._writer.write(data)
        except (ConnectionError, OSError) as exc:
            raise TransientNetError(f"write failed: {exc}") from exc

    def close(self) -> None:
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - defensive
            pass

    @property
    def is_closed(self) -> bool:
        return self._writer.is_closing()


class FrameConnection(asyncio.Protocol):
    """One side of a framed connection, whichever transport carries it:
    asyncio calls it over TCP, a pump task (:meth:`attach`) for an in-memory
    endpoint.  A chunk is decoded in the callback that delivered it; the
    subclass gets each message (``message_received``) or the damage
    (``frame_error``) there, and writes through ``self.endpoint``."""

    endpoint = None
    #: The task feeding an in-memory endpoint (None over TCP).
    pump: Optional[asyncio.Task] = None

    def __init__(self) -> None:
        self._decoder = FrameDecoder()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.endpoint = StreamEndpoint(None, transport)

    def attach(self, endpoint) -> "FrameConnection":
        """Serve an in-memory endpoint (a pump task reads it)."""
        self.endpoint = endpoint
        self.pump = asyncio.ensure_future(self._pump())
        return self

    async def _pump(self) -> None:
        # Read ``self.endpoint`` afresh: a client may wrap it before the first read.
        try:
            while True:
                chunk = await self.endpoint.read(65536)
                if not chunk or self.endpoint.is_closed:
                    break
                self.data_received(chunk)
        finally:
            self.eof_received()

    def data_received(self, data: bytes) -> None:
        decoder = self._decoder
        try:
            decoder.feed(data)
            while True:
                payload = decoder.next_frame()
                if payload is None:
                    return
                self.message_received(decode_payload(payload))
        except FrameError as exc:
            self.frame_error(exc)


# ----------------------------------------------------------------------
# Deterministic connection-fault injection
# ----------------------------------------------------------------------
@dataclass
class ConnectionFaultPlan:
    """When this connection misbehaves, counted in outgoing frames.

    The client writes exactly one frame per ``write`` call, so frame
    indices are deterministic.  ``cut_after_frames=k`` kills the
    connection immediately after the k-th outgoing frame (0-based: after
    frame k has been sent); ``corrupt_frames`` lists outgoing frame
    indices whose payload gets one byte XOR-flipped, which the receiver's
    frame CRC catches and converts into a dropped connection.
    """

    cut_after_frames: Optional[int] = None
    corrupt_frames: List[int] = field(default_factory=list)


class FaultyEndpoint:
    """Wraps an endpoint and injects the plan's connection faults."""

    def __init__(self, inner, plan: ConnectionFaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._frames_written = 0
        self._cut = False

    # -- write side (where faults land) --------------------------------
    def write(self, data: bytes) -> None:
        if self._cut:
            raise TransientNetError("connection reset (injected)")
        index = self._frames_written
        self._frames_written += 1
        if index in self._plan.corrupt_frames and len(data) > 8:
            # Flip one payload byte; the 8-byte frame header survives so
            # the receiver sees a well-formed length and a CRC mismatch.
            damaged = bytearray(data)
            damaged[8] ^= 0xFF
            data = bytes(damaged)
        self._inner.write(data)
        if (
            self._plan.cut_after_frames is not None
            and index >= self._plan.cut_after_frames
        ):
            self._cut = True
            self._inner.close()

    async def read(self, n: int = 65536) -> bytes:
        if self._cut:
            return b""
        return await self._inner.read(n)

    def close(self) -> None:
        self._inner.close()

    @property
    def is_closed(self) -> bool:
        return self._cut or self._inner.is_closed
