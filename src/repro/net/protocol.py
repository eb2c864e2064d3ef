"""Binary wire protocol: framing, op codes, request/response payloads.

A *frame* is ``[length u32 LE][masked crc32c u32 LE][payload]``.  The CRC
covers the payload and is masked with the same scheme the WAL and sstable
blocks use (:mod:`repro.util.crc`), so a frame that happens to contain a
frame header never re-checksums to itself.  :class:`FrameDecoder`
re-assembles frames from an arbitrary byte stream and raises
:class:`~repro.net.errors.FrameError` on damage — after which the stream
is unusable (the reader may be mid-frame) and the connection must drop.

A *payload* is ``[op u8][request_id varint64][...]``.  Requests carry a
``shard`` varint and an op-specific body; responses carry a status byte
and a body.  All byte strings are varint32-length-prefixed, reusing
:mod:`repro.util.varint` — exactly the sstable block encoding, one layer
up the stack.

Op codes::

    HELLO      client introduces itself; reply carries the shard map
    GET        point lookup (optionally through a snapshot token)
    PUT        single write
    DELETE     single delete
    BATCH      atomic write batch (per shard)
    SCAN       bounded range scan (optionally through a snapshot token)
    SNAPSHOT   pin a consistent read view on one shard; reply: token
    RELEASE    unpin a snapshot token
    PROPERTY   read a ``repro.*`` textual property
    METRICS    dump one shard's metrics registry (Prometheus-style text)

Every request may carry an optional trailing *trace context* — the
``trace_id/span_id`` of the client span that issued it — so a server can
parent its handler span under the caller's and a whole cluster operation
shares one trace.  The field is appended only when non-empty, which keeps
wire bytes identical to the pre-tracing protocol when tracing is off.

Statuses: ``OK``/``NOT_FOUND`` are success shapes; ``DEGRADED`` maps the
shard's sticky :class:`repro.errors.BackgroundError` onto the wire (reads
keep working, writes are rejected until the shard is resumed);
``BAD_REQUEST``/``BAD_SHARD``/``UNSUPPORTED``/``SERVER_ERROR`` are
client- or server-side failures that retrying will not fix;
``OVERLOADED`` is admission control shedding a write (retried after the
hint it carries).

A process-mode parent's HELLO reply also carries one :class:`Route` per
shard — the shard's serving state and, only while it is ``active``, the
address of the worker that serves it.  Clients dial that address; a
reply without routes means "every shard is served on this connection".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

from repro.errors import CorruptionError
from repro.net.errors import FrameError
from repro.util.crc import crc32c, mask_crc, unmask_crc
from repro.util.varint import (
    decode_varint32,
    decode_varint64,
    decode_varint_run,
    encode_varint32,
    encode_varint64,
)

#: Hard cap on one frame's payload; anything larger is a framing error.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("<II")  # payload length, masked crc32c


# ----------------------------------------------------------------------
# Op codes and statuses
# ----------------------------------------------------------------------
class Op:
    """Request op codes (one byte on the wire)."""

    HELLO = 1
    GET = 2
    PUT = 3
    DELETE = 4
    BATCH = 5
    SCAN = 6
    SNAPSHOT = 7
    RELEASE = 8
    PROPERTY = 9
    METRICS = 10
    #: Read-only admin plane: ``name`` selects a section (``metrics``,
    #: ``health``, ``ledger``, ``windows``) aggregated across every
    #: shard of the server, not routed to one shard.
    ADMIN = 11
    #: Marks a payload as a response to the request id it echoes.
    RESPONSE = 0x80


#: Ops whose effects mutate the store (deduplicated on retry).
WRITE_OPS = (Op.PUT, Op.DELETE, Op.BATCH)

#: Human-readable op names (trace span labels, tooling).
OP_NAMES = {
    Op.HELLO: "hello",
    Op.GET: "get",
    Op.PUT: "put",
    Op.DELETE: "delete",
    Op.BATCH: "batch",
    Op.SCAN: "scan",
    Op.SNAPSHOT: "snapshot",
    Op.RELEASE: "release",
    Op.PROPERTY: "property",
    Op.METRICS: "metrics",
    Op.ADMIN: "admin",
}

_OPS = (
    Op.HELLO,
    Op.GET,
    Op.PUT,
    Op.DELETE,
    Op.BATCH,
    Op.SCAN,
    Op.SNAPSHOT,
    Op.RELEASE,
    Op.PROPERTY,
    Op.METRICS,
    Op.ADMIN,
)


class Status:
    """Response status codes (one byte on the wire)."""

    OK = 0
    NOT_FOUND = 1
    #: The shard is in degraded read-only mode (sticky background error).
    DEGRADED = 2
    BAD_REQUEST = 3
    BAD_SHARD = 4
    UNSUPPORTED = 5
    SERVER_ERROR = 6
    #: Admission control shed this write: the shard's in-flight write
    #: debt hit its cap.  Carries a retry-after hint; clients back off at
    #: least that long (inside the normal retry budget) and retry.
    OVERLOADED = 8

    NAMES = {
        0: "OK",
        1: "NOT_FOUND",
        2: "DEGRADED",
        3: "BAD_REQUEST",
        4: "BAD_SHARD",
        5: "UNSUPPORTED",
        6: "SERVER_ERROR",
        8: "OVERLOADED",
    }


#: Shard serving states a process-mode parent publishes.  ``active``
#: serves (a dead worker's address refuses the dial until the supervisor
#: replaces it); ``restarting``/``handoff`` are transient — clients back
#: off and ask again; ``degraded`` is the sticky restart-storm breaker —
#: clients raise at once, until ``resume_shard``.
SHARD_ACTIVE = "active"
SHARD_RESTARTING = "restarting"
SHARD_HANDOFF = "handoff"
SHARD_DEGRADED = "degraded"


class Route(NamedTuple):
    """Where one shard is served: its state and, when active, an address.

    An empty ``host`` on an active route means "the host you dialled me
    on" (the server is bound to a wildcard address).
    """

    state: str
    host: str = ""
    port: int = 0


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length + CRC header."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), mask_crc(crc32c(payload))) + payload


class FrameDecoder:
    """Incremental frame re-assembly from a byte stream.

    Feed arbitrary chunks with :meth:`feed`; :meth:`next_frame` returns
    one payload at a time (None while incomplete).  Raises
    :class:`FrameError` on an oversized length or a CRC mismatch, after
    which the decoder refuses further use — the stream cannot be resynced.
    Frames are read at an advancing offset; what they used is dropped once
    per :meth:`feed`, not once per frame.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0
        self._poisoned = False

    def feed(self, data: bytes) -> None:
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier framing error")
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        self._buf += data

    @property
    def buffered_bytes(self) -> int:
        return len(self._buf) - self._pos

    def next_frame(self) -> Optional[bytes]:
        """One complete payload, or None until more bytes arrive."""
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier framing error")
        buf, start = self._buf, self._pos + _HEADER.size
        if len(buf) < start:
            return None
        length, masked = _HEADER.unpack_from(buf, self._pos)
        if length > MAX_FRAME_BYTES:
            self._poisoned = True
            raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        end = start + length
        if len(buf) < end:
            return None
        payload = bytes(buf[start:end])
        self._pos = end
        if crc32c(payload) != unmask_crc(masked):
            self._poisoned = True
            raise FrameError("frame CRC mismatch")
        return payload


# ----------------------------------------------------------------------
# Byte-string helpers (varint32 length prefix)
# ----------------------------------------------------------------------
def _put_bytes(buf: bytearray, data: bytes) -> None:
    buf += encode_varint32(len(data))
    buf += data


def _get_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    length, offset = decode_varint32(data, offset)
    end = offset + length
    if end > len(data):
        raise FrameError("truncated byte string in payload")
    return data[offset:end], end


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
#: One write-batch op: (kind, key, value) with the WAL's KIND_* codes.
BatchOp = Tuple[int, bytes, bytes]

_FLAG_SNAPSHOT = 0x01
_FLAG_HAS_HI = 0x02

_GET, _PUT, _RESPONSE = (bytes((op,)) for op in (Op.GET, Op.PUT, Op.RESPONSE))
#: Statuses whose reply has a body (the others carry a message).
_SUCCESS = (Status.OK, Status.NOT_FOUND)
#: ``[status][flags]``: the status byte and the found/applied flags byte.
_HEADS = [[bytes((status, flags)) for flags in range(4)] for status in _SUCCESS]
#: A body's fields after the value when all are empty: no pairs, snapshot,
#: client id, shard count, boundaries (no routes add no bytes).
_ZERO_TAIL = bytes(5)


@dataclass(slots=True)
class Request:
    """One decoded request; unused fields stay at their defaults."""

    op: int
    request_id: int = 0
    shard: int = 0
    key: bytes = b""
    value: bytes = b""
    ops: List[BatchOp] = field(default_factory=list)
    lo: bytes = b""
    hi: Optional[bytes] = None
    limit: int = 0
    snapshot: Optional[int] = None
    name: str = ""
    client_id: int = 0
    #: Caller's trace context (``trace_id/span_id``); "" when tracing is
    #: off — then nothing extra goes on the wire.
    trace: str = ""

    def encode(self) -> bytes:
        """Serialize to a frame payload (without the frame header).  A GET
        without snapshot or trace and a PUT without trace are one join of
        exactly :meth:`_encode_general`'s bytes."""
        op, key = self.op, self.key
        if self.trace or not (op == Op.PUT or op == Op.GET and self.snapshot is None):
            return self._encode_general()
        rid, shard = encode_varint64(self.request_id), encode_varint32(self.shard)
        body = (encode_varint32(len(key)), key)
        if op == Op.GET:
            return b"".join((_GET, rid, shard, b"\x00", *body))
        value = self.value
        return b"".join((_PUT, rid, shard, *body, encode_varint32(len(value)), value))

    def _encode_general(self) -> bytes:
        """Every op with every optional field (the reference encoding)."""
        op = self.op
        buf = bytearray([op])
        buf += encode_varint64(self.request_id)
        buf += encode_varint32(self.shard)
        if op == Op.HELLO:
            buf += encode_varint64(self.client_id)
        elif op == Op.GET:
            flags = _FLAG_SNAPSHOT if self.snapshot is not None else 0
            buf.append(flags)
            _put_bytes(buf, self.key)
            if self.snapshot is not None:
                buf += encode_varint64(self.snapshot)
        elif op == Op.PUT:
            _put_bytes(buf, self.key)
            _put_bytes(buf, self.value)
        elif op == Op.DELETE:
            _put_bytes(buf, self.key)
        elif op == Op.BATCH:
            buf += encode_varint32(len(self.ops))
            for kind, key, value in self.ops:
                buf.append(kind)
                _put_bytes(buf, key)
                _put_bytes(buf, value)
        elif op == Op.SCAN:
            flags = 0
            if self.snapshot is not None:
                flags |= _FLAG_SNAPSHOT
            if self.hi is not None:
                flags |= _FLAG_HAS_HI
            buf.append(flags)
            _put_bytes(buf, self.lo)
            if self.hi is not None:
                _put_bytes(buf, self.hi)
            buf += encode_varint32(self.limit)
            if self.snapshot is not None:
                buf += encode_varint64(self.snapshot)
        elif op == Op.SNAPSHOT:
            pass
        elif op == Op.RELEASE:
            buf += encode_varint64(self.snapshot if self.snapshot is not None else 0)
        elif op == Op.PROPERTY:
            _put_bytes(buf, self.name.encode("utf-8"))
        elif op == Op.METRICS:
            pass
        elif op == Op.ADMIN:
            _put_bytes(buf, self.name.encode("utf-8"))
        else:
            raise FrameError(f"cannot encode unknown op {op}")
        if self.trace:
            _put_bytes(buf, self.trace.encode("utf-8"))
        return bytes(buf)


@dataclass(slots=True)
class Response:
    """One decoded response; body fields depend on the request's op."""

    request_id: int = 0
    status: int = Status.OK
    #: GET: the value; PROPERTY: the property text (utf-8).
    value: bytes = b""
    #: GET / PROPERTY: whether the key / property exists.
    found: bool = False
    #: Writes: False when the server recognised a retried duplicate and
    #: skipped re-applying it.
    applied: bool = True
    #: SCAN: the pairs.
    pairs: List[Tuple[bytes, bytes]] = field(default_factory=list)
    #: SNAPSHOT: the token.
    snapshot: int = 0
    #: Error statuses: human-readable message.
    message: str = ""
    #: HELLO: assigned client id, shard count, and router boundaries.
    client_id: int = 0
    shard_count: int = 0
    boundaries: List[bytes] = field(default_factory=list)
    #: HELLO from a process-mode parent: one route per shard (on the wire
    #: only when non-empty, so every other reply keeps its bytes).
    routes: List[Route] = field(default_factory=list)
    #: OVERLOADED: server's suggested minimum backoff before retrying,
    #: in seconds (microsecond wire granularity).
    retry_after: float = 0.0

    def encode(self) -> bytes:
        """Serialize to a frame payload.  An OK/NOT_FOUND reply with only a
        value and flags (a GET's answer, a write's acknowledgement) is one
        join of exactly :meth:`_encode_general`'s bytes."""
        status = self.status
        if status not in _SUCCESS or (
            self.pairs or self.snapshot or self.client_id or self.shard_count
            or self.boundaries or self.routes
        ):
            return self._encode_general()
        flags = (1 if self.found else 0) | (2 if self.applied else 0)
        rid, value = encode_varint64(self.request_id), self.value
        head = (_RESPONSE, rid, _HEADS[status][flags], encode_varint32(len(value)))
        return b"".join((*head, value, _ZERO_TAIL))

    def _encode_general(self) -> bytes:
        """Every status with every field (the reference encoding)."""
        buf = bytearray([Op.RESPONSE])
        buf += encode_varint64(self.request_id)
        buf.append(self.status)
        if self.status not in _SUCCESS:
            _put_bytes(buf, self.message.encode("utf-8"))
            if self.status == Status.OVERLOADED:
                buf += encode_varint64(int(round(self.retry_after * 1e6)))
            return bytes(buf)
        flags = (0x01 if self.found else 0) | (0x02 if self.applied else 0)
        buf.append(flags)
        _put_bytes(buf, self.value)
        buf += encode_varint32(len(self.pairs))
        for key, value in self.pairs:
            _put_bytes(buf, key)
            _put_bytes(buf, value)
        buf += encode_varint64(self.snapshot)
        buf += encode_varint64(self.client_id)
        buf += encode_varint32(self.shard_count)
        buf += encode_varint32(len(self.boundaries))
        for boundary in self.boundaries:
            _put_bytes(buf, boundary)
        if self.routes:
            buf += encode_varint32(len(self.routes))
            for state, host, port in self.routes:
                _put_bytes(buf, state.encode("utf-8"))
                _put_bytes(buf, host.encode("utf-8"))
                buf += encode_varint32(port)
        return bytes(buf)


# ----------------------------------------------------------------------
# Replication (ship-log) records — process serving mode durability
# ----------------------------------------------------------------------
#: A shipped group commit: the dedup-filtered ops plus the fresh
#: (client_id, request_id) pairs the commit acknowledged.
SHIP_COMMIT = 1
#: A compact snapshot: the shard's full logical state (sorted pairs)
#: plus the dedup table, superseding every earlier record.
SHIP_SNAPSHOT = 2

#: One dedup-table entry: (client_id, max_request_id, sorted request ids).
DedupEntry = Tuple[int, int, List[int]]


@dataclass
class ShipRecord:
    """One decoded replication record from a worker's ship stream.

    ``seq`` is the worker's commit ordinal (1-based, monotonic): replay
    applies commit records in ``seq`` order on top of the newest
    snapshot, reproducing the exact ``write_batch`` sequence — and hence
    byte-identical engine state when no snapshot truncated the history.
    """

    kind: int
    seq: int
    #: SHIP_COMMIT: fresh (client_id, request_id) pairs this commit acked.
    ids: List[Tuple[int, int]] = field(default_factory=list)
    #: SHIP_COMMIT: the combined (dedup-filtered) batch ops.
    ops: List[BatchOp] = field(default_factory=list)
    #: SHIP_SNAPSHOT: the shard's full logical state.
    pairs: List[Tuple[bytes, bytes]] = field(default_factory=list)
    #: SHIP_SNAPSHOT: the dedup table (exactly-once across restarts).
    dedup: List[DedupEntry] = field(default_factory=list)


def encode_ship_commit(
    seq: int, ids: List[Tuple[int, int]], ops: List[BatchOp]
) -> bytes:
    buf = bytearray([SHIP_COMMIT])
    buf += encode_varint64(seq)
    buf += encode_varint32(len(ids))
    for client_id, request_id in ids:
        buf += encode_varint64(client_id)
        buf += encode_varint64(request_id)
    buf += encode_varint32(len(ops))
    for kind, key, value in ops:
        buf.append(kind)
        _put_bytes(buf, key)
        _put_bytes(buf, value)
    return bytes(buf)


def encode_ship_snapshot(
    seq: int, pairs: List[Tuple[bytes, bytes]], dedup: List[DedupEntry]
) -> bytes:
    buf = bytearray([SHIP_SNAPSHOT])
    buf += encode_varint64(seq)
    buf += encode_varint32(len(pairs))
    for key, value in pairs:
        _put_bytes(buf, key)
        _put_bytes(buf, value)
    buf += encode_varint32(len(dedup))
    for client_id, max_id, ids in dedup:
        buf += encode_varint64(client_id)
        buf += encode_varint64(max_id + 1)  # max_id may be -1 (no writes yet)
        buf += encode_varint32(len(ids))
        for request_id in ids:
            buf += encode_varint64(request_id)
    return bytes(buf)


def decode_ship_record(data: bytes) -> ShipRecord:
    """Parse one replication record; raises :class:`FrameError` on damage."""
    try:
        kind = data[0]
        seq, offset = decode_varint64(data, 1)
        record = ShipRecord(kind=kind, seq=seq)
        if kind == SHIP_COMMIT:
            count, offset = decode_varint32(data, offset)
            for _ in range(count):
                (client_id, request_id), offset = decode_varint_run(
                    data, offset, 2
                )
                record.ids.append((client_id, request_id))
            count, offset = decode_varint32(data, offset)
            for _ in range(count):
                op_kind = data[offset]
                offset += 1
                key, offset = _get_bytes(data, offset)
                value, offset = _get_bytes(data, offset)
                record.ops.append((op_kind, key, value))
        elif kind == SHIP_SNAPSHOT:
            count, offset = decode_varint32(data, offset)
            for _ in range(count):
                key, offset = _get_bytes(data, offset)
                value, offset = _get_bytes(data, offset)
                record.pairs.append((key, value))
            count, offset = decode_varint32(data, offset)
            for _ in range(count):
                client_id, offset = decode_varint64(data, offset)
                max_plus_one, offset = decode_varint64(data, offset)
                nids, offset = decode_varint32(data, offset)
                ids, offset = (
                    decode_varint_run(data, offset, nids) if nids else ((), offset)
                )
                record.dedup.append((client_id, max_plus_one - 1, list(ids)))
        else:
            raise FrameError(f"unknown ship record kind {kind}")
        return record
    except FrameError:
        raise
    except Exception as exc:  # truncated varints etc. → framing error
        raise FrameError(f"malformed ship record: {exc}") from exc


def decode_payload(payload: bytes) -> Union[Request, Response]:
    """Parse one frame payload into a :class:`Request` or :class:`Response`.

    The shapes the encoders join in one go are parsed in line when the
    payload ends exactly where the shape does; anything else — a trace, a
    snapshot, a longer reply, damage — is :func:`_decode_general`'s.
    """
    try:
        op = payload[0]
        rid, offset = decode_varint64(payload, 1)
        end = len(payload)
        if op == Op.RESPONSE:
            status, flags = payload[offset], payload[offset + 1]
            length, at = decode_varint32(payload, offset + 2)
            if status in _SUCCESS and payload[at + length :] == _ZERO_TAIL:
                found, applied = bool(flags & 1), bool(flags & 2)
                return Response(rid, status, payload[at : at + length], found, applied)
        elif op == Op.GET:
            shard, offset = decode_varint32(payload, offset)
            length, key_at = decode_varint32(payload, offset + 1)
            if payload[offset] == 0 and key_at + length == end:
                return Request(op, rid, shard, payload[key_at:])
        elif op == Op.PUT:
            shard, offset = decode_varint32(payload, offset)
            klen, key_at = decode_varint32(payload, offset)
            vlen, value_at = decode_varint32(payload, key_at + klen)
            if value_at + vlen == end:
                key = payload[key_at : key_at + klen]
                return Request(op, rid, shard, key, payload[value_at:])
    except (IndexError, CorruptionError):
        pass  # damaged: the general decoder says how
    return _decode_general(payload)


def _decode_general(payload: bytes) -> Union[Request, Response]:
    """Every op and status with every optional field (the reference decoding)."""
    if not payload:
        raise FrameError("empty payload")
    op = payload[0]
    try:
        request_id, offset = decode_varint64(payload, 1)
        if op == Op.RESPONSE:
            return _decode_response(payload, request_id, offset)
        if op not in _OPS:
            raise FrameError(f"unknown op code {op}")
        return _decode_request(op, payload, request_id, offset)
    except FrameError:
        raise
    except Exception as exc:  # truncated varints etc. → framing error
        raise FrameError(f"malformed payload: {exc}") from exc


def _decode_request(op: int, data: bytes, request_id: int, offset: int) -> Request:
    shard, offset = decode_varint32(data, offset)
    req = Request(op=op, request_id=request_id, shard=shard)
    if op == Op.HELLO:
        req.client_id, offset = decode_varint64(data, offset)
    elif op == Op.GET:
        flags = data[offset]
        offset += 1
        req.key, offset = _get_bytes(data, offset)
        if flags & _FLAG_SNAPSHOT:
            req.snapshot, offset = decode_varint64(data, offset)
    elif op == Op.PUT:
        req.key, offset = _get_bytes(data, offset)
        req.value, offset = _get_bytes(data, offset)
    elif op == Op.DELETE:
        req.key, offset = _get_bytes(data, offset)
    elif op == Op.BATCH:
        count, offset = decode_varint32(data, offset)
        for _ in range(count):
            kind = data[offset]
            offset += 1
            key, offset = _get_bytes(data, offset)
            value, offset = _get_bytes(data, offset)
            req.ops.append((kind, key, value))
    elif op == Op.SCAN:
        flags = data[offset]
        offset += 1
        req.lo, offset = _get_bytes(data, offset)
        if flags & _FLAG_HAS_HI:
            req.hi, offset = _get_bytes(data, offset)
        req.limit, offset = decode_varint32(data, offset)
        if flags & _FLAG_SNAPSHOT:
            req.snapshot, offset = decode_varint64(data, offset)
    elif op == Op.RELEASE:
        req.snapshot, offset = decode_varint64(data, offset)
    elif op in (Op.PROPERTY, Op.ADMIN):
        name, offset = _get_bytes(data, offset)
        req.name = name.decode("utf-8")
    if offset < len(data):
        trace, offset = _get_bytes(data, offset)
        req.trace = trace.decode("utf-8")
    return req


def _decode_response(data: bytes, request_id: int, offset: int) -> Response:
    status = data[offset]
    offset += 1
    resp = Response(request_id=request_id, status=status)
    if status not in _SUCCESS:
        message, offset = _get_bytes(data, offset)
        resp.message = message.decode("utf-8", errors="replace")
        if status == Status.OVERLOADED:
            micros, offset = decode_varint64(data, offset)
            resp.retry_after = micros / 1e6
        return resp
    flags = data[offset]
    offset += 1
    resp.found = bool(flags & 0x01)
    resp.applied = bool(flags & 0x02)
    resp.value, offset = _get_bytes(data, offset)
    count, offset = decode_varint32(data, offset)
    for _ in range(count):
        key, offset = _get_bytes(data, offset)
        value, offset = _get_bytes(data, offset)
        resp.pairs.append((key, value))
    # Adjacent varint64 pair: one batched decode instead of two calls.
    (resp.snapshot, resp.client_id), offset = decode_varint_run(data, offset, 2)
    resp.shard_count, offset = decode_varint32(data, offset)
    count, offset = decode_varint32(data, offset)
    for _ in range(count):
        boundary, offset = _get_bytes(data, offset)
        resp.boundaries.append(boundary)
    if offset < len(data):
        count, offset = decode_varint32(data, offset)
        for _ in range(count):
            state, offset = _get_bytes(data, offset)
            host, offset = _get_bytes(data, offset)
            port, offset = decode_varint32(data, offset)
            resp.routes.append(
                Route(state.decode("utf-8"), host.decode("utf-8"), port)
            )
    return resp
