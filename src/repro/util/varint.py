"""Unsigned varint encoding, wire-compatible with LevelDB/protobuf.

Each byte carries 7 payload bits; the high bit marks continuation.  Varints
keep small lengths (the common case for key/value sizes) to one byte, which
is what makes the sstable block format compact.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import CorruptionError

_MAX_U32 = (1 << 32) - 1
_MAX_U64 = (1 << 64) - 1


#: The one-byte encodings: lengths and small ids, i.e. most varints written.
_ONE_BYTE = [bytes((value,)) for value in range(0x80)]


def encode_varint32(value: int) -> bytes:
    """Encode ``value`` (0 <= value < 2**32) as a varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if 0x80 <= value < 0x4000:  # every 1 KiB value length lands here
        return bytes((value & 0x7F | 0x80, value >> 7))
    if not 0 <= value <= _MAX_U32:
        raise ValueError(f"varint32 out of range: {value}")
    return _encode(value)


def encode_varint64(value: int) -> bytes:
    """Encode ``value`` (0 <= value < 2**64) as a varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if 0x80 <= value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    if not 0 <= value <= _MAX_U64:
        raise ValueError(f"varint64 out of range: {value}")
    return _encode(value)


def _encode(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint32(buf: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint32 from ``buf`` at ``offset``.

    Returns ``(value, new_offset)``.  Raises :class:`CorruptionError` on a
    truncated or overlong encoding.
    """
    value, offset = _decode(buf, offset, max_bytes=5)
    if value > _MAX_U32:
        raise CorruptionError("varint32 overflow")
    return value, offset


def decode_varint64(buf: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint64 from ``buf`` at ``offset``; see decode_varint32."""
    return _decode(buf, offset, max_bytes=10)


def decode_varint_run(buf, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` consecutive varint64s starting at ``offset``.

    The batched form of :func:`decode_varint64`: one call decodes a *run*
    of adjacent varints (index-block entries, frame headers) without the
    per-value function-call overhead of the scalar decoders.  The single-
    byte case — by far the most common for lengths and small ids — is
    inlined.  Accepts ``bytes`` or ``memoryview``.

    Returns ``(values, new_offset)``.  Raises :class:`CorruptionError` on
    truncation or an overlong (> 10 byte) encoding, exactly where the
    scalar decoder would: values decoded before the damage are discarded.
    """
    if count < 0:
        raise ValueError(f"varint run count must be >= 0: {count}")
    values: List[int] = []
    append = values.append
    end = len(buf)
    for _ in range(count):
        if offset >= end:
            raise CorruptionError("truncated varint")
        byte = buf[offset]
        if byte < 0x80:  # single-byte fast path
            append(byte)
            offset += 1
            continue
        result = byte & 0x7F
        shift = 7
        offset += 1
        while True:
            if shift >= 70:
                raise CorruptionError("varint too long")
            if offset >= end:
                raise CorruptionError("truncated varint")
            byte = buf[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        append(result)
    return values, offset


def _decode(buf: bytes, offset: int, max_bytes: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    for i in range(max_bytes):
        pos = offset + i
        if pos >= len(buf):
            raise CorruptionError("truncated varint")
        byte = buf[pos]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos + 1
        shift += 7
    raise CorruptionError("varint too long")
