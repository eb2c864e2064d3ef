"""Record-framed log writer/reader plus the write-batch codec.

Framing (per LevelDB): 32 KiB blocks; each physical record is
``masked_crc(4) | length(2) | type(1) | payload``.  A logical record that
does not fit the current block is split FIRST/MIDDLE/.../LAST; a block tail
smaller than a header is zero-padded.  Readers stop at the first corrupt or
truncated record — exactly the durability boundary a crash leaves.

A *write batch* (one logical record) is ``sequence(8) | count(4)`` followed
by ``kind(1) | varint klen | key [| varint vlen | value]`` per operation.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import CorruptionError
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.util.crc import crc32c, mask_crc, unmask_crc
from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_VPTR
from repro.util.varint import decode_varint32, encode_varint32

BLOCK_SIZE = 32 * 1024
_HEADER_SIZE = 7

_FULL = 1
_FIRST = 2
_MIDDLE = 3
_LAST = 4

#: Operations are (kind, user_key, value) triples; value is b"" for deletes.
Op = Tuple[int, bytes, bytes]


#: ``kind(1)`` of every op kind a batch may carry, ready to join.
_KIND_BYTE = {kind: bytes((kind,)) for kind in (KIND_PUT, KIND_DELETE, KIND_VPTR)}


def encode_batch(sequence: int, ops: List[Op]) -> bytes:
    """Serialize a write batch starting at ``sequence``."""
    # Joined once: no buffer grows under (then copies) a put's 1 KiB value.
    parts = [sequence.to_bytes(8, "little"), len(ops).to_bytes(4, "little")]
    for kind, key, value in ops:
        tag = _KIND_BYTE.get(kind)
        if tag is None:
            raise ValueError(f"bad op kind: {kind}")
        parts += (tag, encode_varint32(len(key)), key)
        if kind != KIND_DELETE:
            parts += (encode_varint32(len(value)), value)
    return b"".join(parts)


def decode_batch(data: bytes) -> Tuple[int, List[Op]]:
    """Inverse of :func:`encode_batch`; returns ``(sequence, ops)``."""
    if len(data) < 12:
        raise CorruptionError("write batch too short")
    sequence = int.from_bytes(data[0:8], "little")
    count = int.from_bytes(data[8:12], "little")
    ops: List[Op] = []
    offset = 12
    for _ in range(count):
        if offset >= len(data):
            raise CorruptionError("write batch truncated")
        kind = data[offset]
        offset += 1
        klen, offset = decode_varint32(data, offset)
        key = data[offset : offset + klen]
        if len(key) != klen:
            raise CorruptionError("write batch key truncated")
        offset += klen
        value = b""
        if kind in (KIND_PUT, KIND_VPTR):
            vlen, offset = decode_varint32(data, offset)
            value = data[offset : offset + vlen]
            if len(value) != vlen:
                raise CorruptionError("write batch value truncated")
            offset += vlen
        elif kind != KIND_DELETE:
            raise CorruptionError(f"bad op kind in batch: {kind}")
        ops.append((kind, key, value))
    return sequence, ops


#: Per record type, its byte and that byte's CRC for a fragment's to chain
#: off (no ``type + fragment`` copy to checksum).
_TAG = {t: (bytes((t,)), crc32c(bytes((t,)))) for t in (_FULL, _FIRST, _MIDDLE, _LAST)}


def _frame(rec_type: int, fragment: bytes) -> bytes:
    """One physical record: ``masked_crc(4) | length(2) | type(1) | fragment``."""
    tag, tag_crc = _TAG[rec_type]
    crc = mask_crc(crc32c(fragment, tag_crc))
    return b"".join(
        (crc.to_bytes(4, "little"), len(fragment).to_bytes(2, "little"), tag, fragment)
    )


class LogWriter:
    """Appends framed records to a log file."""

    def __init__(self, storage: SimulatedStorage, name: str) -> None:
        self._storage = storage
        self.name = name
        if not storage.exists(name):
            storage.create(name)
        #: The file's length after the last append that returned: a longer
        #: file holds bytes of a failed one (torn, or whole but not synced).
        self.size = storage.size(name)
        self._block_offset = self.size % BLOCK_SIZE

    def append(self, payload: bytes, account: IoAccount, *, sync: bool = False) -> None:
        """Write one logical record (fragmenting across blocks as needed).

        The block offset is committed only after the storage append
        succeeds, so a failed (or torn) append leaves the writer's view of
        the file consistent with what actually landed and a retried append
        frames its record correctly.
        """
        end = self._block_offset + _HEADER_SIZE + len(payload)
        if end <= BLOCK_SIZE:  # fits what is left of the block: one fragment
            out = _frame(_FULL, payload)
        else:
            parts, end, first = [], self._block_offset, True
            while first or payload:
                leftover = BLOCK_SIZE - end
                if leftover < _HEADER_SIZE:  # no room for a header: pad the tail
                    parts.append(b"\x00" * leftover)
                    end, leftover = 0, BLOCK_SIZE
                avail = leftover - _HEADER_SIZE
                fragment, payload = payload[:avail], payload[avail:]
                if first:
                    rec_type = _FIRST if payload else _FULL
                else:
                    rec_type = _MIDDLE if payload else _LAST
                parts.append(_frame(rec_type, fragment))
                end += _HEADER_SIZE + len(fragment)
                first = False
            out = b"".join(parts)
        self._storage.append(self.name, out, account)
        self._block_offset = end
        if sync:
            self._storage.sync(self.name, account)
        self.size += len(out)

    def sync(self, account: IoAccount) -> None:
        self._storage.sync(self.name, account)


class LogReader:
    """Replays every intact logical record of a log file."""

    def __init__(self, storage: SimulatedStorage, name: str) -> None:
        self._storage = storage
        self.name = name

    def records(self, account: IoAccount, *, strict: bool = False) -> Iterator[bytes]:
        """Yield logical records until EOF or the first corruption.

        In ``strict`` mode, a corrupt or truncated record that starts
        *below* the file's durable (synced) boundary raises
        :class:`CorruptionError` instead of silently stopping: syncs
        happen at logical record boundaries, so everything below the
        boundary was acknowledged as durable and must parse cleanly.  A
        bad record at or past the boundary is the ordinary torn tail a
        crash leaves and stops replay normally in both modes.
        """
        durable = self._storage.synced_size(self.name) if strict else 0

        def damaged(reason: str, at: int) -> bool:
            return strict and at < durable

        data = self._storage.read(
            self.name, 0, self._storage.size(self.name), account, sequential=True
        )
        offset = 0
        pending: Optional[bytearray] = None
        while offset + _HEADER_SIZE <= len(data):
            block_left = BLOCK_SIZE - offset % BLOCK_SIZE
            if block_left < _HEADER_SIZE:
                offset += block_left  # zero-padded block tail
                continue
            stored_crc = unmask_crc(int.from_bytes(data[offset : offset + 4], "little"))
            length = int.from_bytes(data[offset + 4 : offset + 6], "little")
            rec_type = data[offset + 6]
            if rec_type == 0 and length == 0:
                offset += block_left  # padding
                continue
            start = offset + _HEADER_SIZE
            end = start + length
            if end > len(data):
                if damaged("truncated record", offset):
                    raise CorruptionError(
                        f"{self.name}: record at offset {offset} truncated "
                        f"inside the synced region (0..{durable})"
                    )
                return  # torn tail
            fragment = data[start:end]
            if crc32c(bytes([rec_type]) + fragment) != stored_crc:
                if damaged("checksum mismatch", offset):
                    raise CorruptionError(
                        f"{self.name}: record at offset {offset} fails its "
                        f"checksum inside the synced region (0..{durable})"
                    )
                return  # corrupt tail: stop replay
            offset = end
            if rec_type == _FULL:
                pending = None
                yield fragment
            elif rec_type == _FIRST:
                pending = bytearray(fragment)
            elif rec_type == _MIDDLE:
                if pending is None:
                    if damaged("orphan MIDDLE fragment", start):
                        raise CorruptionError(
                            f"{self.name}: orphan record fragment at offset "
                            f"{start} inside the synced region (0..{durable})"
                        )
                    return
                pending += fragment
            elif rec_type == _LAST:
                if pending is None:
                    if damaged("orphan LAST fragment", start):
                        raise CorruptionError(
                            f"{self.name}: orphan record fragment at offset "
                            f"{start} inside the synced region (0..{durable})"
                        )
                    return
                pending += fragment
                yield bytes(pending)
                pending = None
            else:
                if damaged("unknown record type", offset):
                    raise CorruptionError(
                        f"{self.name}: unknown record type {rec_type} at "
                        f"offset {offset} inside the synced region (0..{durable})"
                    )
                return
