"""Binary layout of an sstable.

::

    [data block 0] [data block 1] ... [filter block] [index block] [footer]

*Data block* — records ``varint32 klen | packed internal key | varint32
vlen | value``, each block covering ~4 KiB of payload and carrying a
4-byte masked CRC trailer, so a flipped bit inside a block is detected at
read time rather than returned as data.

*Filter block* — one encoded :class:`repro.bloom.BloomFilter` over the
table's user keys (sstable-level filters, paper section 4.1).

*Index block* — per data block: packed *last* internal key, offset, size.
Finding a key costs one binary search here plus one data-block read.

*Footer* — fixed-size trailer locating index and filter, with a magic
number and a CRC over the header fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.errors import CorruptionError
from repro.util.crc import crc32c, mask_crc, unmask_crc
from repro.util.keys import (
    KIND_VPTR,
    InternalKey,
    pack_internal_key,
    unpack_internal_key,
)
from repro.util.varint import (
    decode_varint32,
    decode_varint_run,
    encode_varint32,
    encode_varint64,
)

#: Target uncompressed payload per data block.
DEFAULT_BLOCK_SIZE = 4096

#: ``(key, value)``, or ``(key, value, record)`` out of a block decoded
#: with ``records`` (see :func:`decode_block_with_keys`).  Whoever passes
#: an entry on unchanged passes on the same tuple; whoever changes the
#: value makes a new ``(key, value)``, so a record never outlives the
#: value it encodes.
Entry = Union[Tuple[InternalKey, bytes], Tuple[InternalKey, bytes, memoryview]]

_MAGIC = 0x50454242_4C455342  # "PEBBLESB"
FOOTER_SIZE = 8 * 5 + 8 + 4  # five u64 fields + magic + masked crc


def encode_entry(key: InternalKey, value: bytes) -> bytes:
    """One data-block record: ``varint32 klen | packed key | varint32 vlen | value``.

    The only place the record framing is written down.  Both length
    varints come out in minimal form, which is what lets a block decode
    hand an unchanged record back to a builder (see
    :func:`decode_block_with_keys`).
    """
    packed = pack_internal_key(key)
    return b"".join(
        (encode_varint32(len(packed)), packed, encode_varint32(len(value)), value)
    )


class BlockBuilder:
    """Accumulates records for one data block (the payload
    :func:`seal_block` checksums); ``SSTableBuilder`` keeps its own buffer
    and shares only :func:`encode_entry` with this."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def add(self, key: InternalKey, value: bytes) -> None:
        self._buf += encode_entry(key, value)

    def finish(self) -> bytes:
        return bytes(self._buf)


BLOCK_TRAILER_SIZE = 4


def block_trailer(payload: bytes) -> bytes:
    """The masked CRC that follows a data block's payload."""
    return mask_crc(crc32c(payload)).to_bytes(BLOCK_TRAILER_SIZE, "little")


def seal_block(payload: bytes) -> bytes:
    """Append the masked CRC trailer to a data block's payload."""
    return payload + block_trailer(payload)


def decode_block(
    data: bytes, zero_copy: bool = False, records: bool = False
) -> List[Entry]:
    """Verify and parse one data block into entries, without a key array."""
    return decode_block_with_keys(data, zero_copy, records, with_keys=False)[0]


def decode_block_with_keys(
    data: bytes,
    zero_copy: bool = False,
    records: bool = False,
    with_keys: bool = True,
) -> Tuple[List[Entry], Optional[List[InternalKey]]]:
    """Verify and parse one data block, returning entries and key array.

    The key array (``[key for key, _ in entries]``, None unless
    ``with_keys``) is what the decoded-block cache stores alongside the
    entries so point lookups bisect without rebuilding it per probe.

    With ``zero_copy`` the values are returned as read-only
    :class:`memoryview` slices into ``data`` instead of per-entry
    ``bytes`` copies — callers materialize (``bytes(value)``) only the
    value they actually hand out.  User keys are always materialized:
    they participate in orderings (bisect, merge heaps) that memoryviews
    do not support against ``bytes``.

    With ``records`` an entry is ``(key, value, record)`` where ``record``
    is the memoryview slice of the checksummed payload holding that
    entry's ``klen | packed key | vlen | value`` — exactly what
    :func:`encode_entry` would write for it, so a builder may append it
    instead of framing the entry again.  That holds only when both length
    varints are in minimal form (the only form this writer emits); an
    entry framed any other way comes back as a plain ``(key, value)`` and
    is re-encoded like any entry without a record.

    Every mode raises identical :class:`CorruptionError`\\ s on damaged
    input; the varint and internal-key parsing is inlined because this
    loop dominates the wall-clock cost of an uncached point read and of a
    compaction's input side.
    """
    nbytes = len(data)
    if nbytes < BLOCK_TRAILER_SIZE:
        raise CorruptionError("data block shorter than its checksum")
    view = memoryview(data)
    end = nbytes - BLOCK_TRAILER_SIZE
    payload = view[:end]
    if crc32c(payload) != unmask_crc(int.from_bytes(view[end:], "little")):
        raise CorruptionError("data block checksum mismatch")
    out: List[Entry] = []
    entry_append = out.append
    from_bytes = int.from_bytes
    offset = 0
    while offset < end:
        # Where this entry's record starts; -1 once a length varint turns
        # out not to be in minimal form.
        start = offset
        # Inlined varint32 (klen): one byte, or two in minimal form.  The
        # byte after ``offset`` always exists: the trailer follows.
        byte = data[offset]
        if byte < 0x80:
            klen = byte
            offset += 1
        else:
            second = data[offset + 1]
            if 0 < second < 0x80:
                klen = (byte & 0x7F) | (second << 7)
                offset += 2
            else:
                klen, offset = decode_varint32(data, offset)
                if not data[offset - 1]:
                    start = -1
        key_end = offset + klen
        if key_end > end:
            raise CorruptionError("data block key overruns block")
        # Inlined unpack_internal_key: user key + 8-byte (seq, kind) trailer.
        if klen < 8:
            raise CorruptionError("internal key shorter than trailer")
        trailer = from_bytes(view[key_end - 8 : key_end], "little")
        kind = trailer & 0xFF
        if kind > KIND_VPTR:  # kinds are 0 (delete), 1 (put), 2 (vlog pointer)
            raise CorruptionError(f"bad internal key kind: {kind}")
        key = InternalKey(bytes(view[offset : key_end - 8]), trailer >> 8, kind)
        offset = key_end
        # Inlined varint32 (vlen); a key ending the payload has none, and
        # the general decoder says so.
        byte = data[offset] if offset < end else 0x80
        if byte < 0x80:
            vlen = byte
            offset += 1
        else:
            second = data[offset + 1] if offset < end else 0
            if 0 < second < 0x80:
                vlen = (byte & 0x7F) | (second << 7)
                offset += 2
            else:
                vlen, offset = decode_varint32(data, offset)
                if not data[offset - 1]:
                    start = -1
        value_end = offset + vlen
        if value_end > end:
            raise CorruptionError("data block value overruns block")
        value = payload[offset:value_end] if zero_copy else bytes(view[offset:value_end])
        if records and start >= 0:
            entry_append((key, value, payload[start:value_end]))
        else:
            entry_append((key, value))
        offset = value_end
    return out, [entry[0] for entry in out] if with_keys else None


@dataclass(frozen=True)
class ValuePointer:
    """Locates one value inside the value log.

    ``record_length`` is the full framed record length (header + key +
    value), so resolution is a single contiguous storage read;
    ``value_length`` lets sizing decisions (cache accounting, stats)
    avoid that read entirely.
    """

    segment: int
    offset: int
    record_length: int
    value_length: int

    def encode(self) -> bytes:
        return (
            encode_varint64(self.segment)
            + encode_varint64(self.offset)
            + encode_varint64(self.record_length)
            + encode_varint64(self.value_length)
        )

    @classmethod
    def decode(cls, data: bytes) -> "ValuePointer":
        try:
            (segment, offset, record_length, value_length), end = decode_varint_run(
                bytes(data), 0, 4
            )
        except (IndexError, ValueError) as exc:
            raise CorruptionError(f"truncated value pointer: {exc}") from exc
        if end != len(data):
            raise CorruptionError("trailing bytes after value pointer")
        return cls(segment, offset, record_length, value_length)


@dataclass
class IndexEntry:
    """Locates one data block: its last key, byte offset, and size."""

    last_key: InternalKey
    offset: int
    size: int


def encode_index(entries: List[IndexEntry]) -> bytes:
    buf = bytearray()
    for entry in entries:
        packed = pack_internal_key(entry.last_key)
        buf += encode_varint32(len(packed))
        buf += packed
        buf += encode_varint64(entry.offset)
        buf += encode_varint64(entry.size)
    return bytes(buf)


def decode_index(data: bytes) -> List[IndexEntry]:
    out: List[IndexEntry] = []
    offset = 0
    end = len(data)
    while offset < end:
        klen = data[offset]
        if klen < 0x80:  # the usual one-byte length
            offset += 1
        else:
            klen, offset = decode_varint32(data, offset)
        if offset + klen > end:
            raise CorruptionError("index entry key overruns block")
        key = unpack_internal_key(data[offset : offset + klen])
        offset += klen
        (blk_offset, blk_size), offset = decode_varint_run(data, offset, 2)
        out.append(IndexEntry(key, blk_offset, blk_size))
    return out


@dataclass
class Footer:
    """Fixed-size trailer locating the index and filter blocks."""

    index_offset: int
    index_size: int
    filter_offset: int
    filter_size: int
    num_entries: int

    def encode(self) -> bytes:
        fields = (
            self.index_offset.to_bytes(8, "little")
            + self.index_size.to_bytes(8, "little")
            + self.filter_offset.to_bytes(8, "little")
            + self.filter_size.to_bytes(8, "little")
            + self.num_entries.to_bytes(8, "little")
            + _MAGIC.to_bytes(8, "little")
        )
        crc = mask_crc(crc32c(fields))
        return fields + crc.to_bytes(4, "little")

    @classmethod
    def decode(cls, data: bytes) -> "Footer":
        if len(data) != FOOTER_SIZE:
            raise CorruptionError(f"footer wrong size: {len(data)}")
        fields, crc_bytes = data[:-4], data[-4:]
        stored = unmask_crc(int.from_bytes(crc_bytes, "little"))
        if crc32c(fields) != stored:
            raise CorruptionError("footer checksum mismatch")
        magic = int.from_bytes(fields[40:48], "little")
        if magic != _MAGIC:
            raise CorruptionError(f"bad sstable magic: {magic:#x}")
        return cls(
            index_offset=int.from_bytes(fields[0:8], "little"),
            index_size=int.from_bytes(fields[8:16], "little"),
            filter_offset=int.from_bytes(fields[16:24], "little"),
            filter_size=int.from_bytes(fields[24:32], "little"),
            num_entries=int.from_bytes(fields[32:40], "little"),
        )
