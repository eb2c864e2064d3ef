"""Per-sstable metadata tracked by the version system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bloom import BloomFilter
from repro.errors import CorruptionError
from repro.util.keys import MAX_SEQUENCE, InternalKey, pack_internal_key, unpack_internal_key
from repro.util.varint import decode_varint32, decode_varint64, encode_varint32, encode_varint64


@dataclass
class FileMetadata:
    """Everything the engine needs to know about one sstable on storage.

    ``allowed_seeks`` implements LevelDB/PebblesDB seek-based compaction: it
    is decremented when a seek touches the file and a compaction of the
    file's guard/level is requested when it reaches zero (paper section
    4.2).  It is derived from file size (one seek "charge" per 16 KiB) and
    is not persisted — recovery recomputes it.

    ``largest_seq`` is the highest sequence number of any entry in the
    file (persisted).  A point read that already holds a version at least
    that new skips the file: whatever it holds for the key is older.  The
    default, for metadata built without it, bounds nothing.

    ``bloom`` is the file's filter (paper section 4.1: kept in memory for
    every sstable, so a filter's "no" costs no table open).  The engine
    sets it from the builder when it writes the file; after recovery the
    first get to consult the file reads it from the filter block.  It is
    not part of the file's identity: not compared, not persisted here.
    """

    number: int
    smallest: InternalKey
    largest: InternalKey
    file_size: int
    num_entries: int
    allowed_seeks: int = field(default=0)
    largest_seq: int = MAX_SEQUENCE
    bloom: Optional[BloomFilter] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.allowed_seeks == 0:
            self.allowed_seeks = max(100, self.file_size // (16 * 1024))

    def overlaps(self, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
        """Whether the file's user-key range intersects ``[lo, hi]``.

        ``None`` bounds are open.
        """
        if lo is not None and self.largest.user_key < lo:
            return False
        if hi is not None and self.smallest.user_key > hi:
            return False
        return True

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        smallest = pack_internal_key(self.smallest)
        largest = pack_internal_key(self.largest)
        return (
            encode_varint64(self.number)
            + encode_varint32(len(smallest))
            + smallest
            + encode_varint32(len(largest))
            + largest
            + encode_varint64(self.file_size)
            + encode_varint64(self.num_entries)
            + encode_varint64(self.largest_seq)
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "tuple[FileMetadata, int]":
        number, offset = decode_varint64(data, offset)
        slen, offset = decode_varint32(data, offset)
        if offset + slen > len(data):
            raise CorruptionError("file metadata truncated (smallest)")
        smallest = unpack_internal_key(data[offset : offset + slen])
        offset += slen
        llen, offset = decode_varint32(data, offset)
        if offset + llen > len(data):
            raise CorruptionError("file metadata truncated (largest)")
        largest = unpack_internal_key(data[offset : offset + llen])
        offset += llen
        file_size, offset = decode_varint64(data, offset)
        num_entries, offset = decode_varint64(data, offset)
        largest_seq, offset = decode_varint64(data, offset)
        meta = cls(number, smallest, largest, file_size, num_entries, largest_seq=largest_seq)
        return meta, offset
