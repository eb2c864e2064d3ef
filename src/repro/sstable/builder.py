"""Constructs an sstable from an ordered entry stream."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bloom import BloomFilter
from repro.errors import InvalidArgumentError
from repro.sstable.format import (
    BLOCK_TRAILER_SIZE,
    DEFAULT_BLOCK_SIZE,
    Footer,
    IndexEntry,
    block_trailer,
    encode_entry,
    encode_index,
)
from repro.util.keys import InternalKey


@dataclass
class TableProperties:
    """Metadata the engine keeps per sstable (persisted in the MANIFEST)."""

    smallest: InternalKey
    largest: InternalKey
    num_entries: int
    file_size: int
    raw_key_bytes: int
    raw_value_bytes: int
    #: Highest sequence number of any entry.
    largest_seq: int


class SSTableBuilder:
    """Feed internal-key-ordered entries; ``finish`` yields file bytes.

    Entries must arrive in strictly increasing internal-key order — the
    invariant every sstable relies on for binary search.  A finished
    builder also hands over the parsed table it encoded, ``footer`` and
    ``index``: what a reader would otherwise read back and parse.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self._block_size = block_size
        #: Records of the data block being filled.
        self._buf = bytearray()
        self._blob = bytearray()
        self.index: List[IndexEntry] = []
        self.footer: Optional[Footer] = None
        self._user_keys: List[bytes] = []
        self._smallest: Optional[InternalKey] = None
        self._largest: Optional[InternalKey] = None
        self._raw_value_bytes = 0
        self._largest_seq = 0
        #: Entries appended as the encoded record they arrived with; the
        #: rest (``num_entries - records_passed``) were framed here.
        self.records_passed = 0

    # ------------------------------------------------------------------
    def add(
        self, key: InternalKey, value: bytes, record: Optional[bytes] = None
    ) -> None:
        """Append one entry.

        ``record`` is the entry's encoded form as a block decode handed it
        out (``decode_block(..., records=True)``), i.e. exactly the bytes
        :func:`encode_entry` would produce for ``key`` and ``value``; it
        is appended as is.  Without one the entry is framed here.
        """
        largest = self._largest
        if largest is None:
            self._smallest = key
        elif not (largest.sort_key < key.sort_key):
            raise InvalidArgumentError(
                f"sstable entries out of order: {largest!r} then {key!r}"
            )
        self._largest = key
        if key.sequence > self._largest_seq:
            self._largest_seq = key.sequence
        buf = self._buf
        if record is None:
            buf += encode_entry(key, value)
        else:
            buf += record
            self.records_passed += 1
        self._user_keys.append(key.user_key)
        self._raw_value_bytes += len(value)
        if len(buf) >= self._block_size:
            self._flush_block()

    @property
    def num_entries(self) -> int:
        return len(self._user_keys)

    @property
    def estimated_size(self) -> int:
        return len(self._blob) + len(self._buf)

    # ------------------------------------------------------------------
    def _flush_block(self) -> None:
        buf = self._buf
        if not buf:
            return
        blob = self._blob
        offset = len(blob)
        blob += buf
        blob += block_trailer(buf)
        assert self._largest is not None
        self.index.append(
            IndexEntry(self._largest, offset, len(buf) + BLOCK_TRAILER_SIZE)
        )
        buf.clear()

    def finish(self) -> Tuple[bytes, TableProperties, BloomFilter]:
        """Returns ``(file bytes, properties, bloom filter)``."""
        num_entries = len(self._user_keys)
        if num_entries == 0:
            raise InvalidArgumentError("cannot build an empty sstable")
        self._flush_block()
        bloom = BloomFilter.for_keys(self._user_keys)
        filter_block = bloom.encode()
        filter_offset = len(self._blob)
        self._blob += filter_block
        index_block = encode_index(self.index)
        index_offset = len(self._blob)
        self._blob += index_block
        footer = Footer(
            index_offset=index_offset,
            index_size=len(index_block),
            filter_offset=filter_offset,
            filter_size=len(filter_block),
            num_entries=num_entries,
        )
        self._blob += footer.encode()
        self.footer = footer
        assert self._smallest is not None and self._largest is not None
        props = TableProperties(
            smallest=self._smallest,
            largest=self._largest,
            num_entries=num_entries,
            file_size=len(self._blob),
            raw_key_bytes=sum(map(len, self._user_keys)),
            raw_value_bytes=self._raw_value_bytes,
            largest_seq=self._largest_seq,
        )
        return bytes(self._blob), props, bloom
