"""Constructs an sstable from an ordered entry stream."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.bloom import BloomFilter
from repro.errors import InvalidArgumentError
from repro.sstable.format import (
    DEFAULT_BLOCK_SIZE,
    BlockBuilder,
    Footer,
    IndexEntry,
    encode_index,
    seal_block,
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


class SSTableBuilder:
    """Feed internal-key-ordered entries; ``finish`` yields file bytes.

    Entries must arrive in strictly increasing internal-key order — the
    invariant every sstable relies on for binary search.
    """

    def __init__(
        self, block_size: int = DEFAULT_BLOCK_SIZE, bloom_bits_per_key: int = 10
    ) -> None:
        self._block_size = block_size
        self._bloom_bits = bloom_bits_per_key
        self._block = BlockBuilder()
        self._blob = bytearray()
        self._index: List[IndexEntry] = []
        self._user_keys: List[bytes] = []
        self._smallest: Optional[InternalKey] = None
        self._largest: Optional[InternalKey] = None
        self._num_entries = 0
        self._raw_key_bytes = 0
        self._raw_value_bytes = 0

    # ------------------------------------------------------------------
    def add(self, key: InternalKey, value: bytes) -> None:
        if self._largest is not None and not (self._largest.sort_key < key.sort_key):
            raise InvalidArgumentError(
                f"sstable entries out of order: {self._largest!r} then {key!r}"
            )
        if self._smallest is None:
            self._smallest = key
        self._largest = key
        self._block.add(key, value)
        self._user_keys.append(key.user_key)
        self._num_entries += 1
        self._raw_key_bytes += len(key.user_key)
        self._raw_value_bytes += len(value)
        if self._block.size_bytes >= self._block_size:
            self._flush_block()

    def add_all(self, entries: Iterable[Tuple[InternalKey, bytes]]) -> None:
        for key, value in entries:
            self.add(key, value)

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def estimated_size(self) -> int:
        return len(self._blob) + self._block.size_bytes

    # ------------------------------------------------------------------
    def _flush_block(self) -> None:
        if self._block.count == 0:
            return
        data = seal_block(self._block.finish())
        self._index.append(IndexEntry(self._block.last_key, len(self._blob), len(data)))
        self._blob += data
        self._block.reset()

    def finish(self) -> Tuple[bytes, TableProperties, BloomFilter]:
        """Returns ``(file bytes, properties, bloom filter)``."""
        if self._num_entries == 0:
            raise InvalidArgumentError("cannot build an empty sstable")
        self._flush_block()
        bloom = BloomFilter.for_keys(self._user_keys, self._bloom_bits)
        filter_block = bloom.encode()
        filter_offset = len(self._blob)
        self._blob += filter_block
        index_block = encode_index(self._index)
        index_offset = len(self._blob)
        self._blob += index_block
        footer = Footer(
            index_offset=index_offset,
            index_size=len(index_block),
            filter_offset=filter_offset,
            filter_size=len(filter_block),
            num_entries=self._num_entries,
        )
        self._blob += footer.encode()
        assert self._smallest is not None and self._largest is not None
        props = TableProperties(
            smallest=self._smallest,
            largest=self._largest,
            num_entries=self._num_entries,
            file_size=len(self._blob),
            raw_key_bytes=self._raw_key_bytes,
            raw_value_bytes=self._raw_value_bytes,
        )
        return bytes(self._blob), props, bloom
