"""Sorted string tables (sstables).

The on-storage unit of both LSM and FLSM: an immutable file of internal-key
ordered records, laid out as ~4 KiB data blocks, one sstable-level bloom
filter (paper section 4.1), an index block mapping last-key -> block, and a
fixed footer.  Readers pay device time through the simulated storage layer
for every block they touch, so sstable count and size drive read/seek cost
exactly as in the paper.
"""

from repro.sstable.format import (
    FOOTER_SIZE,
    BlockBuilder,
    Footer,
    IndexEntry,
    decode_block,
    decode_block_with_keys,
    decode_index,
    encode_index,
)
from repro.sstable.block_cache import BlockCacheStats, DecodedBlock, DecodedBlockCache
from repro.sstable.builder import SSTableBuilder, TableProperties
from repro.sstable.reader import SSTableReader
from repro.sstable.merger import compaction_iterator, merge_entries, merging_iterator

__all__ = [
    "FOOTER_SIZE",
    "BlockBuilder",
    "BlockCacheStats",
    "DecodedBlock",
    "DecodedBlockCache",
    "Footer",
    "IndexEntry",
    "decode_block",
    "decode_block_with_keys",
    "decode_index",
    "encode_index",
    "SSTableBuilder",
    "TableProperties",
    "SSTableReader",
    "merge_entries",
    "merging_iterator",
    "compaction_iterator",
]
