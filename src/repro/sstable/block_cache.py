"""Host-side cache of decoded sstable data blocks.

Every point read and seek used to call :func:`repro.sstable.format.
decode_block` on raw bytes and rebuild a per-block key list before
bisecting, so the pure-Python reproduction spent most of its wall-clock
re-parsing blocks it had already parsed.  :class:`DecodedBlockCache`
memoizes the *parsed* form — the ``(InternalKey, value)`` list plus its
pre-extracted key array — keyed by ``(file_number, block_offset)``.  It
holds data blocks only: a table's parsed footer and index belong to its
reader, which the engine keeps for as long as the file is live
(:mod:`repro.sstable.reader`).

The cache is **invisible to the simulation**: a hit still charges the
exact device time, page-cache accounting, and IO statistics the raw read
would have (via :meth:`repro.sim.storage.SimulatedStorage.charge_read`);
only the host-side CRC check, varint parsing, and key-list construction
are skipped.  Simulated metrics — device seconds, IO byte counts,
page-cache hit rates — are byte-identical with the cache on or off.
Compaction scans (``cache_insert=False``) bypass it entirely, mirroring
how they bypass page-cache insertion.

The byte budget bounds what the cache keeps *resident*, counted as each
block's raw size plus a per-entry overhead; it is not a count of what
the cache allocates.  A decoded block's values are views into the
sstable's own bytes (``SimulatedStorage.read(..., view=True)``), which
storage holds anyway, so the raw part of a block's charge is memory the
cache pins rather than memory it adds — and keeps pinned, whole file
included, until the block is evicted or its file dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.util.keys import InternalKey

Entry = Tuple[InternalKey, bytes]

#: Rough per-entry host-memory overhead (tuple + InternalKey + key-array
#: slot) used when charging a parsed block against the byte budget.
_ENTRY_OVERHEAD = 64


def _entry_key(entry: Entry) -> InternalKey:
    return entry[0]


class DecodedBlock:
    """One parsed data block: its entries and a memoized key array."""

    __slots__ = ("entries", "nbytes", "_keys", "_sks")

    def __init__(
        self,
        entries: List[Entry],
        raw_size: int,
        keys: Optional[List[InternalKey]] = None,
    ) -> None:
        self.entries = entries
        #: Budget charge: raw payload plus parsed-object overhead.
        self.nbytes = raw_size + _ENTRY_OVERHEAD * len(entries)
        self._keys = keys
        self._sks: Optional[List[tuple]] = None

    @property
    def keys(self) -> List[InternalKey]:
        """The block's internal keys, extracted once and memoized."""
        keys = self._keys
        if keys is None:
            keys = self._keys = [entry[0] for entry in self.entries]
        return keys

    def bisect(self, probe: InternalKey) -> int:
        """Index of the first entry with key >= ``probe``.

        Cached (retained) blocks bisect a memoized sort-key tuple list —
        every comparison is a C tuple compare, no ``InternalKey.__lt__``
        frames.  A block that is not retained — cache disabled or a
        bypassing scan — bisects with ``key=`` instead of materializing
        throwaway arrays.
        """
        if self._keys is not None:
            sks = self._sks
            if sks is None:
                sks = self._sks = [key.sort_key for key in self._keys]
            return bisect_left(sks, probe.sort_key)
        return bisect_left(self.entries, probe, key=_entry_key)


@dataclass
class BlockCacheStats:
    """Hit/miss/eviction counters for one DecodedBlockCache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DecodedBlockCache:
    """Byte-budgeted LRU over parsed sstable data blocks.

    Keys are ``(file_id, block_offset)``; ``file_id`` is the engine's
    sstable file number.  Values are :class:`DecodedBlock` instances.
    ``drop_file`` (called when a compaction retires an sstable) uses a
    per-file offset index, so invalidation costs O(blocks of that file),
    not O(everything cached).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("block cache capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[Tuple[Hashable, int], DecodedBlock]" = OrderedDict()
        self._file_index: Dict[Hashable, Set[int]] = {}
        self._size = 0
        self.stats = BlockCacheStats()

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Estimated host bytes currently held."""
        return self._size

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, file_id: Hashable, offset: int) -> Optional[DecodedBlock]:
        """The cached block, freshened in LRU order; None on a miss."""
        block = self._blocks.get((file_id, offset))
        if block is None:
            self.stats.misses += 1
            return None
        self._blocks.move_to_end((file_id, offset))
        self.stats.hits += 1
        return block

    def put(self, file_id: Hashable, offset: int, block: DecodedBlock) -> None:
        """Insert a freshly parsed block, evicting LRU blocks over budget."""
        if block.nbytes > self.capacity_bytes:
            return  # would evict everything and still not fit
        key = (file_id, offset)
        old = self._blocks.pop(key, None)
        if old is not None:
            self._size -= old.nbytes
        self._blocks[key] = block
        self._size += block.nbytes
        self._file_index.setdefault(file_id, set()).add(offset)
        self.stats.insertions += 1
        while self._size > self.capacity_bytes:
            (evicted_file, evicted_offset), evicted = self._blocks.popitem(last=False)
            self._size -= evicted.nbytes
            offsets = self._file_index.get(evicted_file)
            if offsets is not None:
                offsets.discard(evicted_offset)
                if not offsets:
                    del self._file_index[evicted_file]
            self.stats.evictions += 1

    def drop_file(self, file_id: Hashable) -> None:
        """Invalidate every block of a deleted sstable."""
        offsets = self._file_index.pop(file_id, None)
        if not offsets:
            return
        for offset in offsets:
            block = self._blocks.pop((file_id, offset), None)
            if block is not None:
                self._size -= block.nbytes

    def cached_files(self) -> Set[Hashable]:
        """File ids with at least one resident block (test/diagnostic aid)."""
        return set(self._file_index)
