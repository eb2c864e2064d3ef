"""Reads sstables back, paying simulated device time per block touched.

Opening a reader loads the footer and the index block (this is the "index
block caching" the paper discusses for Table 5.1 / Workload C: engines
keep a bounded table cache of open readers, so stores with many small
sstables miss that cache more often).  A standalone reader (the tools,
``load_bloom=True``) also loads the table's bloom filter and screens with
:meth:`SSTableReader.may_contain`.  An engine's readers do not
(``load_bloom=False``): its filters are resident with the file metadata
(paper section 4.1) and consulted — by that same function, applied to the
metadata — before a reader is even looked up; a recovered file's filter
is fetched once with :meth:`SSTableReader.read_filter`.

All data-block access funnels through :meth:`SSTableReader._decoded_block`,
which consults the engine's host-side :class:`DecodedBlockCache` when one
is attached.  A cache hit skips the CRC check and varint re-parse but
still charges the *identical* simulated costs (page-cache accounting,
device time, IO statistics) via ``SimulatedStorage.charge_read`` — the
cache saves wall-clock only, never simulated time.  Compaction scans
(``cache_insert=False``) bypass the decoded cache entirely, matching how
they bypass page-cache insertion.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Hashable, Iterator, List, Optional, Tuple

from repro.bloom import BloomFilter
from repro.errors import CorruptionError
from repro.memtable.memtable import GetResult
from repro.sim.cpu import CpuCosts
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable.block_cache import DecodedBlock, DecodedBlockCache
from repro.sstable.format import (
    FOOTER_SIZE,
    Entry,
    Footer,
    IndexEntry,
    decode_block,
    decode_block_with_keys,
    decode_index,
)
from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_SEEK, MAX_SEQUENCE, InternalKey

#: Sentinel "offset" under which an opened table's reader lives in the
#: decoded cache.  Real block offsets are non-negative, so it can't collide.
_META_OFFSET = -1

#: Rough per-index-entry host overhead when budgeting a cached reader.
_INDEX_ENTRY_OVERHEAD = 96


def _read_filter(
    storage: SimulatedStorage, name: str, footer: Footer, account: IoAccount
) -> Optional[BloomFilter]:
    if not footer.filter_size:
        return None
    return BloomFilter.decode(
        storage.read(name, footer.filter_offset, footer.filter_size, account)
    )


class SSTableReader:
    """Random and sequential access to one immutable sstable.

    The parsed table — footer, index, bloom — is this object and nothing
    else: a decoded cache, when attached, retains it (under
    ``_META_OFFSET``, charged ``nbytes`` against the byte budget), and
    :meth:`open` hands it back to an engine whose table cache evicted it.
    """

    def __init__(
        self,
        storage: SimulatedStorage,
        name: str,
        footer: Footer,
        index: List[IndexEntry],
        bloom: Optional[BloomFilter],
        file_size: int,
        block_cache: Optional[DecodedBlockCache] = None,
        cache_key: Optional[Hashable] = None,
        zero_copy: bool = True,
        load_bloom: bool = True,
    ) -> None:
        self._storage = storage
        self.name = name
        self._footer = footer
        self._index = index
        self._index_keys = [entry.last_key for entry in index]
        #: Sort-key tuples of ``_index_keys``: bisecting a tuple list is a
        #: pure C comparison per step (no InternalKey.__lt__ frames).
        self._index_sks = [key.sort_key for key in self._index_keys]
        self.bloom = bloom
        self._load_bloom = load_bloom
        self.file_size = file_size
        #: Weak: the cache retains this reader, and a reader that owned
        #: the cache back would close a cycle keeping every decoded block
        #: of a discarded store alive until the cyclic collector runs.
        self._block_cache = (
            weakref.ref(block_cache) if block_cache is not None else None
        )
        #: When set, block decode keeps values as memoryview slices into
        #: the raw block; ``get`` (and the engine scan paths) materialize
        #: bytes only for the value actually returned.
        self._zero_copy = zero_copy
        #: Decoded-cache namespace for this table (the engine passes its
        #: file number); defaults to the file name for standalone readers.
        self._cache_key: Hashable = cache_key if cache_key is not None else name
        #: Decoded-cache budget charge of the retained reader.
        self.nbytes = (
            footer.index_size
            + (footer.filter_size if bloom is not None else 0)
            + _INDEX_ENTRY_OVERHEAD * len(index)
        )
        #: The reads :meth:`open` issued — footer, index, and the filter
        #: if it loaded one — which reopening the retained reader charges
        #: again.
        spans = [
            (file_size - FOOTER_SIZE, FOOTER_SIZE),
            (footer.index_offset, footer.index_size),
        ]
        if bloom is not None:
            spans.append((footer.filter_offset, footer.filter_size))
        self._open_reads = storage.plan_reads(name, spans)

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        storage: SimulatedStorage,
        name: str,
        account: IoAccount,
        *,
        load_bloom: bool = True,
        block_cache: Optional[DecodedBlockCache] = None,
        cache_key: Optional[Hashable] = None,
        zero_copy: bool = True,
    ) -> "SSTableReader":
        """Read footer + index (+ bloom) and return a ready reader.

        When the decoded cache still holds the reader an earlier open of
        this table built (the engine's table cache evicted it since),
        that reader is the result: nothing is read, checked or parsed
        again, but the identical simulated footer/index/filter reads are
        charged, as one ``charge_reads`` call.  It is reused only for the
        storage, name and options it was built with; anything else, and
        every open without a cache, reads and verifies the file.
        """
        size = storage.size(name)
        if size < FOOTER_SIZE:
            raise CorruptionError(f"sstable too small: {name}")
        ckey: Hashable = cache_key if cache_key is not None else name
        if block_cache is not None:
            reader = block_cache.get(ckey, _META_OFFSET)
            if (
                reader is not None
                and reader._storage is storage
                and reader.name == name
                and reader._load_bloom == load_bloom
                and reader._zero_copy == zero_copy
            ):
                storage.charge_reads(name, reader._open_reads, account)
                return reader
        footer = Footer.decode(storage.read(name, size - FOOTER_SIZE, FOOTER_SIZE, account))
        index_raw = storage.read(name, footer.index_offset, footer.index_size, account)
        index = decode_index(index_raw)
        bloom = _read_filter(storage, name, footer, account) if load_bloom else None
        reader = cls(
            storage,
            name,
            footer,
            index,
            bloom,
            size,
            block_cache=block_cache,
            cache_key=ckey,
            zero_copy=zero_copy,
            load_bloom=load_bloom,
        )
        if block_cache is not None:
            block_cache.put(ckey, _META_OFFSET, reader)
        return reader

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self._footer.num_entries

    @property
    def num_blocks(self) -> int:
        return len(self._index)

    @property
    def index_keys(self) -> List[InternalKey]:
        """The last internal key of each data block, in file order."""
        return self._index_keys

    def read_filter(self, account: IoAccount) -> Optional[BloomFilter]:
        """Read and decode the table's filter block (None: it has none).

        For an owner that keeps filters outside its readers and has lost
        this one — an engine after recovery; the reader itself keeps
        nothing of it.
        """
        return _read_filter(self._storage, self.name, self._footer, account)

    @property
    def memory_bytes(self) -> int:
        """Resident footprint: parsed index, plus the bloom filter if this
        reader loaded one (Table 5.4 input; an engine counts its filters
        with the files, not here).

        Deliberately excludes any decoded-block cache share: that cache is
        host-side memoization invisible to the simulated memory accounting.
        """
        index_bytes = sum(len(e.last_key.user_key) + 24 for e in self._index)
        bloom_bytes = self.bloom.size_bytes if self.bloom is not None else 0
        return index_bytes + bloom_bytes

    def may_contain(
        self,
        user_key: bytes,
        account: IoAccount,
        h: Optional[int] = None,
        cpu: Optional[CpuCosts] = None,
    ) -> bool:
        """Bloom-filter test; True when no filter is loaded.

        ``h`` is an optional precomputed ``murmur3_64(user_key)`` digest:
        the engine get path hashes the key once and shares the digest
        across every table it screens (the simulated ``bloom_check``
        charge is per probe, exactly as before).

        This is the one filter test and the one ``bloom_check`` charge in
        the tree.  An engine, whose filters are resident with the file
        metadata, applies it as ``SSTableReader.may_contain(meta, ...)``:
        ``self`` need only hold the table's filter as ``bloom``, and
        ``cpu`` is the cost model when ``self`` is not a reader.
        """
        bloom = self.bloom
        if bloom is None:
            return True
        if cpu is None:
            cpu = self._storage.cpu
        account.charge_cpu(cpu, "bloom_check", cpu.bloom_check)
        if h is None:
            return bloom.may_contain(user_key)
        return bloom.may_contain_hash(h)

    # ------------------------------------------------------------------
    def _decoded_block(
        self,
        entry: IndexEntry,
        account: IoAccount,
        *,
        sequential: bool = False,
        cache_insert: bool = True,
    ) -> DecodedBlock:
        """The parsed form of one data block, memoized when cacheable.

        Simulated accounting is identical on both paths: a decoded-cache
        hit charges through ``charge_read`` exactly what the raw ``read``
        below would charge (same page-cache touches, same device time,
        same IO statistics).  The raw read is a view into the table's own
        bytes, so zero-copy values — and the decoded cache holding them —
        point into the file itself, not into a private copy of the block.
        """
        # A bypassing scan (``cache_insert=False``) runs as if uncached.
        ref = self._block_cache if cache_insert else None
        cache = ref() if ref is not None else None
        if cache is not None:
            block = cache.get(self._cache_key, entry.offset)
            if block is not None:
                self._storage.charge_read(
                    self.name, entry.offset, entry.size, account, sequential=sequential
                )
                return block
        raw = self._storage.read(
            self.name,
            entry.offset,
            entry.size,
            account,
            sequential=sequential,
            cache_insert=cache_insert,
            view=True,
        )
        if cache is not None:
            try:
                entries, keys = decode_block_with_keys(raw, self._zero_copy)
            except CorruptionError:
                # Never leave a partially-decoded table in the cache: a
                # later open of the same file number must re-read the
                # device, not trust host-side state from a bad block.
                cache.drop_file(self._cache_key)
                raise
            block = DecodedBlock(entries, len(raw), keys)
            cache.put(self._cache_key, entry.offset, block)
            return block
        # Not retained: skip the key-array pass (scans never bisect, and
        # a one-shot probe bisects with ``key=`` instead).  A bypassing
        # scan feeds a builder, so its entries carry their encoded records;
        # nothing a user read can reach ever does.
        return DecodedBlock(
            decode_block(raw, self._zero_copy, records=not cache_insert), len(raw)
        )

    def get(
        self,
        user_key: bytes,
        snapshot: int,
        account: IoAccount,
        probe: Optional[InternalKey] = None,
    ) -> GetResult:
        """Newest visible version of ``user_key`` in this table.

        Callers probing many tables for the same key (the engine get
        path) pass a pre-built ``probe`` so the internal key — and its
        sort tuple — is constructed once per lookup, not once
        per table.
        """
        cpu = self._storage.cpu
        account.charge_cpu(cpu, "sstable_search", cpu.sstable_search)
        if probe is None:
            probe = InternalKey(user_key, min(snapshot, MAX_SEQUENCE), KIND_SEEK)
        idx = bisect_left(self._index_sks, probe.sort_key)
        while idx < len(self._index):
            block = self._decoded_block(self._index[idx], account)
            pos = block.bisect(probe)
            entries = block.entries
            for i in range(pos, len(entries)):
                key, value = entries[i]
                if key.user_key != user_key:
                    return GetResult(False, False, None)
                if key.sequence <= snapshot:
                    if key.kind == KIND_DELETE:
                        return GetResult(True, True, None, key.sequence)
                    return GetResult(True, False, bytes(value), key.sequence, key.kind)
            # All matching entries in this block were newer than the
            # snapshot; the next block may hold older versions.
            idx += 1
        return GetResult(False, False, None)

    # ------------------------------------------------------------------
    def iter_all(
        self, account: IoAccount, *, cache_insert: bool = True
    ) -> Iterator[Entry]:
        """Scan every entry in order.

        Compactions pass ``cache_insert=False``: the scan bypasses the
        decoded cache and yields ``(key, value, record)`` — see
        :func:`repro.sstable.format.decode_block_with_keys` — for every
        entry whose framing is the writer's own.
        """
        for entry in self._index:
            block = self._decoded_block(
                entry, account, sequential=True, cache_insert=cache_insert
            )
            yield from block.entries

    def seek(self, probe: InternalKey, account: IoAccount) -> Iterator[
        Tuple[InternalKey, bytes]
    ]:
        """Iterate entries starting at the first internal key >= probe."""
        cpu = self._storage.cpu
        account.charge_cpu(cpu, "sstable_search", cpu.sstable_search)
        idx = bisect_left(self._index_sks, probe.sort_key)
        first = True
        for entry in self._index[idx:]:
            block = self._decoded_block(entry, account)
            if first:
                pos = block.bisect(probe)
                yield from block.entries[pos:]
                first = False
            else:
                yield from block.entries

    def iter_reverse(
        self, account: IoAccount, max_user_key: Optional[bytes] = None
    ) -> Iterator[Tuple[InternalKey, bytes]]:
        """Iterate entries in descending internal-key order.

        Blocks are visited back to front (each block read costs one
        random read, like a backward scan on a real store); entries with
        user key > ``max_user_key`` are skipped.
        """
        cpu = self._storage.cpu
        account.charge_cpu(cpu, "sstable_search", cpu.sstable_search)
        for idx in range(len(self._index) - 1, -1, -1):
            if (
                max_user_key is not None
                and idx > 0
                and self._index[idx - 1].last_key.user_key > max_user_key
            ):
                # Every key in this block exceeds the bound.
                continue
            block = self._decoded_block(self._index[idx], account)
            for key, value in reversed(block.entries):
                if max_user_key is not None and key.user_key > max_user_key:
                    continue
                yield key, value
