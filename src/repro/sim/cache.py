"""LRU page cache standing in for the OS page cache.

The paper keeps its datasets 3x larger than DRAM and its low-memory
experiment (Figure 5.2b) shrinks DRAM to 6% of the dataset; read throughput
in both regimes is governed by the page-cache hit rate.  The cache maps
``(file_id, page_index)`` to presence (the actual bytes live in the
simulated files; caching presence is enough to decide whether a read pays
device latency).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Set, Tuple

PAGE_SIZE = 4096


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class PageCache:
    """A byte-budgeted LRU cache of 4 KiB pages.

    Range operations are batched: one pass over the interval's pages with
    bulk stat updates and a single end-of-batch eviction sweep, instead of
    a per-page method call with its own eviction loop.  A per-file page
    index makes ``drop_file`` proportional to the dropped file's resident
    pages rather than to everything cached.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._pages: "OrderedDict[Tuple[Hashable, int], None]" = OrderedDict()
        self._file_pages: Dict[Hashable, Set[int]] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes currently cached."""
        return len(self._pages) * PAGE_SIZE

    @property
    def max_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    def _evict_over_budget(self) -> None:
        pages = self._pages
        file_pages = self._file_pages
        max_pages = self.max_pages
        evictions = 0
        while len(pages) > max_pages:
            file_id, page = pages.popitem(last=False)[0]
            resident = file_pages.get(file_id)
            if resident is not None:
                resident.discard(page)
                if not resident:
                    del file_pages[file_id]
            evictions += 1
        self.stats.evictions += evictions

    def access(self, file_id: Hashable, page: int, *, insert: bool = True) -> bool:
        """Touch one page; returns True on hit.

        On a miss the page is inserted (unless ``insert`` is False, used by
        compaction reads which should not evict hot application data — the
        effect of ``posix_fadvise(DONTNEED)`` in real stores).
        """
        key = (file_id, page)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if insert and self.max_pages > 0:
            self._pages[key] = None
            self._file_pages.setdefault(file_id, set()).add(page)
            self._evict_over_budget()
        return False

    def access_range(
        self, file_id: Hashable, offset: int, length: int, *, insert: bool = True
    ) -> Tuple[int, int]:
        """Touch every page covering ``[offset, offset+length)``.

        Returns ``(hit_pages, miss_pages)``.
        """
        if length <= 0:
            return (0, 0)
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        pages = self._pages
        if first == last:
            # One resident page (a footer, a small block): nothing to
            # insert or evict, whatever ``insert`` says.
            key = (file_id, first)
            if key in pages:
                pages.move_to_end(key)
                self.stats.hits += 1
                return (1, 0)
        npages = last - first + 1
        hits = 0
        max_pages = self.max_pages
        if insert and max_pages > 0:
            resident = self._file_pages.setdefault(file_id, set())
            for page in range(first, last + 1):
                key = (file_id, page)
                if key in pages:
                    pages.move_to_end(key)
                    hits += 1
                else:
                    pages[key] = None
                    resident.add(page)
            if len(pages) > max_pages:
                self._evict_over_budget()
                if not self._file_pages.get(file_id):
                    # Everything just inserted was immediately evicted again
                    # (range larger than the whole cache).
                    self._file_pages.pop(file_id, None)
        else:
            for page in range(first, last + 1):
                key = (file_id, page)
                if key in pages:
                    pages.move_to_end(key)
                    hits += 1
        misses = npages - hits
        self.stats.hits += hits
        self.stats.misses += misses
        return (hits, misses)

    # ------------------------------------------------------------------
    # The same accesses, repeated (SimulatedStorage.charge_reads): a
    # caller keeps the keys its ranges cover, and while every one is
    # resident an ``access_range`` per range would only freshen and count
    # them.
    # ------------------------------------------------------------------
    @staticmethod
    def page_keys(
        file_id: Hashable, offset: int, length: int
    ) -> Tuple[Tuple[Hashable, int], ...]:
        """The keys ``access_range`` touches for this range, in its order."""
        if length <= 0:
            return ()
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        return tuple((file_id, page) for page in range(first, last + 1))

    def touch_if_resident(
        self, keys: Sequence[Tuple[Hashable, int]], hits: int
    ) -> bool:
        """Account ``hits`` accesses that all hit, their pages last
        touched in the order of ``keys`` (distinct) — if every key is
        cached; otherwise change nothing and return False.

        Freshening a page more than once leaves it where the last touch
        put it, so the order of last touches and the number of hits are
        all such a run of accesses leaves behind.
        """
        pages = self._pages
        for key in keys:
            if key not in pages:
                return False
        move_to_end = pages.move_to_end
        for key in keys:
            move_to_end(key)
        self.stats.hits += hits
        return True

    def populate_range(self, file_id: Hashable, offset: int, length: int) -> None:
        """Mark freshly written pages as cached (writes land in page cache)."""
        max_pages = self.max_pages
        if length <= 0 or max_pages == 0:
            return
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        pages = self._pages
        resident = self._file_pages.get(file_id)
        if resident is None:  # not ``setdefault``: no set built per WAL record
            resident = self._file_pages[file_id] = set()
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
            else:
                pages[key] = None
                resident.add(page)
        if len(pages) > max_pages:
            self._evict_over_budget()
            if not self._file_pages.get(file_id):
                self._file_pages.pop(file_id, None)

    def drop_file(self, file_id: Hashable) -> None:
        """Evict all pages of a deleted file."""
        resident = self._file_pages.pop(file_id, None)
        if not resident:
            return
        pages = self._pages
        for page in resident:
            del pages[(file_id, page)]

    def clear(self) -> None:
        """Drop everything (used to model a cold cache after remount)."""
        self._pages.clear()
        self._file_pages.clear()
