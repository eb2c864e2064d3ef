"""Write-through B+tree store (KyotoCabinet-style).

Every ``put`` updates the leaf in place and writes the dirty 4 KiB pages
back immediately (after journaling the operation for durability).  With
128-byte values one insert dirties a whole leaf page — the ~30-60x write
amplification of section 2.2's KyotoCabinet experiment emerges directly.
Random in-place page writes also pay the device's random-write latency,
which is why B+trees lose to LSM on write throughput.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Tuple

from repro.engines.background import BackgroundErrors
from repro.engines.interface import DBIterator, KeyValueStore, checked_bytes, validate_key
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import StatsCounters
from repro.engines.btree.bptree import PAGE_SIZE, BPlusTree
from repro.errors import PersistentIOError, StorageError, TransientIOError
from repro.sim.storage import SimulatedStorage
from repro.wal import LogWriter, encode_batch
from repro.util.keys import KIND_DELETE, KIND_PUT


class PagedTreeStore(KeyValueStore):
    """What both B-tree engines share: an in-memory :class:`BPlusTree`
    whose page ids map onto one data file, a journal every write goes
    through first and a reopen replays, and reads charged per page.  A
    subclass decides when dirty pages are written back."""

    def __init__(self, storage: SimulatedStorage, prefix: str, fanout: int) -> None:
        self.storage = storage
        self.prefix = prefix
        self.cpu = storage.cpu
        self._tree = BPlusTree(fanout)
        self._acct = storage.foreground_account(prefix + "user")
        self._data_file = prefix + "tree.db"
        if not storage.exists(self._data_file):
            storage.create(self._data_file)
        self._journal_name = prefix + "journal.log"
        recovering = storage.exists(self._journal_name)
        self._journal = LogWriter(storage, self._journal_name)
        self.registry = MetricsRegistry()
        self._stats = StatsCounters(self.registry)
        if recovering:
            self._tree.replay_journal(
                storage, self._journal_name, storage.foreground_account(prefix + "recover")
            )

    def _before_read(self) -> None:
        """Hook run first by every get and seek."""

    def _read_pages(self, page_ids) -> None:
        for page_id in page_ids:
            offset = page_id * PAGE_SIZE
            if offset + PAGE_SIZE <= self.storage.size(self._data_file):
                try:
                    self.storage.read(self._data_file, offset, PAGE_SIZE, self._acct)
                except StorageError:
                    # Reads serve from the in-memory tree; a faulted page
                    # read only loses its simulated cache accounting.
                    continue

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        validate_key(key)
        self._before_read()
        value, path = self._tree.get(bytes(key))
        self._read_pages(path)
        self._acct.charge(self.cpu.charge("btree_search", 2.0e-6))
        self._stats.gets += 1
        return value

    def seek(self, key: bytes) -> DBIterator:
        self._check_open()
        validate_key(key)
        self._before_read()
        self._stats.seeks += 1

        def gen() -> Iterator[Tuple[bytes, bytes]]:
            last_page = None
            for k, v, page_id in self._tree.iterate_from(bytes(key)):
                if page_id != last_page:
                    self._read_pages([page_id])
                    last_page = page_id
                yield k, v

        def on_next() -> None:
            self._stats.next_calls += 1

        return DBIterator(gen(), on_next=on_next)

    def check_invariants(self) -> None:
        self._tree.check_invariants()


class BPlusTreeStore(PagedTreeStore):
    """Embedded B+tree key-value store with write-through pages."""

    preset = "btree"

    def __init__(
        self,
        storage: SimulatedStorage,
        prefix: str = "btree/",
        fanout: int = 128,
    ) -> None:
        super().__init__(storage, prefix, fanout)
        #: Sticky error: set when the journal may hold a torn record or a
        #: persistent fault hit the write path.  Writes then raise
        #: BackgroundError; reads keep serving; resume() rewrites the
        #: journal as a clean checkpoint of the in-memory tree.
        store = weakref.proxy(self)  # no cycle: a dropped store is freed at once
        self._faults = BackgroundErrors(storage.clock, self._stats, tracer=lambda: store.tracer)

    def _write_pages(self, page_ids) -> None:
        for page_id in sorted(page_ids):
            try:
                self.storage.write_at(
                    self._data_file, page_id * PAGE_SIZE, b"\x00" * PAGE_SIZE, self._acct
                )
            except TransientIOError:
                # The journal already holds the operation; the page image
                # is rebuilt from it at recovery, so a transient writeback
                # failure costs nothing but the retry a real pager would do.
                continue
            except PersistentIOError as exc:
                self._faults.fail("page writeback", exc)
                return

    # ------------------------------------------------------------------
    # Degraded mode and resume
    # ------------------------------------------------------------------
    def _journal_append(self, payload: bytes) -> None:
        """Journal one operation; the journal precedes every tree mutation.

        A failed append that left bytes behind may have torn the record: a
        later record appended after the tear would be unreadable at
        recovery even though it was acknowledged, so the store degrades
        until resume() rewrites the journal.  A failure that left nothing
        behind is a clean, retryable foreground error.
        """
        self._faults.raise_if_failed()
        size_before = self.storage.size(self._journal_name)
        try:
            self._journal.append(payload, self._acct)
        except StorageError as exc:
            if (
                self.storage.size(self._journal_name) != size_before
                or isinstance(exc, PersistentIOError)
            ):
                self._faults.fail("journal append", exc)
            raise

    def resume(self) -> bool:
        """Rewrite the journal as a checkpoint and re-enable writes.

        The in-memory tree is the authoritative state (every acknowledged
        operation reached it), so the new journal is simply one PUT record
        per live pair, synced, then atomically renamed over the suspect
        file.  Returns True when the store is healthy again.
        """
        self._check_open()
        return self._faults.resume(self._checkpoint)

    def _checkpoint(self) -> None:
        acct = self.storage.foreground_account(self.prefix + "recover")
        tmp = self._journal_name + ".new"
        try:
            self.storage.delete(tmp, missing_ok=True)
            checkpoint = LogWriter(self.storage, tmp)
            for key, value, _ in self._tree.iterate_from(b"\x00"):
                checkpoint.append(encode_batch(0, [(KIND_PUT, key, value)]), acct)
            checkpoint.sync(acct)
            self.storage.rename(tmp, self._journal_name)
        except StorageError:
            self.storage.delete(tmp, missing_ok=True)
            raise
        self._journal = LogWriter(self.storage, self._journal_name)

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        validate_key(key)
        key, value = bytes(key), checked_bytes(value)
        self._journal_append(encode_batch(0, [(KIND_PUT, key, value)]))
        path = self._tree.put(key, value)
        self._read_pages(path[:-1])  # interior pages consulted on the way down
        self._write_pages(self._tree.take_dirty())
        self._acct.charge(self.cpu.charge("btree_update", 3.0e-6))
        self._stats.puts += 1
        self._stats.user_bytes_written += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        self._check_open()
        validate_key(key)
        key = bytes(key)
        self._journal_append(encode_batch(0, [(KIND_DELETE, key, b"")]))
        removed, path = self._tree.delete(key)
        self._read_pages(path[:-1])
        if removed:
            self._write_pages(self._tree.take_dirty())
        self._stats.deletes += 1
        self._stats.user_bytes_written += len(key)

    # ------------------------------------------------------------------
    def _refresh_derived(self) -> None:
        self.registry.gauge("store.memory_bytes").set(len(self._tree) * 64)

    def close(self) -> None:
        if not self._closed:
            try:
                self._journal.sync(self._acct)
            except StorageError:
                # Closing anyway; the unsynced tail is an ordinary crash loss.
                pass
            self._closed = True
