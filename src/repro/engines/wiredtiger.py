"""WiredTiger-style engine: B-tree with journaling and checkpoints.

MongoDB's default storage engine is not an LSM: updates happen in an
in-memory B-tree, a journal (write-ahead log) makes them durable, and a
periodic *checkpoint* writes every dirty page (paper section 5.4
configures it with a 16 MB in-memory log).  Compared to the write-through
B+tree this batches page writes — each page absorbs many updates between
checkpoints — so total write IO sits between LSM stores and KyotoCabinet,
matching Figure 5.6(b) where RocksDB writes ~40% more IO than WiredTiger.

Checkpoints run on a background timeline; while a checkpoint is still in
flight and the dirty set has grown past twice the trigger, writes stall
(cache-eviction pressure in the real engine).
"""

from __future__ import annotations

from typing import Optional

from repro.engines.btree.bptree import PAGE_SIZE
from repro.engines.btree.store import PagedTreeStore
from repro.engines.interface import checked_bytes, validate_key
from repro.sim.executor import BackgroundExecutor, Job
from repro.sim.storage import SimulatedStorage
from repro.wal import encode_batch
from repro.util.keys import KIND_DELETE, KIND_PUT


class WiredTigerStore(PagedTreeStore):
    """Checkpoint + journal B-tree store."""

    preset = "wiredtiger"
    #: Dirty bytes that start a checkpoint; twice this stalls writes.
    CHECKPOINT_DIRTY_BYTES = 256 * 1024

    def __init__(
        self,
        storage: SimulatedStorage,
        prefix: str = "wt/",
        fanout: int = 128,
    ) -> None:
        # The journal holds the store's full history (it is retained
        # across checkpoints, so durability never depends on the
        # simulated page images).
        super().__init__(storage, prefix, fanout)
        self.executor = BackgroundExecutor(storage.clock, workers=1)
        self._dirty_bytes = 0
        self._checkpoint_job: Optional[Job] = None

    def _before_read(self) -> None:
        self.executor.drain()

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        validate_key(key)
        key, value = bytes(key), checked_bytes(value)
        self.executor.drain()
        self._journal.append(encode_batch(0, [(KIND_PUT, key, value)]), self._acct)
        path = self._tree.put(key, value)
        self._read_pages(path[:-1])
        self._dirty_bytes += len(key) + len(value)
        self._acct.charge(self.cpu.charge("btree_update", 3.0e-6))
        self._stats.puts += 1
        self._stats.user_bytes_written += len(key) + len(value)
        self._maybe_checkpoint()

    def delete(self, key: bytes) -> None:
        self._check_open()
        validate_key(key)
        key = bytes(key)
        self.executor.drain()
        self._journal.append(encode_batch(0, [(KIND_DELETE, key, b"")]), self._acct)
        removed, path = self._tree.delete(key)
        self._read_pages(path[:-1])
        if removed:
            self._dirty_bytes += len(key)
        self._stats.deletes += 1
        self._stats.user_bytes_written += len(key)
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self._dirty_bytes < self.CHECKPOINT_DIRTY_BYTES:
            return
        if self._checkpoint_job is not None and not self._checkpoint_job.applied:
            # Previous checkpoint still running: stall once the dirty set
            # doubles (eviction pressure), as the real engine does.
            if self._dirty_bytes >= 2 * self.CHECKPOINT_DIRTY_BYTES:
                before = self.storage.clock.now
                self.executor.wait_for(self._checkpoint_job)
                self._stats.stall_seconds += self.storage.clock.now - before
            else:
                return
        dirty = sorted(self._tree.take_dirty())
        self._dirty_bytes = 0
        if not dirty:
            return
        acct = self.storage.background_account(self.prefix + "checkpoint")
        max_page = max(dirty)
        needed = (max_page + 1) * PAGE_SIZE
        current = self.storage.size(self._data_file)
        if needed > current:
            self.storage.append(self._data_file, b"\x00" * (needed - current), acct)
        for page_id in dirty:
            self.storage.write_at(
                self._data_file, page_id * PAGE_SIZE, b"\x00" * PAGE_SIZE, acct
            )
        self.storage.sync(self._data_file, acct)

        def apply() -> None:
            self._checkpoint_job = None
            self._stats.flushes += 1

        self._checkpoint_job = self.executor.submit("checkpoint", acct.seconds, apply)

    # ------------------------------------------------------------------
    def _refresh_derived(self) -> None:
        self.registry.gauge("store.memory_bytes").set(
            len(self._tree) * 64 + self._dirty_bytes
        )

    def wait_idle(self) -> None:
        self.executor.wait_all()

    def close(self) -> None:
        if self._closed:
            return
        self.executor.wait_all()
        self._journal.sync(self._acct)
        self._closed = True
