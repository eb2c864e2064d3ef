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

from typing import Iterator, Optional, Tuple

from repro.engines.base import DBIterator, KeyValueStore, StatsCounters, checked_bytes
from repro.obs.metrics import MetricsRegistry
from repro.engines.btree.bptree import PAGE_SIZE, BPlusTree
from repro.errors import InvalidArgumentError, StoreClosedError
from repro.sim.executor import BackgroundExecutor, Job
from repro.sim.storage import SimulatedStorage
from repro.wal import LogReader, LogWriter, decode_batch, encode_batch
from repro.util.keys import KIND_DELETE, KIND_PUT


class WiredTigerStore(KeyValueStore):
    """Checkpoint + journal B-tree store."""

    preset = "wiredtiger"

    def __init__(
        self,
        storage: SimulatedStorage,
        prefix: str = "wt/",
        checkpoint_dirty_bytes: int = 256 * 1024,
        fanout: int = 128,
    ) -> None:
        self.storage = storage
        self.prefix = prefix
        self.cpu = storage.cpu
        self.checkpoint_dirty_bytes = checkpoint_dirty_bytes
        self._tree = BPlusTree(fanout)
        self._acct = storage.foreground_account(prefix + "user")
        self.executor = BackgroundExecutor(storage.clock, workers=1)
        self._data_file = prefix + "tree.db"
        if not storage.exists(self._data_file):
            storage.create(self._data_file)
        self._journal_name = prefix + "journal.log"
        recovering = storage.exists(self._journal_name)
        self._journal = LogWriter(storage, self._journal_name)
        self._dirty_bytes = 0
        self._checkpoint_job: Optional[Job] = None
        self.registry = MetricsRegistry()
        self._stats = StatsCounters(self.registry)
        self.tracer = None
        self._closed = False
        if recovering:
            self._recover()

    # ------------------------------------------------------------------
    def enable_tracing(self, sink, component: str = "engine", seed: int = 0):
        """Attach a tracer (server-layer spans; the tree emits none yet)."""
        from repro.obs.trace import Tracer

        self.tracer = Tracer(
            sink, clock=self.storage.clock, component=component, seed=seed
        )
        return self.tracer

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._validate(key)
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
        self._validate(key)
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

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        self._validate(key)
        self.executor.drain()
        value, path = self._tree.get(bytes(key))
        self._read_pages(path)
        self._acct.charge(self.cpu.charge("btree_search", 2.0e-6))
        self._stats.gets += 1
        return value

    def seek(self, key: bytes) -> DBIterator:
        self._check_open()
        self._validate(key)
        self.executor.drain()
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

    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self._dirty_bytes < self.checkpoint_dirty_bytes:
            return
        if self._checkpoint_job is not None and not self._checkpoint_job.applied:
            # Previous checkpoint still running: stall once the dirty set
            # doubles (eviction pressure), as the real engine does.
            if self._dirty_bytes >= 2 * self.checkpoint_dirty_bytes:
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
    def _recover(self) -> None:
        """Rebuild the in-memory tree by replaying the journal.

        The journal holds the store's full history (it is retained across
        checkpoints, so durability never depends on the simulated page
        images); replaying it restores the exact pre-crash contents up to
        the last durable journal byte.
        """
        from repro.util.keys import KIND_PUT as _PUT

        acct = self.storage.foreground_account(self.prefix + "recover")
        for record in LogReader(self.storage, self._journal_name).records(acct):
            _, ops = decode_batch(record)
            for kind, key, value in ops:
                if kind == _PUT:
                    self._tree.put(key, value)
                else:
                    self._tree.delete(key)
        self._tree.take_dirty()
        self._dirty_bytes = 0

    # ------------------------------------------------------------------
    def _read_pages(self, page_ids) -> None:
        size = self.storage.size(self._data_file)
        for page_id in page_ids:
            offset = page_id * PAGE_SIZE
            if offset + PAGE_SIZE <= size:
                self.storage.read(self._data_file, offset, PAGE_SIZE, self._acct)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    @staticmethod
    def _validate(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise InvalidArgumentError(f"keys must be non-empty bytes: {key!r}")

    # ------------------------------------------------------------------
    def _refresh_derived(self) -> None:
        self.registry.gauge("store.memory_bytes").set(
            len(self._tree) * 64 + self._dirty_bytes
        )

    def check_invariants(self) -> None:
        self._tree.check_invariants()

    def wait_idle(self) -> None:
        self.executor.wait_all()

    def close(self) -> None:
        if self._closed:
            return
        self.executor.wait_all()
        self._journal.sync(self._acct)
        self._closed = True
