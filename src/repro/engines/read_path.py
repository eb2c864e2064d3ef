"""The read path of an LSM-family store: table cache, pins, probe and walk.

:class:`ReadPath` owns the open sstable readers (the table cache and the
decoded-block cache they share), the read pins that keep retired files on
storage while an iterator may read them, the one probe loop of a point
lookup, the walker of a seek or scan, and the per-level tallies of both.
It reaches the engine through ``engine``, a weak proxy: ``tracer``,
``_level_candidates``, ``_search_span_attrs``, ``_level0``,
``_level_runs``, ``_note_positioned``, ``_parallel_seek_level`` and
``_position_parallel``.  A scan is handed the store itself, which its
generator keeps alive while the scan lasts.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CorruptionError, StorageError
from repro.memtable.memtable import GetResult
from repro.obs.metrics import MetricsRegistry
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable import DecodedBlockCache, SSTableReader, merge_entries, merging_iterator
from repro.sstable.format import Entry, ValuePointer
from repro.util.keys import KIND_DELETE, KIND_SEEK, KIND_VPTR, MAX_SEQUENCE, InternalKey
from repro.util.murmur import murmur3_64
from repro.version.files import FileMetadata
from repro.version.lifecycle import TABLE, file_name
from repro.vlog.log import ValueLog
from repro.engines.interface import Snapshot
from repro.engines.options import StoreOptions
from repro.engines.write_path import WritePath


class ReadPath:
    """One store's open readers, read pins, point lookups and scans."""

    def __init__(
        self,
        storage: SimulatedStorage,
        options: StoreOptions,
        engine,
        writes: WritePath,
        *,
        prefix: str,
        user_acct: IoAccount,
        vlog: Optional[ValueLog],
    ) -> None:
        self._storage = storage
        self._options = options
        self._engine = engine
        self._writes = writes
        self._prefix = prefix
        self._cpu = storage.cpu
        self._user_acct = user_acct
        self._vlog = vlog
        self.table_cache: "OrderedDict[int, SSTableReader]" = OrderedDict()
        #: Host-side memoization of parsed data blocks, shared by every
        #: reader this store opens (keyed by sstable file number).  None
        #: when disabled; simulated metrics are identical either way.
        self.block_cache: Optional[DecodedBlockCache] = (
            DecodedBlockCache(options.block_cache_bytes)
            if options.block_cache_bytes > 0
            else None
        )
        #: Read pins held by open iterators, oldest first (insertion
        #: order), and the sstables retired while any pin was held, each
        #: with the newest pin number issued before its retirement.
        self.read_pins: Dict[int, None] = {}
        self._pin_seq = 0
        self.retired_files: "deque[Tuple[int, int]]" = deque()
        #: Per level, the files a lookup probed or skipped (by filter, by
        #: sequence bound) — the three sum to the candidate files whose
        #: range covered the key — and the tables seeks positioned; plus
        #: the table-cache hits and misses.  Plain adds on the hot path,
        #: folded into the registry by :meth:`fold`.
        self._probe_files = [0] * (options.num_levels + 1)
        self._probe_bloom = [0] * (options.num_levels + 1)
        self._probe_seq = [0] * (options.num_levels + 1)
        self._seek_tables = [0] * (options.num_levels + 1)
        self._table_hits = self._table_misses = 0

    def fold(self, reg: MetricsRegistry) -> None:
        """Move the tallies into their ``read.*`` / ``seek.positioned_tables``
        counters and set the block cache's gauges."""
        for name, tallies in (
            ("read.files_probed", self._probe_files),
            ("read.bloom_skipped", self._probe_bloom),
            ("read.seq_skipped", self._probe_seq),
            ("seek.positioned_tables", self._seek_tables),
        ):
            for level, n in enumerate(tallies):
                if n:
                    reg.counter(name, level=level).value += n
                    tallies[level] = 0
        reg.counter("read.table_cache_hits").value += self._table_hits
        reg.counter("read.table_cache_misses").value += self._table_misses
        self._table_hits = self._table_misses = 0
        if self.block_cache is not None:
            reg.gauge("block_cache.hits").set(self.block_cache.stats.hits)
            reg.gauge("block_cache.misses").set(self.block_cache.stats.misses)
            reg.gauge("block_cache.bytes").set(self.block_cache.size_bytes)

    def block_cache_line(self) -> str:
        if self.block_cache is None:
            return "disabled"
        bc = self.block_cache.stats
        return (
            f"hits={bc.hits} misses={bc.misses} "
            f"hit-rate={bc.hit_rate:.3f} "
            f"bytes={self.block_cache.size_bytes} "
            f"blocks={len(self.block_cache)} evictions={bc.evictions}"
        )

    # ==================================================================
    # Table cache and file lifecycle
    # ==================================================================
    def get_reader(self, number: int, account: IoAccount) -> SSTableReader:
        cache = self.table_cache
        reader = cache.get(number)
        if reader is not None:
            cache.move_to_end(number)
            self._table_hits += 1
            return reader
        self._table_misses += 1
        try:
            reader = SSTableReader.open(
                self._storage,
                file_name(self._prefix, number, TABLE),
                account,
                load_bloom=False,  # filters live with the file metadata
                block_cache=self.block_cache,
                cache_key=number,
            )
        except (CorruptionError, StorageError):
            # A failed open may have cached partial metadata for this
            # file; evict so a later retry starts from storage, not from
            # a half-populated cache entry.
            if self.block_cache is not None:
                self.block_cache.drop_file(number)
            raise
        cache[number] = reader
        while len(cache) > self._options.table_cache_size:
            cache.popitem(last=False)
        return reader

    def pin_reads(self) -> int:
        """Keep every sstable and value-log segment that is live now on
        storage until unpinned.

        One pin covers a whole iterator: consumer code between its yields
        may trigger compactions, and whatever file lists, guard views or
        value pointers the iterator captured after taking the pin stay
        readable however many of those files are retired meanwhile.
        """
        self._pin_seq += 1
        self.read_pins[self._pin_seq] = None
        if self._vlog is not None:
            self._vlog.pin()
        return self._pin_seq

    def unpin_reads(self, pin: int) -> None:
        """Release a pin; delete the retired files no older pin can see."""
        if self._vlog is not None:
            self._vlog.unpin()
        del self.read_pins[pin]
        oldest = next(iter(self.read_pins), None)
        retired = self.retired_files
        while retired and (oldest is None or retired[0][0] < oldest):
            self.drop_table_file(retired.popleft()[1])

    def retire_file(self, number: int) -> None:
        """Delete a file once every pin taken before now is released."""
        if self.read_pins:
            self.retired_files.append((self._pin_seq, number))
        else:
            self.drop_table_file(number)

    def drop_table_file(self, number: int) -> None:
        self.table_cache.pop(number, None)
        if self.block_cache is not None:
            self.block_cache.drop_file(number)
        self._storage.delete(file_name(self._prefix, number, TABLE), missing_ok=True)

    # ==================================================================
    # Point lookups
    # ==================================================================
    def get_from_tables(self, key: bytes, snapshot: int, account: IoAccount) -> GetResult:
        """Search persistent state, Level 0 downward; the first level
        holding a visible version of ``key`` answers."""
        engine = self._engine
        # One body for both the traced and untraced paths (an extra call
        # per get is measurable); the try/finally is free when nothing
        # raises.
        trc = engine.tracer
        span = trc.span("table.search") if trc is not None else None
        try:
            # One interned probe key serves every table probed for this
            # lookup (readers would otherwise rebuild it, and its sort
            # tuple, per file), and one murmur digest serves every bloom
            # filter screened.
            probe = InternalKey(key, min(snapshot, MAX_SEQUENCE), KIND_SEEK)
            kh = murmur3_64(key)
            candidates = engine._level_candidates
            get_reader = self.get_reader
            charge_cpu = account.charge_cpu
            cpu = self._cpu
            level_search = cpu.level_binary_search
            use_bloom = self._options.enable_sstable_bloom
            # The one filter test, applied to whatever holds the filter —
            # here the file's metadata.  Looked up per search: the pinned
            # benchmark's tracer patches it on the class and counts it
            # against files_probed + bloom_skipped.
            screen = SSTableReader.may_contain
            probed = bloom_skipped = seq_skipped = 0
            for level in range(self._options.num_levels):
                files = candidates(level, key)
                if files is None:
                    continue
                if level:
                    # Below Level 0 the candidates were found by bisecting
                    # the level's file or guard boundaries.
                    charge_cpu(cpu, "level_binary_search", level_search)
                # Candidates may overlap arbitrarily, and their order is
                # not version order (a guard re-homes old files after new
                # ones; RepairDB places anything), so the newest version
                # wins by sequence number.  A file is read only if it may
                # hold something newer than the best so far and its filter
                # — resident, consulted before any table is opened — says
                # the key may be there.
                best: Optional[GetResult] = None
                best_seq = -1
                level_probed = level_bloom = level_seq = 0
                for meta in files:
                    if meta.largest.user_key < key or meta.smallest.user_key > key:
                        continue
                    if meta.largest_seq <= best_seq:
                        level_seq += 1
                        continue
                    if meta.bloom is None and use_bloom:
                        # Recovered from the MANIFEST: fetched by the first
                        # get to consult the file, resident from then on.
                        meta.bloom = get_reader(meta.number, account).read_filter(
                            account
                        )
                    if not screen(meta, key, account, kh, cpu):
                        level_bloom += 1
                        continue
                    level_probed += 1
                    result = get_reader(meta.number, account).get(
                        key, snapshot, account, probe
                    )
                    if result.found and result.sequence > best_seq:
                        best, best_seq = result, result.sequence
                if level_seq:
                    self._probe_seq[level] += level_seq
                    seq_skipped += level_seq
                if level_bloom:
                    self._probe_bloom[level] += level_bloom
                    bloom_skipped += level_bloom
                if level_probed:
                    self._probe_files[level] += level_probed
                    probed += level_probed
                if best is not None:
                    if span is not None:
                        span.set(
                            level=level,
                            **engine._search_span_attrs(level, key),
                            files_probed=probed,
                            bloom_skipped=bloom_skipped,
                            seq_skipped=seq_skipped,
                            found=True,
                        )
                    return best
            if span is not None:
                span.set(
                    files_probed=probed,
                    bloom_skipped=bloom_skipped,
                    seq_skipped=seq_skipped,
                    found=False,
                )
            return GetResult(False, False, None)
        except BaseException as exc:
            if span is not None:
                span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.end()

    def resolve_value(self, value, kind: int, account: IoAccount) -> bytes:
        """Materialize one result value, chasing a value-log pointer."""
        if kind == KIND_VPTR:
            assert self._vlog is not None
            return self._vlog.read_value(
                ValuePointer.decode(bytes(value)), account
            )
        # bytes() materializes zero-copy (memoryview) sstable values; a
        # no-op for memtable values (bytes already).
        return bytes(value)

    # ==================================================================
    # Seeks and scans
    # ==================================================================
    def visible_entries(
        self, store, start: Optional[bytes], snap: Optional[Snapshot], reverse: bool
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Newest visible version of each user key: from ``start`` onward,
        or when ``reverse`` descending from ``start`` (None: the top).

        ``store`` positions the tables (its ``_table_iterators``).  A
        reverse merge is in descending internal-key order, so the versions
        of one user key arrive oldest first: the newest visible one is held
        until the user key changes.
        """
        acct = self._user_acct
        writes = self._writes
        snapshot = snap.sequence if snap is not None else writes.last_sequence
        pin = self.pin_reads()
        try:
            if not reverse and start is None:
                start = b""
            mems = [writes.mem, *(imm for imm, _ in writes.imm)]
            iters: List[Iterator[Entry]] = [
                mem.reverse_iter(start) if reverse else mem.seek(start) for mem in mems
            ]
            iters.extend(store._table_iterators(start, acct, reverse))
            merged = merging_iterator(iters, cpu=self._cpu, account=acct, reverse=reverse)
            prev: Optional[bytes] = None
            held: Optional[Entry] = None
            for key, value in merged:
                if key.sequence > snapshot:
                    continue
                if key.user_key == prev:
                    if reverse:  # ascending sequence: a later entry is newer
                        held = key, value
                    continue
                prev = key.user_key
                if reverse:  # the previous user key's newest version is known
                    held, entry = (key, value), held
                    if entry is None:
                        continue
                    key, value = entry
                if key.kind != KIND_DELETE:
                    yield key.user_key, self.resolve_value(value, key.kind, acct)
            if held is not None and held[0].kind != KIND_DELETE:
                key, value = held
                yield key.user_key, self.resolve_value(value, key.kind, acct)
        finally:
            self.unpin_reads(pin)

    def table_iterators(
        self, start: Optional[bytes], account: IoAccount, reverse: bool = False
    ) -> List[Iterator[Entry]]:
        """One walk per Level-0 file that may hold keys past ``start`` in
        the walk's direction, then one per deeper level with data there.

        A forward seek charges ``iterator_seek`` once for every table it
        positions — the Level-0 files and each level's covering run — and
        reports them to the engine's ``_note_positioned(level, key,
        files)``; a reverse one does neither.
        """
        engine = self._engine
        walk = self.walk_runs
        if reverse:
            level0 = [m for m in engine._level0 if start is None or m.smallest.user_key <= start]
            key = start
        else:
            level0 = [m for m in engine._level0 if m.largest.user_key >= start]
            key = InternalKey(start, MAX_SEQUENCE, KIND_SEEK)
        iters = [walk(((meta,),), 0, key, account, reverse) for meta in level0]
        seek_tables = self._seek_tables
        positioned = len(level0)
        if not reverse:
            for meta in level0:
                engine._note_positioned(0, start, (meta,))
            seek_tables[0] += positioned
        parallel_level = engine._parallel_seek_level()
        for level in range(1, self._options.num_levels):
            runs, first = engine._level_runs(level, start, reverse)
            if not 0 <= first < len(runs):
                continue
            iters.append(walk(runs, first, key, account, reverse, level == parallel_level))
            if not reverse:
                files = runs[first]
                engine._note_positioned(level, start, files)
                seek_tables[level] += len(files)
                positioned += len(files)
        if positioned and not reverse:
            account.charge(
                self._cpu.charge(
                    "iterator_seek", self._cpu.iterator_seek_per_table * positioned
                )
            )
        return iters

    def walk_runs(
        self,
        runs: Sequence[Sequence[FileMetadata]],
        first: int,
        key: Union[InternalKey, bytes, None],
        account: IoAccount,
        reverse: bool = False,
        parallel: bool = False,
    ) -> Iterator[Entry]:
        """Entries of a key-ordered sequence of runs, from run ``first``;
        a run's readers open when the walk reaches it.

        Forward, run ``first`` is positioned at the internal key ``key`` (by
        the engine's ``_position_parallel`` when ``parallel`` and the run
        has several files) and every later run is read whole; reverse, runs
        ``first`` down to 0 are read backward from the user key ``key``
        (None: unbounded).  The files of one run are merged.  The caller holds a
        read pin, so compactions meanwhile neither hide keys from the
        walk nor delete its files.
        """
        get_reader = self.get_reader
        order = range(first, -1, -1) if reverse else range(first, len(runs))
        for idx in order:
            files = runs[idx]
            if reverse:
                iters = [
                    get_reader(f.number, account).iter_reverse(account, max_user_key=key)
                    for f in files
                ]
            elif idx != first:
                iters = [get_reader(f.number, account).iter_all(account) for f in files]
            elif parallel and len(files) > 1:
                iters = self._engine._position_parallel(files, key, account)
            else:
                iters = [get_reader(f.number, account).seek(key, account) for f in files]
            if len(iters) == 1:
                yield from iters[0]
            elif iters:
                yield from merge_entries(iters, reverse)
