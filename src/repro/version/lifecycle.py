"""A store's files on its prefix, and the MANIFEST's life over them.

The one owner of these decisions, for the store, ``repair_store``,
``create_backup`` and the value log alike: file names (one counter
numbers sstables, WALs, value-log segments and MANIFESTs), creating a
MANIFEST, the live MANIFEST's retried torn-safe append and its rotation
(:class:`ManifestLog`), recovery (the edit fold, the counter scan, orphan
removal, the one WAL→memtable replay and its value-pointer check) and
the one way a built sstable reaches storage (:func:`write_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CorruptionError, StorageError, TransientIOError
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable import SSTableBuilder
from repro.sstable.format import ValuePointer
from repro.util.keys import KIND_VPTR
from repro.version.files import FileMetadata
from repro.version.manifest import ManifestReader, ManifestWriter, VersionEdit, set_current
from repro.wal import LogReader, LogWriter, decode_batch

#: The kinds of numbered file under a store's prefix: three suffixes and
#: the MANIFEST's name stem.
TABLE, WAL, SEGMENT, MANIFEST = ".sst", ".log", ".vlg", "MANIFEST-"


def file_name(prefix: str, number: int, kind: str) -> str:
    """The name of file ``number`` of ``kind`` under ``prefix``."""
    if kind == MANIFEST:
        return f"{prefix}{MANIFEST}{number:06d}"
    return f"{prefix}{number:06d}{kind}"


def numbered_files(
    storage: SimulatedStorage, prefix: str, kinds: Tuple[str, ...]
) -> List[Tuple[int, str]]:
    """``(number, name)`` of each file of one of ``kinds`` under ``prefix``, ascending."""
    stem = prefix + MANIFEST if MANIFEST in kinds else None
    out = []
    for name in storage.list_files(prefix):  # no name *ends* with MANIFEST
        if name.endswith(kinds):
            digits = name[len(prefix) : -4]
        elif stem is not None and name.startswith(stem):
            digits = name[len(stem) :]
        else:
            continue
        if digits.isdigit():
            out.append((int(digits), name))
    return sorted(out)


# ----------------------------------------------------------------------
# Creation and the live MANIFEST
# ----------------------------------------------------------------------
def create_manifest(
    storage: SimulatedStorage, prefix: str, number: int, edit: VersionEdit, account: IoAccount
) -> ManifestWriter:
    """Write MANIFEST ``number`` holding ``edit`` and point CURRENT at it:
    a fresh store, and one ``repair_store`` rebuilt."""
    writer = ManifestWriter(storage, file_name(prefix, number, MANIFEST))
    writer.append(edit, account)
    set_current(storage, writer.name, account, prefix)
    return writer


class ManifestLog:
    """A store's live MANIFEST: retried, torn-safe appends and rotation.

    ``errors`` is the store's :class:`~repro.engines.background.BackgroundErrors`
    (its retry loop, sticky error, tracer and registry).
    """

    def __init__(self, storage: SimulatedStorage, prefix: str, errors) -> None:
        self.storage = storage
        self.prefix = prefix
        self.errors = errors
        self.writer: Optional[ManifestWriter] = None
        #: Version edits already applied in memory whose append failed;
        #: :meth:`rotate` persists them into a fresh MANIFEST.
        self.pending: List[VersionEdit] = []
        #: Once an append fails, the file may end in a torn or unsynced
        #: record; further appends would be shadowed behind it at recovery,
        #: so they queue instead until :meth:`rotate` replaces the file.
        #: A held edit sets it too: the edits behind it keep their order.
        self.suspect = False

    def append(self, edit: VersionEdit, account: IoAccount) -> bool:
        """Append ``edit``, retrying transient faults that left no bytes.

        Returns False when the append did not durably reach storage: the
        edit is queued and the sticky background error is set.  Callers
        must then keep any on-storage state the *persisted* MANIFEST still
        references — input sstables and WALs — until resume() rotates.
        """
        if self.suspect:
            self.pending.append(edit)
            return False
        writer = self.writer
        assert writer is not None
        size = self.storage.size
        before = 0

        def attempt() -> None:
            nonlocal before
            before = size(writer.name)
            writer.append(edit, account)

        def retryable(exc: Exception) -> bool:
            # Bytes that landed despite the failure (a torn record, or a
            # full record whose sync failed) could be shadowed or
            # duplicated at recovery by a retry behind them.
            return isinstance(exc, TransientIOError) and size(writer.name) == before

        try:
            self.errors.retry("manifest_append", attempt, retryable=retryable)
            return True
        except (CorruptionError, StorageError) as exc:
            return self.hold(edit, "MANIFEST append", exc)

    def hold(self, edit: VersionEdit, kind: str, exc: Exception) -> bool:
        """Queue ``edit`` for :meth:`rotate` instead of appending it, after
        ``kind`` failed with ``exc``; sets the sticky background error and
        returns False (not durable), as a failed append does."""
        self.suspect = True
        self.pending.append(edit)
        self.errors.fail(kind, exc)
        return False

    def rotate(self, account: IoAccount, alloc_number: Callable[[], int]) -> None:
        """Persist queued edits by rewriting the MANIFEST, named with a
        number from the store's allocator ``alloc_number``.

        The old file may end in a torn or unsynced record, so queued edits
        cannot simply be appended — at recovery the reader stops at the
        bad record and everything behind it would be lost.  Instead the
        old file's intact records and the queued edits are written to a
        fresh MANIFEST and CURRENT flips atomically.
        """
        trc = self.errors.tracer()
        span = trc.span("manifest.rotate", pending=len(self.pending)) if trc is not None else None
        try:
            assert self.writer is not None
            storage = self.storage
            old_name = self.writer.name
            # strict: losing an *intact durable* record here would silently
            # rewrite history; a damaged one must fail the resume instead.
            records = list(LogReader(storage, old_name).records(account, strict=True))
            pending = [edit.encode() for edit in self.pending]
            if pending and records and records[-1] == pending[0]:
                # The "failed" append actually reached storage completely
                # (only its sync failed); don't write the edit twice.
                pending.pop(0)
            number = alloc_number()
            new_name = file_name(self.prefix, number, MANIFEST)
            try:
                log = LogWriter(storage, new_name)
                for payload in records + pending:
                    log.append(payload, account)
                # Persist the counter advanced by allocating the new MANIFEST's
                # own number; without this a post-crash recovery could re-bump
                # the counter to below it and a later rotation would append
                # onto the live MANIFEST, duplicating every edit.
                log.append(VersionEdit(next_file_number=number + 1).encode(), account)
                log.sync(account)
                set_current(storage, new_name, account, self.prefix)
            except (CorruptionError, StorageError):
                storage.delete(new_name, missing_ok=True)
                raise
            self.writer = ManifestWriter(storage, new_name)
            self.pending.clear()
            self.suspect = False
            storage.delete(old_name)
        finally:
            if span is not None:
                span.end()
        self.errors.registry.counter("manifest.rotations").inc()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveredVersion:
    """What folding a MANIFEST's edits yields besides the engine's layout."""

    last_sequence: int = 0
    next_file_number: int = 1
    #: WALs numbered below this hold nothing the version lacks.
    log_number: int = 0
    #: ``(level, number)`` of every live sstable.
    tables: Set[Tuple[int, int]] = field(default_factory=set)
    #: Value-log dead bytes per live segment, and the retired segments.
    vlog_dead: Dict[int, int] = field(default_factory=dict)
    vlog_deleted: Set[int] = field(default_factory=set)


def replay_manifest(
    storage: SimulatedStorage, name: str, account: IoAccount, engine=None
) -> RecoveredVersion:
    """Fold MANIFEST ``name``'s edits, re-installing guards through
    ``engine``'s ``_recover_guard*`` hooks and files into its level objects
    when one is given."""
    v = RecoveredVersion()
    for edit in ManifestReader(storage, name).edits(account):
        if edit.last_sequence is not None:
            v.last_sequence = max(v.last_sequence, edit.last_sequence)
        if edit.next_file_number is not None:
            v.next_file_number = max(v.next_file_number, edit.next_file_number)
        if edit.log_number is not None:
            v.log_number = max(v.log_number, edit.log_number)
        if engine is not None:
            levels = engine._levels
            for level, key in edit.new_guards:
                engine._recover_guard(level, key)
            for level, key in edit.deleted_guards:
                engine._recover_guard_deletion(level, key)
            for level, meta, _, _ in edit.new_files:
                levels[level].attach(meta)
            for level, number in edit.deleted_files:
                levels[level].detach(number)
        v.tables.update((level, meta.number) for level, meta, _, _ in edit.new_files)
        v.tables.difference_update(edit.deleted_files)
        for segment, dead in edit.vlog_dead:
            v.vlog_dead[segment] = v.vlog_dead.get(segment, 0) + dead
        for segment in edit.deleted_vlog_segments:
            v.vlog_deleted.add(segment)
            v.vlog_dead.pop(segment, None)
    return v


def next_file_number(storage: SimulatedStorage, prefix: str, floor: int) -> int:
    """The counter past every numbered file under ``prefix`` (and ``floor``).

    Files written by jobs that never committed may carry numbers beyond
    the persisted counter, and the live MANIFEST's number is allocated at
    rotation time: counting them keeps the counter ahead of both even
    when the crash landed before the counter was persisted.
    """
    numbers = numbered_files(storage, prefix, (TABLE, WAL, SEGMENT, MANIFEST))
    return max([floor] + [number + 1 for number, _ in numbers])


def remove_orphans(storage: SimulatedStorage, prefix: str, live: Set[int]) -> None:
    """Delete the sstables not in ``live`` (the recovered version's)."""
    for number, name in numbered_files(storage, prefix, (TABLE,)):
        if number not in live:
            storage.delete(name)


def replay_wals(
    storage: SimulatedStorage, prefix: str, log_number: int, account: IoAccount,
    mem, last_sequence: int, *, strict: bool, vlog,
) -> Tuple[List[str], int]:
    """Replay every WAL numbered ``log_number`` or above into ``mem``,
    skipping ops at or below the running ``last_sequence`` (durable in an
    sstable already); returns the logs read and the new ``last_sequence``.

    In ``strict`` mode (every acknowledged record was synced) a bad record
    *below* a log's durable boundary raises :class:`CorruptionError`
    instead of silently truncating; a torn unsynced tail stops normally.
    """
    names = [
        name for number, name in numbered_files(storage, prefix, (WAL,)) if number >= log_number
    ]
    for name in names:
        for record in LogReader(storage, name).records(account, strict=strict):
            seq, ops = decode_batch(record)
            # A batch whose pointer leads to a torn value-log record was
            # never acknowledged (acknowledged pointers sync their records
            # before the WAL record): it is dropped whole — batches are
            # atomic — while its sequence numbers are still burned.
            if batch_pointers_intact(vlog, seq, ops, account, strict):
                for i, (kind, key, value) in enumerate(ops):
                    if seq + i > last_sequence:
                        mem.add(seq + i, kind, key, value)
            last_sequence = max(last_sequence, seq + len(ops) - 1)
    return names, last_sequence


def batch_pointers_intact(
    vlog, seq: int, ops: List[Tuple[int, bytes, bytes]], account: IoAccount, strict: bool
) -> bool:
    """Validate every value pointer a replayed WAL batch carries.

    A pointer whose record fails to parse beyond its segment's synced
    boundary is the value-log half of a torn write — the batch is
    droppable (never acknowledged).  In strict mode a bad record *inside*
    the synced region means acknowledged data was damaged and recovery
    fails loudly, mirroring strict WAL replay.
    """
    if vlog is None:
        if any(kind == KIND_VPTR for kind, _, _ in ops):
            raise CorruptionError(
                "WAL contains value-log pointers but value separation "
                "is disabled; reopen with value_separation_bytes set"
            )
        return True
    for kind, key, value in ops:
        if kind != KIND_VPTR:
            continue
        try:
            pointer = ValuePointer.decode(bytes(value))
        except CorruptionError:
            return False
        if vlog.pointer_intact(pointer, account):
            continue
        if strict and pointer.offset + pointer.record_length <= vlog.synced_size(pointer.segment):
            raise CorruptionError(
                f"WAL batch at sequence {seq} references a damaged "
                f"value-log record inside the synced region of "
                f"segment {pointer.segment}"
            )
        return False
    return True


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def write_table(
    storage: SimulatedStorage, prefix: str, number: int, builder: SSTableBuilder,
    account: IoAccount, *, compression_ratio: float = 1.0, bloom: bool = True,
) -> FileMetadata:
    """Finish ``builder`` as sstable ``number``: create, append, sync.  A
    ``compression_ratio`` below 1 charges device IO at that ratio and the
    compression CPU; ``bloom`` keeps the filter on the returned metadata."""
    blob, props, filt = builder.finish()
    name = file_name(prefix, number, TABLE)
    storage.create(name, charge_factor=compression_ratio)
    if compression_ratio < 1.0:
        cpu = storage.cpu
        account.charge(cpu.charge("compress", cpu.compress_per_kb * len(blob) / 1024))
    storage.append(name, blob, account)
    storage.sync(name, account)
    return FileMetadata(
        number=number,
        smallest=props.smallest,
        largest=props.largest,
        file_size=props.file_size,
        num_entries=props.num_entries,
        largest_seq=props.largest_seq,
        bloom=filt if bloom else None,
    )
