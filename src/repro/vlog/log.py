"""Append-only, segment-rotated value log (WiscKey/BVLSM-style).

Large values leave the LSM tree at WAL-append time: the value body goes
into the active value-log segment and the tree carries only a
:class:`~repro.sstable.format.ValuePointer` under a ``KIND_VPTR``
internal key.  Records are CRC-framed like WAL records, so a torn or
bit-flipped record is detected at read time rather than returned as
data::

    masked_crc(4) | klen(4) | vlen(4) | sequence(8) | key | value

The key and sequence ride along for garbage collection and repair: a
segment is self-describing without consulting the tree.

Liveness is counter-based.  Every record appended adds to its segment's
``data_bytes``; every pointer a compaction drops (shadowed version,
dropped tombstone target) or relocates adds the record's length to
``dead_bytes``.  The deltas travel in MANIFEST version edits, so the
counters — and therefore segment retirement — replay deterministically
at recovery.  A segment retires when every byte in it is dead; a *cold*
segment (``dead_bytes/data_bytes >= vlog_gc_dead_ratio``) has its live
pointers relocated by the next compaction that rewrites their key
range, which is what drives it to fully dead.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import CorruptionError
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.sstable.format import ValuePointer
from repro.util.crc import crc32c, mask_crc, unmask_crc
from repro.util.keys import KIND_VPTR
from repro.version.lifecycle import SEGMENT, file_name, numbered_files

#: ``masked_crc(4) | klen(4) | vlen(4) | sequence(8)``
_HEADER_SIZE = 20


def encode_record(key: bytes, value: bytes, sequence: int) -> bytes:
    body = (
        len(key).to_bytes(4, "little")
        + len(value).to_bytes(4, "little")
        + sequence.to_bytes(8, "little")
        + key
        + value
    )
    return mask_crc(crc32c(body)).to_bytes(4, "little") + body


def decode_record(data: bytes) -> Tuple[bytes, bytes, int]:
    """Verify and parse one record; returns ``(key, value, sequence)``."""
    if len(data) < _HEADER_SIZE:
        raise CorruptionError("value-log record shorter than its header")
    stored = unmask_crc(int.from_bytes(data[0:4], "little"))
    body = memoryview(data)[4:]
    if crc32c(body) != stored:
        raise CorruptionError("value-log record checksum mismatch")
    klen = int.from_bytes(body[0:4], "little")
    vlen = int.from_bytes(body[4:8], "little")
    sequence = int.from_bytes(body[8:16], "little")
    if 16 + klen + vlen != len(body):
        raise CorruptionError("value-log record length mismatch")
    key = bytes(body[16 : 16 + klen])
    value = bytes(body[16 + klen : 16 + klen + vlen])
    return key, value, sequence


class SegmentState:
    """Liveness counters for one value-log segment."""

    __slots__ = ("number", "data_bytes", "dead_bytes")

    def __init__(self, number: int, data_bytes: int = 0, dead_bytes: int = 0) -> None:
        self.number = number
        self.data_bytes = data_bytes
        self.dead_bytes = dead_bytes


class ValueLog:
    """The store's value log: active-segment appends, reads, retirement.

    File numbers come from the owning store's allocator so segment names
    never collide with sstables or WALs; ``alloc_number`` is that
    allocator.  The doom/pin mechanism mirrors the store's sstable
    lifecycle: while any iterator is live (``pin``), retired segments are
    merely doomed and the files are deleted at the last ``unpin``, so an
    in-flight scan never loses a segment a GC pass just relocated out of.
    """

    def __init__(
        self,
        storage: SimulatedStorage,
        prefix: str,
        *,
        segment_bytes: int,
        gc_dead_ratio: float,
        alloc_number: Callable[[], int],
    ) -> None:
        self._storage = storage
        self._prefix = prefix
        self._segment_bytes = segment_bytes
        self._gc_dead_ratio = gc_dead_ratio
        self._alloc_number = alloc_number
        self._segments: Dict[int, SegmentState] = {}
        self._active: Optional[int] = None
        self._active_offset = 0
        self._pins = 0
        self._doomed: Set[int] = set()
        #: Dead bytes from abandoned work (failed write batches, faulted
        #: compaction attempts) not yet persisted in a MANIFEST edit;
        #: drained into the next job commit.
        self._stray_dead: Dict[int, int] = {}
        # Monotonic counters surfaced through the store's metrics.
        self.bytes_written = 0
        self.records_written = 0
        self.gc_relocated_bytes = 0
        self.gc_relocated_records = 0
        self.segments_retired = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def segment_numbers(self) -> List[int]:
        return sorted(self._segments)

    @property
    def active_segment(self) -> Optional[int]:
        return self._active

    def data_bytes(self) -> int:
        return sum(s.data_bytes for s in self._segments.values())

    def dead_bytes(self) -> int:
        return sum(s.dead_bytes for s in self._segments.values())

    def state_line(self) -> str:
        """The ``repro.vlog`` property text."""
        return (
            f"segments={len(self._segments)} "
            f"active={self._active if self._active is not None else '-'} "
            f"data-bytes={self.data_bytes()} dead-bytes={self.dead_bytes()} "
            f"written={self.bytes_written} relocated={self.gc_relocated_bytes} "
            f"retired={self.segments_retired}"
        )

    def is_cold(self, segment: int) -> bool:
        """True when a compaction touching this segment should relocate.

        The active segment is never cold: it is still growing, and
        relocating out of it would chase a moving target.
        """
        if segment == self._active:
            return False
        state = self._segments.get(segment)
        if state is None or state.data_bytes == 0:
            return False
        return state.dead_bytes >= self._gc_dead_ratio * state.data_bytes

    def cold_segments(self) -> Set[int]:
        return {n for n in self._segments if self.is_cold(n)}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self, key: bytes, value: bytes, sequence: int, account: IoAccount
    ) -> ValuePointer:
        """Append one record; returns the pointer that locates it.

        The in-memory offset commits only after the storage append
        succeeds, exactly like the WAL writer: a torn append leaves the
        writer consistent with what actually landed (the caller then
        clears the torn tail from its view via :meth:`abandon_tail`).
        """
        if self._active is None:
            self._open_segment()
        assert self._active is not None
        record = encode_record(key, value, sequence)
        name = file_name(self._prefix, self._active, SEGMENT)
        offset = self._active_offset
        self._storage.append(name, record, account)
        self._active_offset = offset + len(record)
        state = self._segments[self._active]
        state.data_bytes += len(record)
        self.bytes_written += len(record)
        self.records_written += 1
        pointer = ValuePointer(self._active, offset, len(record), len(value))
        if self._active_offset >= self._segment_bytes:
            self._rotate(account)
        return pointer

    def _open_segment(self) -> None:
        number = self._alloc_number()
        name = file_name(self._prefix, number, SEGMENT)
        if not self._storage.exists(name):
            self._storage.create(name)
        self._segments[number] = SegmentState(number)
        self._active = number
        self._active_offset = 0

    def _rotate(self, account: IoAccount) -> None:
        """Seal the active segment (synced: later pointers into it may be
        acknowledged while only the new active segment gets synced)."""
        assert self._active is not None
        self._storage.sync(file_name(self._prefix, self._active, SEGMENT), account)
        self._active = None
        self._active_offset = 0

    def sync(self, account: IoAccount) -> None:
        """Make every record appended so far durable.

        Rotation syncs sealed segments, so only the active one can hold
        unsynced bytes; called before the WAL sync that acknowledges the
        pointers, which is what makes "WAL record durable implies its
        vlog records durable" an invariant.
        """
        if self._active is not None:
            self._storage.sync(file_name(self._prefix, self._active, SEGMENT), account)

    def abandon_tail(self, pointers: List[ValuePointer]) -> None:
        """Recover from a failed append or an abandoned write batch.

        Resynchronizes the writer's offset with what actually landed (a
        torn append may have left partial bytes) and counts the records
        behind ``pointers`` — appended successfully but never referenced
        by an acknowledged write — as stray dead bytes.
        """
        if self._active is not None:
            name = file_name(self._prefix, self._active, SEGMENT)
            size = self._storage.size(name) if self._storage.exists(name) else 0
            torn = size - self._active_offset
            if torn > 0:
                # Torn bytes occupy the file but can never be referenced:
                # count them as data *and* stray dead so they neither skew
                # liveness nor block the segment's eventual retirement.
                self._segments[self._active].data_bytes += torn
                self.note_stray_dead(self._active, torn)
                self._active_offset = size
        for pointer in pointers:
            self.note_stray_dead(pointer.segment, pointer.record_length)

    def note_stray_dead(self, segment: int, nbytes: int) -> None:
        self._stray_dead[segment] = self._stray_dead.get(segment, 0) + nbytes

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_record(
        self, pointer: ValuePointer, account: IoAccount
    ) -> Tuple[bytes, bytes, int]:
        """Resolve a pointer to ``(key, value, sequence)`` (CRC-checked)."""
        name = file_name(self._prefix, pointer.segment, SEGMENT)
        if not self._storage.exists(name):
            raise CorruptionError(
                f"value pointer into missing segment {pointer.segment}"
            )
        if pointer.offset + pointer.record_length > self._storage.size(name):
            raise CorruptionError(
                f"value pointer overruns segment {pointer.segment}"
            )
        data = self._storage.read(
            name, pointer.offset, pointer.record_length, account
        )
        key, value, sequence = decode_record(bytes(data))
        if len(value) != pointer.value_length:
            raise CorruptionError("value pointer length mismatch")
        return key, value, sequence

    def read_value(self, pointer: ValuePointer, account: IoAccount) -> bytes:
        return self.read_record(pointer, account)[1]

    def pointer_intact(self, pointer: ValuePointer, account: IoAccount) -> bool:
        """True when the pointed-to record parses cleanly (WAL replay)."""
        try:
            self.read_record(pointer, account)
            return True
        except CorruptionError:
            return False

    def synced_size(self, segment: int) -> int:
        name = file_name(self._prefix, segment, SEGMENT)
        return self._storage.synced_size(name) if self._storage.exists(name) else 0

    # ------------------------------------------------------------------
    # Pinning and retirement
    # ------------------------------------------------------------------
    def pin(self) -> None:
        self._pins += 1

    def unpin(self) -> None:
        self._pins -= 1
        if self._pins <= 0:
            self._pins = 0
            while self._doomed:
                self._delete_segment(self._doomed.pop())

    def retire_segment(self, segment: int) -> None:
        """Delete a fully-dead segment (deferred while iterators pin it)."""
        self._segments.pop(segment, None)
        self.segments_retired += 1
        if self._pins > 0:
            self._doomed.add(segment)
        else:
            self._delete_segment(segment)

    def _delete_segment(self, segment: int) -> None:
        self._storage.delete(file_name(self._prefix, segment, SEGMENT), missing_ok=True)

    # ------------------------------------------------------------------
    # Job commit (runs at compaction apply time, before the MANIFEST append)
    # ------------------------------------------------------------------
    def commit_job(
        self, dead: Dict[int, int], edit
    ) -> List[int]:
        """Fold a job's dead-byte deltas and decide retirements.

        Merges the job's deltas with any stray dead bytes, applies them
        to the in-memory counters, records them on ``edit`` (so recovery
        replays the same counters), and returns the segments that are now
        fully dead — the caller deletes them once the edit is durable.
        """
        merged = dict(self._stray_dead)
        self._stray_dead = {}
        for segment, nbytes in dead.items():
            merged[segment] = merged.get(segment, 0) + nbytes
        retirable: List[int] = []
        for segment in sorted(merged):
            state = self._segments.get(segment)
            if state is None:
                continue  # already retired (stale stray entry)
            state.dead_bytes += merged[segment]
            edit.vlog_dead.append((segment, merged[segment]))
            if (
                segment != self._active
                and state.data_bytes > 0
                and state.dead_bytes >= state.data_bytes
            ):
                retirable.append(segment)
        edit.deleted_vlog_segments.extend(retirable)
        return retirable

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        dead_by_segment: Dict[int, int],
        deleted_segments: Set[int],
    ) -> None:
        """Rebuild segment state from disk plus replayed MANIFEST edits.

        Segments present on disk register with ``data_bytes = file
        size`` — a torn tail from a crash is conservatively counted as
        live, so GC can only under-collect, never free a referenced
        record.  Segments the MANIFEST retired but whose files survived
        the crash are deleted; dead counters for segments missing from
        disk are pruned.  The newest surviving segment resumes as the
        active one (appends continue at its tail).
        """
        on_disk: List[int] = []
        for number, name in numbered_files(self._storage, self._prefix, (SEGMENT,)):
            if number in deleted_segments:
                self._storage.delete(name)
                continue
            on_disk.append(number)
        self._segments = {}
        for number in sorted(on_disk):
            size = self._storage.size(file_name(self._prefix, number, SEGMENT))
            self._segments[number] = SegmentState(
                number, size, min(dead_by_segment.get(number, 0), size)
            )
        if self._segments:
            newest = max(self._segments)
            size = self._segments[newest].data_bytes
            if size < self._segment_bytes:
                self._active = newest
                self._active_offset = size
            else:
                self._active = None
                self._active_offset = 0


class VlogCompactionContext:
    """Per-compaction-job value-log GC state.

    Created fresh for every compute attempt (a faulted attempt's
    relocations are abandoned as stray dead, so retries never
    double-count), wrapped around the job's output stream via
    :meth:`rewrite`, passed as ``on_drop`` to ``compaction_iterator``,
    then committed at apply time: :meth:`commit` before the MANIFEST
    append (folding counters into the edit), :meth:`retire` after it
    (durable-gated deletion).
    """

    def __init__(
        self,
        vlog: ValueLog,
        account: IoAccount,
        cold_segments: Optional[Set[int]] = None,
    ) -> None:
        self._vlog = vlog
        self._account = account
        self._cold = vlog.cold_segments() if cold_segments is None else cold_segments
        self.dead: Dict[int, int] = {}
        #: Pointers appended by relocation this attempt; become stray
        #: dead if the attempt is abandoned.
        self._appended: List[ValuePointer] = []
        self.relocated_bytes = 0
        self.relocated_records = 0
        self._retirable: List[int] = []

    @property
    def seconds(self) -> float:
        """Device seconds charged to this context's (GC) account.

        Compaction jobs add this to their own account's seconds when
        computing the job duration, so splitting GC IO into its own
        ledger account does not change the simulated timeline.
        """
        return self._account.seconds

    def rewrite(self, stream: Iterator) -> Iterator:
        """Relocate surviving pointers that lead into cold segments.

        The old record's bytes become dead (it now has a fresh copy in
        the active segment), which is what drives a cold segment toward
        fully-dead and retirement.

        An untouched entry goes on as the object it came in as (encoded
        record and all); a relocated one is a new ``(key, value)``, so
        the record of the old pointer is dropped with it.
        """
        vlog = self._vlog
        cold = self._cold
        for entry in stream:
            key = entry[0]
            if key.kind == KIND_VPTR:
                pointer = ValuePointer.decode(bytes(entry[1]))
                if pointer.segment in cold:
                    _, user_value, _ = vlog.read_record(pointer, self._account)
                    new_pointer = vlog.append(
                        key.user_key, user_value, key.sequence, self._account
                    )
                    self._appended.append(new_pointer)
                    self._note_dead(pointer)
                    self.relocated_bytes += pointer.value_length
                    self.relocated_records += 1
                    yield key, new_pointer.encode()
                    continue
            yield entry

    def on_drop(self, key, value) -> None:
        """``compaction_iterator`` drop hook: a dropped pointer's record
        is dead."""
        if key.kind == KIND_VPTR:
            self._note_dead(ValuePointer.decode(bytes(value)))

    def _note_dead(self, pointer: ValuePointer) -> None:
        self.dead[pointer.segment] = (
            self.dead.get(pointer.segment, 0) + pointer.record_length
        )

    def abandon(self) -> None:
        """Discard this attempt: relocated copies become stray dead."""
        for pointer in self._appended:
            self._vlog.note_stray_dead(pointer.segment, pointer.record_length)
        self._appended = []
        self.dead = {}
        self.relocated_bytes = 0
        self.relocated_records = 0

    def commit(
        self, edit, retry: Callable[[str, Callable[[], None]], None] = lambda kind, step: step()
    ) -> None:
        """Fold counters into ``edit``, then sync the relocated records;
        call before the MANIFEST append, which must never land ahead of
        the records the edit's new sstables make reachable.

        ``retry(kind, step)`` runs the sync (a store passes its transient-
        fault retry loop).  Only the sync is retried, as the folding is not
        idempotent; a sync fault it gives up on is raised with the counters
        already folded, and the caller must keep ``edit`` out of the
        MANIFEST until the value log syncs.
        """
        appended, self._appended = self._appended, []
        self._vlog.gc_relocated_bytes += self.relocated_bytes
        self._vlog.gc_relocated_records += self.relocated_records
        self._retirable = self._vlog.commit_job(self.dead, edit)
        self.dead = {}
        if appended:
            retry("vlog_sync", partial(self._vlog.sync, self._account))

    def retire(self, durable: bool) -> List[int]:
        """Delete (or defer) the segments :meth:`commit` found fully dead.

        Returns the deferred segment numbers when ``durable`` is False:
        crash recovery would replay the pre-edit version, whose sstables
        still hold pointers into them, so the caller queues the deletion
        until the edit is durable (mirroring sstable retirement).
        """
        retirable, self._retirable = self._retirable, []
        if durable:
            for segment in retirable:
                self._vlog.retire_segment(segment)
            return []
        return retirable
