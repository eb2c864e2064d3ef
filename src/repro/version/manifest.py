"""MANIFEST log: durable record of metadata changes.

Each :class:`VersionEdit` is one framed record in a MANIFEST file (reusing
the WAL framing).  The ``CURRENT`` file names the live MANIFEST and is
replaced atomically, so recovery always starts from a complete manifest.

Guard metadata (FLSM) travels in the same edits as file metadata, giving
guards the same crash-consistency guarantees as sstables — a guard is
committed exactly when the compaction that partitioned data by it commits
(paper sections 3.3 and 4.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import CorruptionError
from repro.sim.storage import IoAccount, SimulatedStorage
from repro.version.files import FileMetadata
from repro.util.varint import decode_varint32, decode_varint64, encode_varint32, encode_varint64
from repro.wal.log import LogReader, LogWriter

CURRENT_NAME = "CURRENT"

_TAG_LAST_SEQUENCE = 1
_TAG_NEXT_FILE = 2
_TAG_LOG_NUMBER = 3
_TAG_NEW_FILE = 4
_TAG_DELETED_FILE = 5
_TAG_NEW_GUARD = 6
_TAG_DELETED_GUARD = 7
_TAG_VLOG_DEAD = 8
_TAG_DELETED_VLOG = 9

#: Guard association of a new file: none (plain LSM level or Level 0),
#: the sentinel guard, or a named guard key.
GUARD_NONE = 0
GUARD_SENTINEL = 1
GUARD_KEY = 2


@dataclass
class VersionEdit:
    """One atomic batch of metadata changes."""

    last_sequence: Optional[int] = None
    next_file_number: Optional[int] = None
    log_number: Optional[int] = None
    #: (level, metadata, guard_marker, guard_key) — marker is one of the
    #: GUARD_* constants; guard_key is b"" unless marker == GUARD_KEY.
    new_files: List[Tuple[int, FileMetadata, int, bytes]] = field(default_factory=list)
    deleted_files: List[Tuple[int, int]] = field(default_factory=list)
    new_guards: List[Tuple[int, bytes]] = field(default_factory=list)
    deleted_guards: List[Tuple[int, bytes]] = field(default_factory=list)
    #: Value-log liveness deltas ``(segment, dead_bytes_added)`` and
    #: retired segments.  Empty lists encode to nothing, so stores with
    #: separation disabled produce byte-identical MANIFESTs to before
    #: these tags existed.
    vlog_dead: List[Tuple[int, int]] = field(default_factory=list)
    deleted_vlog_segments: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_file(
        self,
        level: int,
        meta: FileMetadata,
        guard_marker: int = GUARD_NONE,
        guard_key: bytes = b"",
    ) -> None:
        self.new_files.append((level, meta, guard_marker, guard_key))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.append((level, number))

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        buf = bytearray()
        if self.last_sequence is not None:
            buf.append(_TAG_LAST_SEQUENCE)
            buf += encode_varint64(self.last_sequence)
        if self.next_file_number is not None:
            buf.append(_TAG_NEXT_FILE)
            buf += encode_varint64(self.next_file_number)
        if self.log_number is not None:
            buf.append(_TAG_LOG_NUMBER)
            buf += encode_varint64(self.log_number)
        for level, meta, marker, guard_key in self.new_files:
            buf.append(_TAG_NEW_FILE)
            buf += encode_varint32(level)
            buf.append(marker)
            if marker == GUARD_KEY:
                buf += encode_varint32(len(guard_key))
                buf += guard_key
            buf += meta.encode()
        for level, number in self.deleted_files:
            buf.append(_TAG_DELETED_FILE)
            buf += encode_varint32(level)
            buf += encode_varint64(number)
        for level, key in self.new_guards:
            buf.append(_TAG_NEW_GUARD)
            buf += encode_varint32(level)
            buf += encode_varint32(len(key))
            buf += key
        for level, key in self.deleted_guards:
            buf.append(_TAG_DELETED_GUARD)
            buf += encode_varint32(level)
            buf += encode_varint32(len(key))
            buf += key
        for segment, dead in self.vlog_dead:
            buf.append(_TAG_VLOG_DEAD)
            buf += encode_varint64(segment)
            buf += encode_varint64(dead)
        for segment in self.deleted_vlog_segments:
            buf.append(_TAG_DELETED_VLOG)
            buf += encode_varint64(segment)
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes) -> "VersionEdit":
        edit = cls()
        offset = 0
        while offset < len(data):
            tag = data[offset]
            offset += 1
            if tag == _TAG_LAST_SEQUENCE:
                edit.last_sequence, offset = decode_varint64(data, offset)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, offset = decode_varint64(data, offset)
            elif tag == _TAG_LOG_NUMBER:
                edit.log_number, offset = decode_varint64(data, offset)
            elif tag == _TAG_NEW_FILE:
                level, offset = decode_varint32(data, offset)
                if offset >= len(data):
                    raise CorruptionError("version edit truncated (guard marker)")
                marker = data[offset]
                offset += 1
                guard_key = b""
                if marker == GUARD_KEY:
                    glen, offset = decode_varint32(data, offset)
                    guard_key = data[offset : offset + glen]
                    if len(guard_key) != glen:
                        raise CorruptionError("version edit truncated (guard key)")
                    offset += glen
                elif marker not in (GUARD_NONE, GUARD_SENTINEL):
                    raise CorruptionError(f"bad guard marker: {marker}")
                meta, offset = FileMetadata.decode(data, offset)
                edit.new_files.append((level, meta, marker, guard_key))
            elif tag == _TAG_DELETED_FILE:
                level, offset = decode_varint32(data, offset)
                number, offset = decode_varint64(data, offset)
                edit.deleted_files.append((level, number))
            elif tag in (_TAG_NEW_GUARD, _TAG_DELETED_GUARD):
                level, offset = decode_varint32(data, offset)
                klen, offset = decode_varint32(data, offset)
                key = data[offset : offset + klen]
                if len(key) != klen:
                    raise CorruptionError("version edit truncated (guard)")
                offset += klen
                if tag == _TAG_NEW_GUARD:
                    edit.new_guards.append((level, key))
                else:
                    edit.deleted_guards.append((level, key))
            elif tag == _TAG_VLOG_DEAD:
                segment, offset = decode_varint64(data, offset)
                dead, offset = decode_varint64(data, offset)
                edit.vlog_dead.append((segment, dead))
            elif tag == _TAG_DELETED_VLOG:
                segment, offset = decode_varint64(data, offset)
                edit.deleted_vlog_segments.append(segment)
            else:
                raise CorruptionError(f"unknown version edit tag: {tag}")
        return edit


class ManifestWriter:
    """Appends version edits to a MANIFEST file."""

    def __init__(self, storage: SimulatedStorage, name: str) -> None:
        self._log = LogWriter(storage, name)
        self.name = name

    def append(self, edit: VersionEdit, account: IoAccount, *, sync: bool = True) -> None:
        self._log.append(edit.encode(), account, sync=sync)


class ManifestReader:
    """Replays the version edits of a MANIFEST file.

    Replay is *strict* by default: every committed edit is synced before
    its installation is acknowledged, so a corrupt record below the
    file's durable boundary means version metadata was lost — silently
    stopping there would recover a stale-but-plausible version and serve
    old data.  Damage at or past the boundary is a torn tail from a
    crash mid-append and ends replay normally.
    """

    def __init__(self, storage: SimulatedStorage, name: str) -> None:
        self._storage = storage
        self.name = name

    def edits(self, account: IoAccount, *, strict: bool = True):
        reader = LogReader(self._storage, self.name)
        for record in reader.records(account, strict=strict):
            yield VersionEdit.decode(record)


def set_current(
    storage: SimulatedStorage, manifest_name: str, account: IoAccount, prefix: str = ""
) -> None:
    """Atomically point CURRENT at ``manifest_name``."""
    current = prefix + CURRENT_NAME
    tmp = current + ".tmp"
    storage.delete(tmp, missing_ok=True)
    storage.create(tmp)
    storage.append(tmp, manifest_name.encode("utf-8"), account)
    storage.sync(tmp, account)
    storage.rename(tmp, current)


def read_current(
    storage: SimulatedStorage, account: IoAccount, prefix: str = ""
) -> Optional[str]:
    """Name of the live MANIFEST, or None for a fresh store."""
    current = prefix + CURRENT_NAME
    if not storage.exists(current):
        return None
    raw = storage.read(current, 0, storage.size(current), account, sequential=True)
    name = raw.decode("utf-8")
    if not name:
        raise CorruptionError("empty CURRENT file")
    return name
