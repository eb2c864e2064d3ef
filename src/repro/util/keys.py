"""Internal-key codec shared by memtable, sstables, and iterators.

LSM-family stores never update in place: each ``put``/``delete`` appends a
new *internal key* ``(user_key, sequence, kind)`` where ``sequence`` is a
store-wide monotonically increasing version number and ``kind`` marks the
record as a value or a tombstone.  Ordering is ``user_key`` ascending, then
``sequence`` *descending*, so a forward scan meets the newest version of
each user key first.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import CorruptionError

KIND_DELETE = 0
KIND_PUT = 1
#: A put whose value is a :class:`repro.vlog.ValuePointer` into the value
#: log rather than the user bytes.  Travels through memtable, WAL,
#: sstables, and compaction exactly like a put; read paths resolve it.
KIND_VPTR = 2
#: Kind used when building *probe* keys.  Ordering negates the kind, so a
#: probe at snapshot ``s`` must carry the highest kind or it would sort
#: after (and a seek would skip) a same-sequence entry of a higher kind.
KIND_SEEK = KIND_VPTR

#: Largest representable sequence number (56 bits, as in LevelDB).
MAX_SEQUENCE = (1 << 56) - 1

_TRAILER_LEN = 8


class InternalKey:
    """A versioned key.  Orders by (user_key asc, sequence desc).

    ``sort_key`` is that order as a plain tuple, built once here: merge
    heaps and bisects key on it so their comparisons never leave C.
    """

    __slots__ = ("user_key", "sequence", "kind", "sort_key")

    def __init__(self, user_key: bytes, sequence: int, kind: int) -> None:
        if not 0 <= sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence out of range: {sequence}")
        if kind not in (KIND_DELETE, KIND_PUT, KIND_VPTR):
            raise ValueError(f"bad kind: {kind}")
        self.user_key = user_key
        self.sequence = sequence
        self.kind = kind
        # Negating the sequence makes plain tuple comparison give the
        # newest-first order within a user key.
        self.sort_key: Tuple[bytes, int, int] = (user_key, -sequence, -kind)

    def __lt__(self, other: "InternalKey") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "InternalKey") -> bool:
        return self.sort_key <= other.sort_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InternalKey):
            return NotImplemented
        return (
            self.user_key == other.user_key
            and self.sequence == other.sequence
            and self.kind == other.kind
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {KIND_PUT: "PUT", KIND_DELETE: "DEL", KIND_VPTR: "VPTR"}[self.kind]
        return f"InternalKey({self.user_key!r}, seq={self.sequence}, {kind})"


def pack_internal_key(key: InternalKey) -> bytes:
    """Serialize to ``user_key + 8-byte little-endian (seq << 8 | kind)``."""
    trailer = (key.sequence << 8) | key.kind
    return key.user_key + trailer.to_bytes(_TRAILER_LEN, "little")


def unpack_internal_key(data: bytes) -> InternalKey:
    """Inverse of :func:`pack_internal_key`."""
    if len(data) < _TRAILER_LEN:
        raise CorruptionError("internal key shorter than trailer")
    trailer = int.from_bytes(data[-_TRAILER_LEN:], "little")
    kind = trailer & 0xFF
    sequence = trailer >> 8
    if kind not in (KIND_DELETE, KIND_PUT, KIND_VPTR):
        raise CorruptionError(f"bad internal key kind: {kind}")
    return InternalKey(data[:-_TRAILER_LEN], sequence, kind)
