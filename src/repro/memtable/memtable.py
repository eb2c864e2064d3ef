"""The in-memory write buffer.

Each entry is an internal key ``(user_key, sequence, kind)`` mapping to a
value (empty for tombstones).  ``get`` returns the newest visible version:
because internal keys order newest-first within a user key, the first entry
at or after ``(user_key, snapshot_seq)`` answers the lookup.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional, Tuple

from repro.util.keys import KIND_DELETE, KIND_PUT, KIND_SEEK, MAX_SEQUENCE, InternalKey
from repro.memtable.skiplist import SkipList

#: Approximate per-entry bookkeeping bytes (node + pointers), used for the
#: memory-budget flush trigger so simulated memtables fill like real ones.
_ENTRY_OVERHEAD = 24


class GetResult:
    """Outcome of a point lookup against one memtable or sstable.

    ``sequence`` is the version found; FLSM guards may hold several
    versions of a key across overlapping sstables, and the engine keeps
    the highest sequence among the candidates.
    """

    __slots__ = ("found", "is_deleted", "value", "sequence", "kind")

    def __init__(
        self,
        found: bool,
        is_deleted: bool,
        value: Optional[bytes],
        sequence: int = 0,
        kind: int = KIND_PUT,
    ) -> None:
        self.found = found
        self.is_deleted = is_deleted
        self.value = value
        self.sequence = sequence
        self.kind = kind


class Memtable:
    """Skip-list-backed buffer of recent writes."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._table = SkipList(seed, order_key=attrgetter("sort_key"))
        self._bytes = 0
        self.max_sequence = 0

    def __len__(self) -> int:
        return len(self._table)

    @property
    def approximate_bytes(self) -> int:
        """Estimated memory footprint (flush trigger input)."""
        return self._bytes

    # ------------------------------------------------------------------
    def add(self, sequence: int, kind: int, user_key: bytes, value: bytes) -> None:
        """Record one write."""
        ikey = InternalKey(user_key, sequence, kind)
        self._table.insert(ikey, value)
        self._bytes += len(user_key) + len(value) + _ENTRY_OVERHEAD
        if sequence > self.max_sequence:
            self.max_sequence = sequence

    def put(self, sequence: int, user_key: bytes, value: bytes) -> None:
        self.add(sequence, KIND_PUT, user_key, value)

    def delete(self, sequence: int, user_key: bytes) -> None:
        self.add(sequence, KIND_DELETE, user_key, b"")

    # ------------------------------------------------------------------
    def get(self, user_key: bytes, snapshot: int = MAX_SEQUENCE) -> GetResult:
        """Newest version of ``user_key`` visible at ``snapshot``."""
        probe = InternalKey(user_key, snapshot, KIND_SEEK)
        for ikey, value in self._table.seek(probe):
            if ikey.user_key != user_key:
                break
            if ikey.kind == KIND_DELETE:
                return GetResult(True, True, None, ikey.sequence)
            return GetResult(True, False, value, ikey.sequence, ikey.kind)
        return GetResult(False, False, None)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[InternalKey, bytes]]:
        """All entries in internal-key order (for flush and iterators)."""
        return iter(self._table)

    def seek(self, user_key: bytes) -> Iterator[Tuple[InternalKey, bytes]]:
        """Entries starting at the first internal key for ``user_key``."""
        return self._table.seek(InternalKey(user_key, MAX_SEQUENCE, KIND_SEEK))

    def reverse_iter(
        self, max_user_key: Optional[bytes] = None
    ) -> Iterator[Tuple[InternalKey, bytes]]:
        """All entries in descending internal-key order.

        Optionally bounded to user keys <= ``max_user_key``.  The skip
        list has no back pointers, so this materializes the (bounded)
        memtable contents — acceptable because memtables are small by
        construction.
        """
        entries = [
            (ikey, value)
            for ikey, value in self._table
            if max_user_key is None or ikey.user_key <= max_user_key
        ]
        return iter(reversed(entries))
