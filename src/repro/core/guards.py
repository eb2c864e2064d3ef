"""Levels: guards, the skip-list-inspired partitioning of FLSM levels, and
the sorted level of a leveled LSM.

A guard with key *K* at level *i* owns every sstable whose keys fall in
``[K, K_next)`` where ``K_next`` is the next guard key of that level; keys
below the first guard belong to the *sentinel* guard (paper section 3.1).
Guards of level *i* are a subset of the guards of level *i+1* — the
skip-list property — which follows automatically from the selection rule:

    a key guards level *i* iff its MurmurHash has at least
    ``top_level_bits - (i-1) * bit_decrement`` consecutive set
    least-significant bits (paper section 4.4).

Within a level, guard ranges are disjoint; the sstables *inside* one guard
may overlap freely — that is what lets compaction append fragments instead
of rewriting, and it is the invariant difference between FLSM and LSM.

:class:`GuardedLevel` (FLSM) and :class:`SortedLevel` (leveled LSM) answer
one protocol, all a store asks of a level:

* ``attach(meta)`` / ``detach(number)`` — the only mutations of its files;
* ``all_files()`` — every file in search order: runs in key order, the
  files of one run newest first;
* ``size_bytes`` / ``num_files`` — kept as counters, never re-summed;
* ``runs(key, reverse)`` — the level as immutable key-ordered runs (the
  files of a run may overlap, two runs never do), and the index of the run
  covering ``key``: forward, the first run that may hold keys at or after
  it; reverse, the last that may hold keys at or before it; ``key`` None,
  the last run.  The runs are empty when the level has nothing to bisect;
* ``check_invariants()`` — its layout rule and every counter against a
  recomputation.

A guardless :class:`GuardedLevel` is Level 0 of either engine: one run of
overlapping files in flush order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.util.murmur import murmur3_64
from repro.version.files import FileMetadata


def trailing_set_bits(value: int) -> int:
    """Number of consecutive set least-significant bits of ``value``."""
    # ``value + 1`` carries through the run of ones and sets the bit above
    # it; ``& ~value`` leaves that bit alone, and its index is the count.
    return (~value & (value + 1)).bit_length() - 1


class GuardPicker:
    """Decides, per inserted key, the shallowest level it guards (if any)."""

    def __init__(self, top_level_bits: int, bit_decrement: int, num_levels: int) -> None:
        if top_level_bits < 1 or bit_decrement < 0:
            raise ValueError("bad guard picker parameters")
        self.top_level_bits = top_level_bits
        self.bit_decrement = bit_decrement
        self.num_levels = num_levels
        #: The rule of :meth:`guard_level` as a table: the shallowest level
        #: a 32-bit hash with ``i`` set low bits guards.  ``required_bits``
        #: falls with depth, so the first level it admits is the answer.
        self._level_of_bits: List[Optional[int]] = [
            next(
                (lvl for lvl in range(1, num_levels) if bits >= self.required_bits(lvl)),
                None,
            )
            for bits in range(33)
        ]

    def required_bits(self, level: int) -> int:
        """Set LSBs required to guard ``level`` (levels are 1-based)."""
        return max(1, self.top_level_bits - (level - 1) * self.bit_decrement)

    def guard_level(self, key: bytes) -> Optional[int]:
        """Shallowest level ``key`` guards, or None.

        By construction a guard at level *i* is a guard at every level
        > *i*, because ``required_bits`` decreases with depth.
        """
        # The low half of the memoized bloom digest *is* murmur3_32(key):
        # the hash a put pays here is the one its flush and every later
        # compaction reuse, and an overwrite hashes nothing.
        return self._level_of_bits[trailing_set_bits(murmur3_64(key) & 0xFFFFFFFF)]


class Guard:
    """One guard: its key and the sstables attached to it.

    ``key`` is None for the sentinel guard.  ``files`` is an immutable
    tuple in append order: data only ever arrives by appending the output
    of a compaction of a *whole* upper guard, so later files hold newer
    versions.  Only the owning :class:`GuardedLevel` replaces ``files``
    (and keeps ``size_bytes`` in step); everyone else reads.
    """

    __slots__ = ("key", "files", "size_bytes")

    def __init__(self, key: Optional[bytes]) -> None:
        self.key = key
        self.files: Tuple[FileMetadata, ...] = ()
        self.size_bytes = 0

    @property
    def is_sentinel(self) -> bool:
        return self.key is None

    @property
    def num_files(self) -> int:
        return len(self.files)

    @property
    def num_entries(self) -> int:
        return sum(f.num_entries for f in self.files)


class LevelView(NamedTuple):
    """Immutable picture of one level's guards, as iterators capture it.

    ``files[0]`` is the sentinel's file tuple and ``files[i + 1]`` that of
    the guard keyed ``keys[i]``.
    """

    keys: Tuple[bytes, ...]
    files: Tuple[Tuple[FileMetadata, ...], ...]

    def covering(self, user_key: bytes) -> int:
        """Index into ``files`` of the guard covering ``user_key``."""
        return bisect_right(self.keys, user_key)


class GuardedLevel:
    """The guards of one FLSM level, ordered by guard key.

    The only place guard file tuples change: :meth:`attach`,
    :meth:`detach`, the split in :meth:`add_guard` and the absorption in
    :meth:`remove_guard`.  Each keeps the level's byte and file counts,
    the empty-guard count, the over-full set and the cached
    :class:`LevelView` current, so readers never walk the guards to sum.
    ``overfull_files`` is the file count from which a guard is reported
    by :meth:`overfull_guards` (``max_sstables_per_guard``, section 3.5).
    """

    def __init__(self, level: int, overfull_files: int = 2) -> None:
        self.level = level
        self.sentinel = Guard(None)
        self._keys: List[bytes] = []
        #: Guards in key order, sentinel first: ``_order[i + 1]`` is the
        #: guard keyed ``_keys[i]``.
        self._order: List[Guard] = [self.sentinel]
        self._by_number: Dict[int, FileMetadata] = {}
        self._size_bytes = 0
        #: Non-sentinel guards holding no file.
        self.empty_guards = 0
        self._overfull_files = overfull_files
        self._overfull: Set[Guard] = set()
        self._view: Optional[LevelView] = None

    # ------------------------------------------------------------------
    @property
    def guard_keys(self) -> List[bytes]:
        return list(self._keys)

    def __len__(self) -> int:
        """Number of non-sentinel guards."""
        return len(self._keys)

    def guards(self) -> Iterator[Guard]:
        """All guards in key order, sentinel first."""
        return iter(self._order)

    def overfull_guards(self) -> List[Guard]:
        """Guards holding at least ``overfull_files`` files, in key order."""
        return sorted(self._overfull, key=lambda g: (g.key is not None, g.key))

    # ------------------------------------------------------------------
    def add_guard(self, key: bytes) -> bool:
        """Commit a guard key; returns False if already present.

        Files of the covering guard that start at or after ``key`` move
        to the new guard, keeping their relative (age) order.
        """
        idx = bisect_right(self._keys, key)
        if idx and self._keys[idx - 1] == key:
            return False
        covering = self._order[idx]
        guard = Guard(key)
        self._keys.insert(idx, key)
        self._order.insert(idx + 1, guard)
        self.empty_guards += 1
        self._view = None
        moved = tuple(f for f in covering.files if f.smallest.user_key >= key)
        if moved:
            self._set_files(
                covering,
                tuple(f for f in covering.files if f.smallest.user_key < key),
            )
            self._set_files(guard, moved)
        return True

    def has_guard(self, key: bytes) -> bool:
        idx = bisect_right(self._keys, key)
        return idx > 0 and self._keys[idx - 1] == key

    def remove_guard(self, key: bytes) -> None:
        """Delete a guard; its left neighbour absorbs its range and files
        (guard deletion is metadata-only, paper section 3.3)."""
        idx = bisect_right(self._keys, key)
        if not idx or self._keys[idx - 1] != key:
            raise KeyError(key)
        guard = self._order[idx]
        files = guard.files
        self._set_files(guard, ())
        del self._keys[idx - 1]
        del self._order[idx]
        self.empty_guards -= 1
        self._view = None
        if files:
            left = self._order[idx - 1]
            self._set_files(left, left.files + files)

    # ------------------------------------------------------------------
    def find_guard(self, user_key: bytes) -> Guard:
        """The unique guard whose range covers ``user_key``."""
        return self._order[bisect_right(self._keys, user_key)]

    def guard_range(self, guard: Guard) -> "tuple[Optional[bytes], Optional[bytes]]":
        """Key range ``[lo, hi)`` owned by ``guard`` (None = open end)."""
        keys = self._keys
        idx = 0 if guard.key is None else bisect_right(keys, guard.key)
        hi = keys[idx] if idx < len(keys) else None
        return (guard.key, hi)

    # ------------------------------------------------------------------
    def attach(self, meta: FileMetadata) -> None:
        """Attach a file to the guard covering its smallest key."""
        guard = self.find_guard(meta.smallest.user_key)
        self._by_number[meta.number] = meta
        self._set_files(guard, guard.files + (meta,))

    def detach(self, number: int) -> bool:
        """Remove file ``number`` from its guard; False if not in this level."""
        meta = self._by_number.pop(number, None)
        if meta is None:
            return False
        guard = self._order[bisect_right(self._keys, meta.smallest.user_key)]
        self._set_files(guard, tuple(f for f in guard.files if f.number != number))
        return True

    def __contains__(self, number: int) -> bool:
        """True when file ``number`` is attached to a guard of this level."""
        return number in self._by_number

    def _set_files(self, guard: Guard, files: Tuple[FileMetadata, ...]) -> None:
        """Replace ``guard.files``; every counter derived from it follows."""
        size = sum(f.file_size for f in files)
        self._size_bytes += size - guard.size_bytes
        if guard.key is not None and bool(files) != bool(guard.files):
            self.empty_guards += -1 if files else 1
        guard.files = files
        guard.size_bytes = size
        if len(files) >= self._overfull_files:
            self._overfull.add(guard)
        else:
            self._overfull.discard(guard)
        self._view = None

    def all_files(self) -> List[FileMetadata]:
        """Every file in search order: guards in key order, each newest first."""
        return [f for guard in self._order for f in reversed(guard.files)]

    @property
    def num_files(self) -> int:
        return len(self._by_number)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def runs(
        self, key: Optional[bytes], reverse: bool = False
    ) -> Tuple[Tuple[Tuple[FileMetadata, ...], ...], int]:
        """Each guard's files in append order, and the index of the guard
        covering ``key`` (guards tile the key space, so either direction
        has the same one).  A level with guards is bisected even when
        they hold no file; one with neither has no runs."""
        if not self._keys and not self._by_number:
            return (), -1 if reverse else 0
        view = self._view
        if view is None:
            view = self.view()
        return view.files, len(view.keys) if key is None else bisect_right(view.keys, key)

    def view(self) -> LevelView:
        """The level as an immutable value, rebuilt only after a mutation.

        An iterator that captured a view keeps seeing exactly those guards
        and files whatever compactions do to the level afterwards.
        """
        view = self._view
        if view is None:
            view = self._view = LevelView(
                tuple(self._keys), tuple(g.files for g in self._order)
            )
        return view

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        keys, order = self._keys, self._order
        assert keys == sorted(keys), "guard keys out of order"
        assert len(set(keys)) == len(keys), "duplicate guard keys"
        assert order[0] is self.sentinel and self.sentinel.key is None
        assert [g.key for g in order[1:]] == keys, "guard order out of step with keys"
        for guard in order:
            lo, hi = self.guard_range(guard)
            for meta in guard.files:
                if lo is not None:
                    assert meta.smallest.user_key >= lo, (
                        f"file {meta.number} below guard {lo!r} at level {self.level}"
                    )
                if hi is not None:
                    assert meta.largest.user_key < hi, (
                        f"file {meta.number} beyond guard range {hi!r} "
                        f"at level {self.level}"
                    )
        # Every incremental counter against a from-scratch recomputation.
        where = f"at level {self.level}"
        for guard in order:
            assert guard.size_bytes == sum(f.file_size for f in guard.files), (
                f"guard {guard.key!r} byte count drifted {where}"
            )
        files = [f for guard in order for f in guard.files]
        assert self._size_bytes == sum(f.file_size for f in files), (
            f"level byte count drifted {where}"
        )
        assert self._by_number == {f.number: f for f in files} and len(
            self._by_number
        ) == len(files), f"file index drifted {where}"
        assert self.empty_guards == sum(1 for g in order[1:] if not g.files), (
            f"empty-guard count drifted {where}"
        )
        assert self._overfull == {
            g for g in order if len(g.files) >= self._overfull_files
        }, f"over-full set drifted {where}"
        if self._view is not None:
            assert self._view == (tuple(keys), tuple(g.files for g in order)), (
                f"stale level view {where}"
            )


class SortedLevel:
    """One level of a leveled LSM: disjoint files in key order, each file
    its own run (paper section 2.2).  The runs and the boundary keys they
    are bisected by are cached until the next mutation."""

    def __init__(self, level: int) -> None:
        self.level = level
        self._files: List[FileMetadata] = []
        self._size_bytes = 0
        #: ``(runs, smallest user keys, largest user keys)``; None when stale.
        self._index: Optional[
            Tuple[Tuple[Tuple[FileMetadata], ...], List[bytes], List[bytes]]
        ] = None

    def attach(self, meta: FileMetadata) -> None:
        insort(self._files, meta, key=lambda f: f.smallest)
        self._size_bytes += meta.file_size
        self._index = None

    def detach(self, number: int) -> bool:
        """Remove file ``number``; False if not in this level."""
        for idx, meta in enumerate(self._files):
            if meta.number == number:
                del self._files[idx]
                self._size_bytes -= meta.file_size
                self._index = None
                return True
        return False

    def __contains__(self, number: int) -> bool:
        return any(f.number == number for f in self._files)

    def all_files(self) -> List[FileMetadata]:
        return list(self._files)

    @property
    def num_files(self) -> int:
        return len(self._files)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def runs(
        self, key: Optional[bytes], reverse: bool = False
    ) -> Tuple[Tuple[Tuple[FileMetadata], ...], int]:
        """One run per file.  A key may fall between two files: forward it
        is covered by the first file ending at or after it, in reverse by
        the last file starting at or before it."""
        index = self._index
        if index is None:
            files = self._files
            index = self._index = (
                tuple((f,) for f in files),
                [f.smallest.user_key for f in files],
                [f.largest.user_key for f in files],
            )
        runs, lows, highs = index
        if key is None:
            return runs, len(runs) - 1
        if reverse:
            return runs, bisect_right(lows, key) - 1
        return runs, bisect_left(highs, key)

    def check_invariants(self) -> None:
        files = self._files
        for meta in files:
            assert meta.smallest <= meta.largest, f"file {meta.number} range inverted"
        for a, b in zip(files, files[1:]):
            assert a.largest.user_key < b.smallest.user_key, (
                f"level {self.level} files overlap: {a.largest!r} vs {b.smallest!r}"
            )
        assert self._size_bytes == sum(f.file_size for f in files), (
            f"level byte count drifted at level {self.level}"
        )
        cached, self._index = self._index, None
        if cached is not None:
            self.runs(None)
            assert cached == self._index, f"stale level index at level {self.level}"
