"""The level protocol on bare file metadata, with no store.

:class:`SortedLevel` and :class:`GuardedLevel` are driven through random
sequences of attach, detach and (guarded) ``add_guard``/``remove_guard``,
and after every step checked against a brute-force model: a plain list
per run, searched linearly.  Checked: ``size_bytes``, ``num_files``,
``all_files()`` (search order), and ``runs(key, reverse)`` with the
covering index in both directions.  One store-level test holds the
point-read search to the charge the empty-but-guarded case implies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.guards import GuardedLevel, SortedLevel
from repro.util.keys import KIND_PUT, InternalKey
from repro.version.files import FileMetadata
from tests.conftest import make_store

#: File bounds and guard keys; probes also fall between and beyond them.
BOUNDS = [b"b", b"d", b"f", b"h", b"j", b"l"]
PROBES = [b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h", b"i", b"j", b"k", b"l", b"m"]
#: A file's ``(lo, hi)``.
SPANS = st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2).map(sorted)


def meta(number: int, lo: bytes, hi: bytes) -> FileMetadata:
    return FileMetadata(
        number=number,
        smallest=InternalKey(lo, number, KIND_PUT),
        largest=InternalKey(hi, number, KIND_PUT),
        file_size=10 + number,
        num_entries=1,
    )


def check_counts(level, files: List[FileMetadata]) -> None:
    assert level.size_bytes == sum(f.file_size for f in files)
    assert level.num_files == len(files)


# ----------------------------------------------------------------------
# SortedLevel
# ----------------------------------------------------------------------
def check_sorted(level: SortedLevel, model: List[FileMetadata]) -> None:
    files = sorted(model, key=lambda f: f.smallest.user_key)
    check_counts(level, files)
    assert level.all_files() == files
    runs = tuple((f,) for f in files)
    assert level.runs(None, True) == (runs, len(files) - 1)
    for key in PROBES:
        forward = next(
            (i for i, f in enumerate(files) if f.largest.user_key >= key), len(files)
        )
        reverse = max(
            (i for i, f in enumerate(files) if f.smallest.user_key <= key), default=-1
        )
        assert level.runs(key) == (runs, forward)
        assert level.runs(key, True) == (runs, reverse)
    level.check_invariants()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sorted_level_matches_model(data):
    level = SortedLevel(1)
    model: List[FileMetadata] = []
    check_sorted(level, model)
    for number in range(1, data.draw(st.integers(1, 30))):
        if data.draw(st.booleans()) or not model:
            lo, hi = data.draw(SPANS)
            if any(f.overlaps(lo, hi) for f in model):
                continue  # a leveled level holds disjoint files only
            level.attach(meta(number, lo, hi))
            model.append(meta(number, lo, hi))
        else:
            gone = model.pop(data.draw(st.integers(0, len(model) - 1)))
            assert level.detach(gone.number)
            assert not level.detach(gone.number)
            assert gone.number not in level
        check_sorted(level, model)


# ----------------------------------------------------------------------
# GuardedLevel
# ----------------------------------------------------------------------
class GuardModel:
    """Guards as a dict of plain lists in append order (None: sentinel)."""

    def __init__(self) -> None:
        self.guards: Dict[Optional[bytes], List[FileMetadata]] = {None: []}

    def keys(self) -> List[bytes]:
        return sorted(k for k in self.guards if k is not None)

    def covering(self, key: bytes) -> Optional[bytes]:
        return max((k for k in self.keys() if k <= key), default=None)

    def order(self) -> List[Optional[bytes]]:
        return [None] + self.keys()

    def files(self) -> List[FileMetadata]:
        return [f for files in self.guards.values() for f in files]

    def attach(self, f: FileMetadata) -> None:
        self.guards[self.covering(f.smallest.user_key)].append(f)

    def detach(self, number: int) -> None:
        for files in self.guards.values():
            files[:] = [f for f in files if f.number != number]

    def add_guard(self, key: bytes) -> None:
        covering = self.guards[self.covering(key)]
        self.guards[key] = [f for f in covering if f.smallest.user_key >= key]
        covering[:] = [f for f in covering if f.smallest.user_key < key]

    def remove_guard(self, key: bytes) -> None:
        files = self.guards.pop(key)
        self.guards[self.covering(key)].extend(files)


def check_guarded(level: GuardedLevel, model: GuardModel) -> None:
    check_counts(level, model.files())
    order = model.order()
    assert level.all_files() == [f for k in order for f in reversed(model.guards[k])]
    if not model.keys() and not model.files():
        assert level.runs(None, True) == ((), -1)
        assert level.runs(b"c") == ((), 0)
        level.check_invariants()
        return
    runs = tuple(tuple(model.guards[k]) for k in order)
    assert level.runs(None, True) == (runs, len(runs) - 1)
    for key in PROBES:
        covering = order.index(model.covering(key))
        assert level.runs(key) == (runs, covering)
        assert level.runs(key, True) == (runs, covering)
    level.check_invariants()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_guarded_level_matches_model(data):
    level = GuardedLevel(1, overfull_files=2)
    model = GuardModel()
    check_guarded(level, model)
    for number in range(1, data.draw(st.integers(1, 40))):
        action = data.draw(st.sampled_from(["attach", "detach", "add", "remove"]))
        files = model.files()
        if action == "attach":
            lo, hi = data.draw(SPANS)
            if any(lo < k <= hi for k in model.keys()):
                hi = lo  # compaction output stays inside one guard
            level.attach(meta(number, lo, hi))
            model.attach(meta(number, lo, hi))
        elif action == "detach" and files:
            gone = data.draw(st.sampled_from(files))
            assert level.detach(gone.number)
            assert not level.detach(gone.number)
            model.detach(gone.number)
        elif action == "add":
            key = data.draw(st.sampled_from(PROBES))
            if any(f.smallest.user_key < key <= f.largest.user_key for f in files):
                continue  # the committing job compacts straddlers away
            assert level.add_guard(key) == (key not in model.guards)
            if key not in model.guards:
                model.add_guard(key)
        elif action == "remove" and model.keys():
            key = data.draw(st.sampled_from(model.keys()))
            level.remove_guard(key)
            model.remove_guard(key)
        check_guarded(level, model)


def test_guards_without_bytes_are_still_bisected():
    """A level with guards but no file has runs — every one empty — so a
    point read bisects (and is charged for) it; a guardless empty level
    has none."""
    level = GuardedLevel(2)
    assert level.runs(b"c") == ((), 0)
    level.add_guard(b"d")
    level.add_guard(b"h")
    assert level.size_bytes == 0
    assert level.runs(b"c") == (((), (), ()), 0)
    assert level.runs(b"e", True) == (((), (), ()), 1)
    assert level.runs(None, True) == (((), (), ()), 2)
    level.attach(meta(1, b"e", b"f"))
    level.detach(1)
    assert level.runs(b"z") == (((), (), ()), 2)
    level.check_invariants()


def test_a_get_bisects_a_level_with_guards_but_no_bytes():
    """The search charges ``level_binary_search`` on such a level and
    skips a guardless empty one free (no golden pin reaches this case)."""
    db = make_store("pebblesdb", repro.Environment())
    db.put(b"k", b"v")
    db.flush_memtable()
    cpu = db.cpu

    def searches_per_get() -> float:
        before = cpu.accounting.get("level_binary_search", 0.0)
        assert db.get(b"absent") is None
        after = cpu.accounting.get("level_binary_search", 0.0)
        return (after - before) / cpu.level_binary_search

    assert searches_per_get() == 0  # only Level 0 holds anything
    db._guarded[3].add_guard(b"m")
    assert db.level_sizes()[3] == 0
    assert searches_per_get() == pytest.approx(1)


# ----------------------------------------------------------------------
# check_invariants catches drift
# ----------------------------------------------------------------------
def _filled(cls):
    level = cls(1)
    level.attach(meta(1, b"b", b"d"))
    level.attach(meta(2, b"f", b"h"))
    level.runs(b"c")  # build the cached index or view
    level.check_invariants()
    return level


@pytest.mark.parametrize(
    "cls, corrupt",
    [
        (SortedLevel, lambda lvl: setattr(lvl, "_size_bytes", lvl._size_bytes + 1)),
        # Same number and size, other keys: only the cached runs go stale.
        (SortedLevel, lambda lvl: lvl._files.__setitem__(1, meta(2, b"i", b"k"))),
        (SortedLevel, lambda lvl: lvl._files.append(meta(3, b"a", b"z"))),
        (GuardedLevel, lambda lvl: setattr(lvl, "_size_bytes", lvl._size_bytes - 1)),
        (GuardedLevel, lambda lvl: lvl._by_number.pop(2)),
    ],
)
def test_check_invariants_catches_drift(cls, corrupt):
    level = _filled(cls)
    corrupt(level)
    with pytest.raises(AssertionError):
        level.check_invariants()
