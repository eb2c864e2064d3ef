"""Iterators over a store that keeps changing under them.

A guarded-level iterator captures an immutable view of each level at seek
time and the store holds one read pin for the iterator's lifetime, so a
compaction that runs between two ``next()`` calls can neither hide keys
from the iterator (the view still lists the old files) nor delete a file
it has yet to open (the pin defers the deletion).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.guards import GuardedLevel
from repro.core.pebbles import PebblesDBStore
from repro.sstable import SSTableBuilder
from repro.util.keys import KIND_PUT, KIND_SEEK, MAX_SEQUENCE, InternalKey
from repro.version.files import FileMetadata
from tests.conftest import make_store


def _sst_numbers_on_storage(env) -> set:
    return {
        int(name[len("db/") : -len(".sst")])
        for name in env.storage.list_files("db/")
        if name.endswith(".sst")
    }


class TestIteratorUnderWrites:
    """An open iterator yields exactly what was visible at seek time."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_compactions_under_an_open_iterator(self, lsm_engine, reverse, env):
        db = make_store(lsm_engine, env)
        rng = random.Random(7)
        keys = [b"k%05d" % i for i in range(3000)]
        order = list(keys)
        rng.shuffle(order)
        model = {}
        for i, key in enumerate(order):
            model[key] = (b"v%06d" % i) * 16
            db.put(key, model[key])
        db.wait_idle()

        it = db.seek_reverse(b"l") if reverse else db.seek(b"k")
        got = []
        deferred_deletions = 0
        while it.valid:
            got.append((it.key(), it.value()))
            if len(got) % 200 == 0:
                # Enough churn for flushes and compactions to retire
                # files the iterator has not reached yet.
                for _ in range(300):
                    db.put(rng.choice(keys), b"overwritten" * 9)
                deferred_deletions = max(deferred_deletions, len(db._retired_files))
            it.next()
        expected = sorted(model.items(), reverse=reverse)
        assert len(got) == len(expected)
        assert got == expected
        assert deferred_deletions, "no compaction retired a file under the iterator"

        it.close()
        assert not db._read_pins and not db._retired_files
        db.wait_idle()
        assert _sst_numbers_on_storage(env) == set(db.sstable_file_numbers())
        db.check_invariants()

    def test_retired_files_wait_for_the_pins_taken_before_them(self, env):
        db = make_store("pebblesdb", env)
        for number in (901, 902, 903):
            env.storage.create(db._sst_name(number))
        exists = lambda number: env.storage.exists(db._sst_name(number))

        db._retire_file(901)  # nothing pinned: deleted at once
        assert not exists(901)
        early = db._pin_reads()
        db._retire_file(902)  # an iterator under `early` may still read it
        late = db._pin_reads()  # taken after 902 left the version
        db._retire_file(903)
        db._unpin_reads(early)
        assert not exists(902) and exists(903)
        db._unpin_reads(late)
        assert not exists(903)
        assert not db._read_pins and not db._retired_files

    def test_oldest_pin_holds_everything_retired_since(self, env):
        db = make_store("pebblesdb", env)
        for number in (901, 902):
            env.storage.create(db._sst_name(number))
        early = db._pin_reads()
        db._retire_file(901)
        late = db._pin_reads()
        db._retire_file(902)
        db._unpin_reads(late)  # `early` predates both retirements
        assert env.storage.exists(db._sst_name(901))
        assert env.storage.exists(db._sst_name(902))
        db._unpin_reads(early)
        assert not env.storage.exists(db._sst_name(901))
        assert not env.storage.exists(db._sst_name(902))


# ----------------------------------------------------------------------
# Differential: a level iterator against a brute-force sorted merge
# ----------------------------------------------------------------------
_USER_KEYS = [b"%c%c" % (a, b) for a in b"abcdefgh" for b in b"0123"]


@st.composite
def _guard_layouts(draw):
    """Guard keys plus, per guard, overlapping files of unique versions."""
    guard_keys = sorted(draw(st.sets(st.sampled_from(_USER_KEYS), max_size=8)))
    bounds = [None] + guard_keys + [None]
    sequence = 0
    layout = []
    for lo, hi in zip(bounds, bounds[1:]):
        owned = [
            k for k in _USER_KEYS if (lo is None or k >= lo) and (hi is None or k < hi)
        ]
        files = []
        if owned:
            for _ in range(draw(st.integers(0, 3))):
                picked = sorted(draw(st.sets(st.sampled_from(owned), min_size=1)))
                entries = []
                for user_key in picked:
                    sequence += 1
                    entries.append((user_key, sequence))
                files.append(entries)
        layout.append(files)
    return guard_keys, layout


def _build_level(db: PebblesDBStore, guard_keys, layout):
    """Write the layout's files and attach them to a fresh guarded level."""
    level = GuardedLevel(1)
    for key in guard_keys:
        level.add_guard(key)
    acct = db.storage.foreground_account("test")
    everything = []
    for files in layout:
        for entries in files:
            builder = SSTableBuilder(256, 10)
            rows = sorted(
                (InternalKey(user_key, seq, KIND_PUT), b"v%d" % seq)
                for user_key, seq in entries
            )
            for key, value in rows:
                builder.add(key, value)
            blob, props, _ = builder.finish()
            number = db._alloc_file_number()
            db.storage.create(db._sst_name(number))
            db.storage.append(db._sst_name(number), blob, acct)
            level.attach(
                FileMetadata(
                    number=number,
                    smallest=props.smallest,
                    largest=props.largest,
                    file_size=props.file_size,
                    num_entries=props.num_entries,
                )
            )
            everything.extend(rows)
    level.check_invariants()
    return level, sorted(everything)


class TestLevelIteratorDifferential:
    @given(layout=_guard_layouts(), start=st.sampled_from([b""] + _USER_KEYS + [b"zz"]))
    @settings(max_examples=60, deadline=None)
    def test_forward_and_reverse_match_brute_force(self, layout, start):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        level, everything = _build_level(db, *layout)
        acct = db.storage.foreground_account("test")
        flat = lambda entries: [(k.user_key, k.sequence, bytes(v)) for k, v in entries]

        probe = InternalKey(start, MAX_SEQUENCE, KIND_SEEK)
        for parallel in (False, True):
            forward = db._walk_runs(
                level.view().files, level.view().covering(start), probe, acct, parallel=parallel
            )
            assert flat(forward) == flat(e for e in everything if e[0].user_key >= start)

        backward = db._walk_runs(
            level.view().files, level.view().covering(start), start, acct, reverse=True
        )
        assert flat(backward) == flat(
            e for e in reversed(everything) if e[0].user_key <= start
        )
        unbounded = db._walk_runs(
            level.view().files, len(level.view().files) - 1, None, acct, reverse=True
        )
        assert flat(unbounded) == flat(reversed(everything))


@st.composite
def _leveled_layouts(draw):
    """Disjoint files in key order — some keys fall between two files —
    each holding one or two versions of every key it has."""
    cuts = sorted(draw(st.sets(st.integers(1, len(_USER_KEYS) - 1), max_size=8)))
    sequence = 0
    files = []
    for lo, hi in zip([0] + cuts, cuts + [len(_USER_KEYS)]):
        picked = sorted(draw(st.sets(st.sampled_from(_USER_KEYS[lo:hi]))))
        if not picked:
            continue
        entries = []
        for user_key in picked:
            for _ in range(draw(st.integers(1, 2))):
                sequence += 1
                entries.append((user_key, sequence))
        files.append(entries)
    return files


#: Walk bounds: every stored key, one just past each, and both ends.
_BOUNDS = [b""] + sorted(_USER_KEYS + [k + b"~" for k in _USER_KEYS]) + [b"zz"]


class TestLeveledWalkDifferential:
    """The run walker over a leveled level: one file per run."""

    @given(
        files=_leveled_layouts(),
        start=st.sampled_from(_BOUNDS),
        bound=st.sampled_from(_BOUNDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_and_reverse_match_brute_force(self, files, start, bound):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("leveldb", env)
        level, everything = _build_level(db, [], [files])
        metas = sorted(level.all_files(), key=lambda meta: meta.smallest)
        for meta in metas:
            db._levels[1].attach(meta)
        acct = db.storage.foreground_account("test")
        flat = lambda entries: [(k.user_key, k.sequence, bytes(v)) for k, v in entries]

        db._table_cache.clear()
        runs, first = db._level_runs(1, start, False)
        probe = InternalKey(start, MAX_SEQUENCE, KIND_SEEK)
        assert flat(db._walk_runs(runs, first, probe, acct)) == flat(
            e for e in everything if e[0].user_key >= start
        )
        # Only files ending at or after ``start`` were opened.
        assert sorted(db._table_cache) == [
            meta.number for meta in metas if meta.largest.user_key >= start
        ]

        for key in (bound, None):
            db._table_cache.clear()
            runs, first = db._level_runs(1, key, True)
            assert flat(db._walk_runs(runs, first, key, acct, reverse=True)) == flat(
                e for e in reversed(everything) if key is None or e[0].user_key <= key
            )
            # Only files starting at or before ``key`` were opened.
            assert sorted(db._table_cache) == [
                meta.number
                for meta in metas
                if key is None or meta.smallest.user_key <= key
            ]
