"""Model-based differential for the point-read path.

A get searches a level's candidate files — all of Level 0, or the files
of one guard — and must return the newest version visible to its
snapshot.  The candidates overlap arbitrarily and **their list order is
not version order**: stopping at the first hit in ``reversed(guard.files)``
returns a deleted key's old value in
``tests/test_differential.py::test_long_differential_run_with_compaction[11]``
(in-place guard merges, guard splits and parallel installs all attach a
file holding older versions after one holding newer ones).  So the rule
that lets a get skip files is a *sequence bound* — a file whose newest
entry is no newer than a version already found cannot hold a newer
visible one — which is right under any order and any snapshot, and never
a positional ``break``.

The reference here is a plain dict per snapshot, not a second search
path in the engine: random puts, deletes and overwrites of a 40-key
space, flushes, range compactions, snapshots taken and held at random
points; after every step every key is read at the head and through every
held snapshot, and every live file's ``largest_seq`` is recomputed by
scanning the file.  The second half of a run writes keys the first half
never did, so new guards split files that already exist.

Random workloads reach a misordered guard rarely (the run above needs
2,854 steps), so a second test builds them outright: versions dealt into
files with no regard to age, the files attached in an arbitrary order to
one guard (or to a leveled store's Level 0), every key read at every
possible snapshot.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engines.base import Snapshot
from repro.util.keys import KIND_DELETE, KIND_PUT, InternalKey
from tests.conftest import LSM_ENGINES, check_sequence_bounds, make_store

KEYS = [b"rb%02d" % i for i in range(40)]

_writes = st.lists(
    st.tuples(st.sampled_from(KEYS), st.booleans(), st.integers(60, 400)),
    min_size=1,
    max_size=12,
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _writes),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(
            st.just("compact"), st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS))
        ),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("release"), st.integers(0, 3)),
    ),
    min_size=8,
    max_size=32,
)


def _check_reads(db, model, held) -> None:
    for key in KEYS:
        assert db.get(key) == model.get(key), key
        for snap, frozen in held:
            assert db.get(key, snapshot=snap) == frozen.get(key), (key, snap.sequence)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("engine", LSM_ENGINES)
@given(steps=_steps)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_read_matches_a_dict_per_snapshot(engine, workers, steps):
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env, memtable_bytes=1024, top_level_bits=3, background_workers=workers)
    model: dict = {}
    held: list = []
    stamp = 0
    for step, (what, arg) in enumerate(steps):
        if what == "write":
            for key, delete, size in arg:
                if step < len(steps) // 2:
                    key = KEYS[KEYS.index(key) & ~1]
                stamp += 1
                if delete:
                    db.delete(key)
                    model.pop(key, None)
                else:
                    model[key] = (b"%06d." % stamp) * (size // 7)
                    db.put(key, model[key])
        elif what == "flush":
            db.flush_memtable()
        elif what == "compact":
            db.compact_range(min(arg), max(arg))
        elif what == "snapshot" and len(held) < 3:
            held.append((db.get_snapshot(), dict(model)))
        elif what == "release" and arg < len(held):
            db.release_snapshot(held.pop(arg)[0])
        _check_reads(db, model, held)
        if what in ("flush", "compact"):
            check_sequence_bounds(db, env)
    db.wait_idle()
    _check_reads(db, model, held)
    check_sequence_bounds(db, env)
    db.check_invariants()
    for snap, _ in held:
        db.release_snapshot(snap)
    db.close()


@pytest.mark.parametrize("engine", LSM_ENGINES)
def test_range_compaction_sinks_no_file_beneath_an_older_overlapping_one(engine):
    """Found by the test above: the leveled ``compact_range`` moved the
    Level-0 files inside the range down and left behind an older Level-0
    file that one of them overlapped, which then shadowed the delete."""
    db = make_store(engine, repro.Environment(cache_bytes=1 << 20))
    db.put(b"rb00", b"old")
    db.flush_memtable()
    db.delete(b"rb00")
    db.put(b"rb30", b"x")
    db.compact_range(b"rb20", b"rb39")
    assert db.get(b"rb00") is None
    db.check_invariants()


@pytest.mark.parametrize("engine", LSM_ENGINES)
def test_a_reopened_store_searches_as_it_did_before_the_close(engine):
    """Bounds come back from the MANIFEST; a filter comes back the first
    time a get consults its file and is resident from then on."""
    env = repro.Environment(cache_bytes=1 << 20)
    keys = [b"key%05d" % i for i in range(700)]
    rng = random.Random(23)

    def tallies(db):
        gets = [db.get(rng.choice(keys) + rng.choice([b"", b"~"])) for _ in range(2000)]
        total = lambda what: sum(  # noqa: E731
            m.value for m in db.stats_part()["registry"] if m.name == f"read.{what}"
        )
        return gets, [total(w) for w in ("files_probed", "bloom_skipped", "seq_skipped")]

    db = make_store(engine, env)
    for round_ in range(3):
        for key in rng.sample(keys, 500):
            db.put(key, b"%d-" % round_ + key * 8)
    db.flush_memtable()
    db.wait_idle()
    bounds = {f.number: f.largest_seq for f in db.live_files()}
    filters = sum(f.bloom.size_bytes for f in db.live_files())
    state = rng.getstate()
    answers, counts = tallies(db)
    db.close()

    db = make_store(engine, env)
    assert {f.number: f.largest_seq for f in db.live_files()} == bounds
    assert all(f.bloom is None for f in db.live_files())
    cold = db.memory_bytes()
    for again in (1, 2):  # the first pass fetches the filters, the second has them
        rng.setstate(state)
        assert tallies(db) == (answers, [again * n for n in counts])
    consulted = [f for f in db.live_files() if f.bloom is not None]
    assert consulted and sum(f.bloom.size_bytes for f in consulted) <= filters
    assert db.memory_bytes() >= cold + sum(f.bloom.size_bytes for f in consulted)
    db.check_invariants()
    db.close()


@pytest.mark.parametrize("engine", ["pebblesdb", "leveldb"])
@given(
    versions=st.lists(
        st.tuples(st.sampled_from(KEYS[:5]), st.booleans(), st.integers(0, 3)),
        min_size=1,
        max_size=16,
    )
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_any_file_order_answers_with_the_newest_visible_version(engine, versions):
    """``versions[i]`` is ``(key, is a delete, file it lives in)`` at
    sequence ``i + 1``; file order is file index, unrelated to age."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env)
    acct = env.storage.foreground_account("test")
    files: dict = {}
    for seq, (key, delete, where) in enumerate(versions, 1):
        files.setdefault(where, []).append(
            (InternalKey(key, seq, KIND_DELETE), b"")
            if delete
            else (InternalKey(key, seq, KIND_PUT), b"v%d" % seq)
        )
    for where in sorted(files):
        (meta,) = db._write_sstables(iter(sorted(files[where])), acct, None)
        if engine == "pebblesdb":
            db._guarded[1].attach(meta)
        else:
            db._levels[0].attach(meta)
    db._last_sequence = len(versions)
    check_sequence_bounds(db, env)
    for snapshot in range(len(versions) + 1):
        model = {
            key: None if delete else b"v%d" % seq
            for seq, (key, delete, _) in enumerate(versions[:snapshot], 1)
        }
        for key in KEYS[:5]:
            assert db.get(key, snapshot=Snapshot(snapshot)) == model.get(key)
    db.check_invariants()
    db.close()
