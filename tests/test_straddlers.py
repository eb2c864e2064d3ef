"""``compaction.straddler_bytes{level}``: the §3.3 straddler rewrite as data.

A straddler is a target-level sstable that a guard the compaction commits
would split.  The job consumes it and its data re-lands partitioned in its
own level; the counter holds those bytes per target level, so their share
of write amplification can be read off a run.
"""

from __future__ import annotations

import random

import repro
from tests.conftest import make_store


def _fill(db, n: int = 3000, seed: int = 7) -> None:
    rng = random.Random(seed)
    for _ in range(n):
        db.put(b"k%08d" % rng.randrange(10**8), b"v" * 100)
    db.wait_idle()


def _straddler_bytes(db) -> dict:
    return {
        int(dict(m.labels)["level"]): m.value
        for m in db.registry
        if m.name == "compaction.straddler_bytes"
    }


def test_guardless_endpoint_has_no_straddlers():
    """No hash has 33 set low bits: no guard, so nothing ever straddles."""
    db = make_store(
        "pebblesdb", repro.Environment(), top_level_bits=33, bit_decrement=0
    )
    _fill(db)
    assert db.stats().compactions > 0
    assert sum(db.guard_counts()) == 0
    assert sum(_straddler_bytes(db).values()) == 0


def test_counter_is_the_straddlers_of_jobs_that_partition():
    """Per target level, the counter equals the summed sizes of the
    straddlers ``_commit_target_guards`` handed to jobs that went on to
    partition; those the §3.4 in-place rule handed back are not counted."""
    db = make_store("pebblesdb", repro.Environment())
    commit, partition = db._commit_target_guards, db._partition_into
    last = {}
    expected: dict = {}

    def committing(target, lo, hi):
        keys, straddlers = commit(target, lo, hi)
        last["job"] = target, straddlers
        return keys, straddlers

    def partitioning(inputs, target, ctx, new_keys):
        committed_to, straddlers = last.pop("job")
        assert committed_to == target
        if straddlers:
            size = sum(f.file_size for f in straddlers)
            expected[target] = expected.get(target, 0) + size
        return partition(inputs, target, ctx, new_keys)

    db._commit_target_guards = committing
    db._partition_into = partitioning
    _fill(db)
    assert expected, "no compaction consumed a straddler"
    assert _straddler_bytes(db) == expected
    db.check_invariants()
