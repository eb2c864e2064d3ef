"""The compaction picker: what each engine's triggers choose, and that
what they choose keeps every read right."""

from __future__ import annotations

import random

import pytest

import repro
from repro.util.keys import KIND_PUT, InternalKey
from repro.version.files import FileMetadata
from tests.conftest import LSM_ENGINES, make_store
from tests.test_backpressure import _manifest_bytes


@pytest.mark.parametrize("engine", LSM_ENGINES)
@pytest.mark.parametrize("overwrite", [False, True], ids=["deleted", "overwritten"])
def test_seek_compaction_sinks_overlapping_level0_files_together(engine, overwrite):
    """A Level-0 file that runs out of ``allowed_seeks`` sinks together with
    every Level-0 file it overlaps.  Moved alone past an older Level-0 file
    holding the same key, it left that older version to shadow the delete
    (or the overwrite) from above."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env)
    model = {}

    def put(key: bytes, value: bytes) -> None:
        db.put(key, value)
        model[key] = value

    put(b"k", b"v1")
    db.flush_memtable()
    if overwrite:
        put(b"k", b"v2")
    else:
        db.delete(b"k")
        del model[b"k"]
    for i in range(20):
        put(b"m%03d" % i, b"x" * 100)
    db.flush_memtable()
    # Only the newer file reaches past b"m000"; 150 seeks exhaust its
    # 100 allowed seeks, and the next flush lets the picker act on it.
    for _ in range(150):
        db.seek(b"m000").close()
    put(b"z", b"z")
    db.flush_memtable()
    db.wait_idle()
    if engine != "pebblesdb":
        assert db.files_per_level()[1] == 1, "no seek compaction ran"
    for key in (b"k", b"m000", b"m019", b"z"):
        assert db.get(key) == model.get(key), key
    assert dict(db.scan()) == model
    db.check_invariants()


# ----------------------------------------------------------------------
# Trigger order, on layouts built by hand (nothing is submitted)
# ----------------------------------------------------------------------
def _meta(number: int, lo: bytes, hi: bytes, size: int = 1000) -> FileMetadata:
    return FileMetadata(
        number, InternalKey(lo, 1, KIND_PUT), InternalKey(hi, 1, KIND_PUT), size, 1
    )


def _flsm_layout(parts):
    """A pebblesdb store holding, per part: ``level0`` four Level-0 files;
    ``overfull`` four files in guard g at level 2 (``overfull_l1``: guard
    m at level 1); ``size`` level 3 past its target; ``seek`` two files in
    guard p at level 2, touched by a seek run that made seek compaction
    due; ``blocked`` an in-flight job holding Level-1 range [a, c)."""
    db = make_store("pebblesdb", repro.Environment(), background_workers=4)
    level = db._guarded
    for lvl, key in ((1, b"m"), (2, b"g"), (2, b"p")):
        level[lvl].add_guard(key)
    files = {
        "level0": [(0, _meta(n, b"a", b"z")) for n in range(1, 5)],
        "overfull": [(2, _meta(n, b"g", b"h")) for n in range(10, 14)],
        "overfull_l1": [(1, _meta(n, b"m", b"n")) for n in range(14, 18)],
        "size": [(3, _meta(20, b"s", b"t", size=2_000_000))],
        "seek": [(2, _meta(n, b"p", b"q")) for n in (30, 31)],
    }
    for part in parts:
        for lvl, meta in files.get(part, ()):
            level[lvl].attach(meta)
    if "seek" in parts:
        db._seek_compaction_due = True
        db._touched_guards = [(2, b"p")]
    if "blocked" in parts:
        db._claims[0] = (((1, b"a", b"c"),), 1, 0)
    return db


FLSM_ORDER = [
    # Level 0 before over-full before size.
    (("level0", "overfull", "size"), [("level0", 0), ("overfull", 2), ("size", 3)]),
    (("overfull", "size"), [("overfull", 2), ("size", 3)]),
    (("size",), [("size", 3)]),
    # The seek tier only when the first tier is empty.
    (("size", "seek"), [("size", 3)]),
    (("seek",), [("seek_guard", 2)]),
    # While a due Level 0 is claim-blocked, work over its ranges waits.
    (
        ("level0", "overfull_l1", "overfull"),
        [("level0", 0), ("overfull", 1), ("overfull", 2)],
    ),
    (("level0", "blocked", "overfull_l1", "overfull"), [("overfull", 2)]),
]


@pytest.mark.parametrize("parts, expected", FLSM_ORDER)
def test_flsm_trigger_order(parts, expected):
    db = _flsm_layout(parts)
    pool = db._due_candidates()
    assert [(trigger, level) for trigger, level, _ in pool] == expected
    # The seek tier takes its input only when it is reached.
    assert db._seek_compaction_due == ("seek" in parts and pool[0][0] != "seek_guard")
    assert db._l0_conflict_blocked == ("blocked" in parts)


def _leveled_layout(parts):
    """A leveldb store holding, per part: ``level0`` four Level-0 files
    (``level0_busy``: one of them being compacted); ``size`` level 2 past
    its target; ``seek`` a level-1 file out of allowed seeks, queued
    behind a stale entry for a file no longer at its level."""
    db = make_store("leveldb", repro.Environment())
    files = {
        "level0": [(0, _meta(n, b"a", b"z")) for n in range(1, 5)],
        "size": [(2, _meta(20, b"s", b"t", size=200_000))],
        "seek": [(1, _meta(30, b"c", b"d"))],
    }
    for part in parts:
        for lvl, meta in files.get(part, ()):
            db._levels[lvl].append(meta)
    if "level0_busy" in parts:
        db._busy.add(1)
    if "seek" in parts:
        db._seek_overflow = [(2, _meta(99, b"x", b"y")), (1, files["seek"][0][1])]
    return db


LEVELED_ORDER = [
    (("level0", "size"), [("level0", 0), ("size", 2)]),
    (("level0", "level0_busy", "size"), [("size", 2)]),
    (("size",), [("size", 2)]),
    (("size", "seek"), [("size", 2)]),
    (("seek",), [("seek", 1)]),
]


@pytest.mark.parametrize("parts, expected", LEVELED_ORDER)
def test_leveled_trigger_order(parts, expected):
    db = _leveled_layout(parts)
    pool = db._due_candidates()
    assert [(trigger, level) for trigger, level, _ in pool] == expected
    assert db._l0_conflict_blocked == ("level0_busy" in parts)
    if "seek" in parts:
        # Reached, the seek list drops the stale entry and the file it
        # picked; not reached, it is left alone.
        reached = pool[0][0] == "seek"
        assert len(db._seek_overflow) == (0 if reached else 2)


# ----------------------------------------------------------------------
# The dispatch hook on leveled stores
# ----------------------------------------------------------------------
LEVELED = ["leveldb", "hyperleveldb", "rocksdb"]


def _run_with_policy(engine: str, policy_seed: int, pools: list):
    """Puts, deletes, gets and short scans with a seeded dispatch policy;
    every get and the final scan are checked against a model."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env, background_workers=2)
    rng = random.Random(policy_seed)

    def policy(candidates):
        pools.append(len(candidates))
        return rng.randrange(len(candidates))

    db.set_dispatch_policy(policy)
    ops = random.Random(1234)
    model = {}
    keyspace = [b"key%05d" % i for i in range(250)]
    for step in range(1500):
        key = ops.choice(keyspace)
        action = ops.random()
        if action < 0.5:
            model[key] = (b"v%06d" % step) * 24
            db.put(key, model[key])
        elif action < 0.6:
            db.delete(key)
            model.pop(key, None)
        elif action < 0.7:
            assert db.get(key) == model.get(key), (engine, policy_seed, step)
        else:
            with db.seek(key) as it:
                want = sorted(k for k in model if k >= key)[:3]
                got = []
                while it.valid and len(got) < 3:
                    got.append(it.key())
                    it.next()
            assert got == want, (engine, policy_seed, step)
    db.wait_idle()
    db.check_invariants()
    assert dict(db.scan()) == model
    return env, db


@pytest.mark.parametrize("engine", LEVELED)
def test_leveled_presets_match_the_model_under_dispatch_policies(engine):
    for policy_seed in range(6):
        pools = []
        _, db = _run_with_policy(engine, policy_seed, pools)
        # The policy chose every compaction the triggers submitted.
        picked = sum(
            m.value for m in db.registry if m.name == "compaction.triggered"
        )
        assert picked and len(pools) == picked


@pytest.mark.parametrize("engine", LEVELED)
def test_leveled_dispatch_replays_manifest_bytes(engine):
    runs = [_run_with_policy(engine, 4, [])[0] for _ in range(2)]
    assert _manifest_bytes(runs[0]) == _manifest_bytes(runs[1])


# ----------------------------------------------------------------------
# Counting: what each trigger submitted, and what each seek positioned
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", LSM_ENGINES)
def test_every_picked_compaction_is_counted_under_its_trigger(engine):
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(engine, env)
    rng = random.Random(7)
    for i in range(3000):
        db.put(b"key%05d" % rng.randrange(1500), b"v" * 200)
    seeks = 300
    for _ in range(seeks):
        db.seek(b"key%05d" % rng.randrange(1500)).close()
    db.put(b"last", b"v")
    db.wait_idle()
    counted = {}
    for metric in db.stats_part()["registry"]:
        if metric.name.startswith(("compaction.triggered", "seek.positioned")):
            counted.setdefault(metric.name, {})[metric.labels[0][1]] = metric.value
    triggers = {name for tier in db.COMPACTION_TRIGGERS for name in tier}
    jobs, moved = counted["compaction.triggered"], counted["compaction.triggered_bytes"]
    assert set(jobs) <= triggers and set(moved) == set(jobs)
    # No compact_range ran, so every compaction came from a trigger.
    assert sum(jobs.values()) == db.stats().compactions
    assert all(moved.values())
    assert sum(counted["seek.positioned_tables"].values()) >= seeks
