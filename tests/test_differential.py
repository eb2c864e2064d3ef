"""Differential testing: FLSM and LSM engines must agree exactly.

The two engines share only the sstable/WAL/manifest substrate — the
entire level/guard organization differs.  Feeding both the same operation
stream and comparing every read is a powerful oracle for compaction
correctness (versions, tombstones, boundaries).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.util.keys import KIND_PUT
from tests.conftest import make_store

KEYS = [b"dk%03d" % i for i in range(120)]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "get", "scan", "batch"]),
        st.sampled_from(KEYS),
        st.binary(min_size=1, max_size=24),
    ),
    min_size=10,
    max_size=150,
)


def _mk(engine):
    env = repro.Environment(cache_bytes=1 << 20)
    return make_store(engine, env)


@given(ops=ops_strategy)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pebbles_and_lsm_agree(ops):
    a = _mk("pebblesdb")
    b = _mk("hyperleveldb")
    for op, key, value in ops:
        if op == "put":
            a.put(key, value)
            b.put(key, value)
        elif op == "delete":
            a.delete(key)
            b.delete(key)
        elif op == "batch":
            batch = [(KIND_PUT, key, value), (KIND_PUT, key + b"~", value)]
            a.write_batch(batch)
            b.write_batch(batch)
        elif op == "get":
            assert a.get(key) == b.get(key)
        else:
            got_a = list(a.scan(key))
            got_b = list(b.scan(key))
            assert got_a == got_b
    assert dict(a.scan()) == dict(b.scan())
    a.check_invariants()
    b.check_invariants()


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_long_differential_run_with_compaction(seed):
    a = _mk("pebblesdb")
    b = _mk("leveldb")
    rng = random.Random(seed)
    keyspace = [b"key%05d" % i for i in range(600)]
    for step in range(5000):
        key = rng.choice(keyspace)
        roll = rng.random()
        if roll < 0.6:
            value = b"v%07d" % step
            a.put(key, value)
            b.put(key, value)
        elif roll < 0.75:
            a.delete(key)
            b.delete(key)
        elif roll < 0.95:
            assert a.get(key) == b.get(key), (seed, step, key)
        else:
            it_a, it_b = a.seek(key), b.seek(key)
            for _ in range(5):
                assert it_a.valid == it_b.valid
                if not it_a.valid:
                    break
                assert it_a.key() == it_b.key()
                assert it_a.value() == it_b.value()
                it_a.next()
                it_b.next()
            it_a.close()
            it_b.close()
        if step % 2000 == 1999:
            a.compact_all()
            b.compact_all()
    assert dict(a.scan()) == dict(b.scan())
    a.check_invariants()
    b.check_invariants()


def test_level0_search_is_the_same_search():
    """On a store that is all Level 0, what the engines do differently
    (guards, leveled files) has not started: the same gets must probe and
    bloom-skip the same number of tables in both, and agree on results."""
    never = dict(
        level0_compaction_trigger=64,
        level0_slowdown_trigger=64,
        level0_stop_trigger=64,
    )
    stores = [
        make_store(engine, repro.Environment(cache_bytes=1 << 20), **never)
        for engine in ("leveldb", "pebblesdb")
    ]
    rng = random.Random(3)
    keyspace = [b"key%05d" % i for i in range(400)]
    for step in range(1500):
        key = rng.choice(keyspace)
        for db in stores:
            if step % 9 == 8:
                db.delete(key)
            else:
                db.put(key, b"v%06d" % step)
    for db in stores:
        db.flush_memtable()
        counts = db.files_per_level()
        assert counts[0] >= 4 and sum(counts[1:]) == 0
    probes = [rng.choice(keyspace) + rng.choice([b"", b"", b"~"]) for _ in range(500)]
    results, tallies = [], []
    for db in stores:
        results.append([db.get(key) for key in probes])
        reg = db.stats_part()["registry"]
        tallies.append(
            (
                reg.value("read.files_probed", level=0),
                reg.value("read.bloom_skipped", level=0),
            )
        )
    assert results[0] == results[1]
    assert tallies[0] == tallies[1]
    assert min(tallies[0]) > 0


@pytest.mark.parametrize("seed", [5, 31])
def test_guard_parallel_vs_level_serial(seed):
    """The two schedulers differ only in *when* compactions run: the
    guard-parallel conflict map and the whole-level serializer must agree
    on every read and on the final durable state."""
    env_p = repro.Environment(cache_bytes=1 << 20)
    env_s = repro.Environment(cache_bytes=1 << 20)
    a = make_store(
        "pebblesdb", env_p, background_workers=4, compaction_scheduler="guard"
    )
    b = make_store(
        "pebblesdb", env_s, background_workers=4, compaction_scheduler="level"
    )
    rng = random.Random(seed)
    keyspace = [b"key%05d" % i for i in range(300)]
    for step in range(2000):
        key = rng.choice(keyspace)
        roll = rng.random()
        if roll < 0.6:
            value = (b"v%06d" % step) * 8
            a.put(key, value)
            b.put(key, value)
        elif roll < 0.72:
            a.delete(key)
            b.delete(key)
        else:
            assert a.get(key) == b.get(key), (seed, step, key)
    a.wait_idle()
    b.wait_idle()
    assert dict(a.scan()) == dict(b.scan())
    # The guard scheduler actually overlapped work; the serial one never did.
    assert a.stats().compactions_parallel_peak >= 2
    assert b.stats().compactions_parallel_peak <= 1
    a.check_invariants()
    b.check_invariants()


def test_guard_parallel_vs_level_serial_durable_state():
    """After wait_idle + crash, both schedulers recover identical state."""
    env_p = repro.Environment(cache_bytes=1 << 20)
    env_s = repro.Environment(cache_bytes=1 << 20)
    a = make_store(
        "pebblesdb",
        env_p,
        background_workers=4,
        compaction_scheduler="guard",
        sync_writes=True,
    )
    b = make_store(
        "pebblesdb",
        env_s,
        background_workers=2,
        compaction_scheduler="level",
        sync_writes=True,
    )
    rng = random.Random(77)
    for step in range(1200):
        key = b"key%04d" % rng.randrange(300)
        if rng.random() < 0.8:
            value = (b"v%05d" % step) * 6
            a.put(key, value)
            b.put(key, value)
        else:
            a.delete(key)
            b.delete(key)
    a.wait_idle()
    b.wait_idle()
    env_p.storage.crash()
    env_s.storage.crash()
    a2 = make_store("pebblesdb", env_p, sync_writes=True)
    b2 = make_store("pebblesdb", env_s, sync_writes=True)
    assert dict(a2.scan()) == dict(b2.scan())
    a2.check_invariants()
    b2.check_invariants()


def test_differential_after_crash_recovery():
    env_a = repro.Environment(cache_bytes=1 << 20)
    env_b = repro.Environment(cache_bytes=1 << 20)
    a = make_store("pebblesdb", env_a, sync_writes=True)
    b = make_store("hyperleveldb", env_b, sync_writes=True)
    rng = random.Random(99)
    for step in range(1500):
        key = b"key%04d" % rng.randrange(400)
        if rng.random() < 0.8:
            value = b"v%05d" % step
            a.put(key, value)
            b.put(key, value)
        else:
            a.delete(key)
            b.delete(key)
    env_a.storage.crash()
    env_b.storage.crash()
    a2 = make_store("pebblesdb", env_a, sync_writes=True)
    b2 = make_store("hyperleveldb", env_b, sync_writes=True)
    assert dict(a2.scan()) == dict(b2.scan())


@pytest.mark.parametrize("seed", [33, 1, 2])
def test_one_sstable_per_guard_writes_like_a_leveled_store(seed):
    """Section 3.5: with ``max_sstables_per_guard=1`` every append to a
    guard merges it, so FLSM writes as much as LSM does.  The fill of
    ``bench_flsm_tuning.py`` (8,000 x 1 KiB; EXPERIMENTS.md records cap-1
    write amp 9.16 at seed 33) is run against HyperLevelDB's.  Measured
    P(cap 1)/H at seeds 33 and 1-4: 1.15, 1.02, 1.08, 1.15, 1.09; the
    band is [0.9, 1.25].  The default cap of 4 sits well below both
    (P(cap 4)/P(cap 1) 0.66-0.75), so the band tells the two apart."""
    from repro.harness import fresh_run, standard_config

    def write_amp(engine, **overrides):
        cfg = standard_config(num_keys=8000, value_size=1024, seed=seed)
        cfg.option_overrides = {engine: overrides}
        run = fresh_run(engine, cfg)
        run.bench.fill_random()
        run.db.wait_idle()
        return run.db.stats().write_amplification

    cap1 = write_amp(
        "pebblesdb", max_sstables_per_guard=1, enable_seek_based_compaction=False
    )
    leveled = write_amp("hyperleveldb")
    default = write_amp("pebblesdb")
    assert 0.9 <= cap1 / leveled <= 1.25, (cap1, leveled)
    assert default < 0.8 * cap1, (default, cap1)
