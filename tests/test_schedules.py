"""Schedule exploration for the guard-parallel compaction scheduler.

The conflict map admits many legal schedules: any claim-disjoint set of
guard compactions may run concurrently, and the dispatch policy decides
which runnable candidate is submitted first.  Correctness must not
depend on the schedule — every get/scan must match the in-memory-model
oracle (the ``test_engine_model.py`` contract) under *every* dispatch
order and worker count — while a fixed (seed, worker count, policy) must
replay the exact same schedule, down to MANIFEST bytes.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

import pytest

import repro
from repro.engines.base import StoreStats
from tests.conftest import make_store

WORKERS = [1, 2, 4]
#: Seeds for the randomized dispatch policies (>= 20 per the acceptance
#: criteria, exercised at 4 workers where the schedule space is widest).
PERMUTATION_SEEDS = list(range(20))


def _run_workload(
    workers: int,
    policy_seed: int = None,
    scheduler: str = "guard",
    steps: int = 1100,
    check_gets: bool = True,
) -> Tuple[Dict[bytes, bytes], repro.Environment, object]:
    """One keyed workload run; returns (model, env, db) after wait_idle."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(
        "pebblesdb",
        env,
        background_workers=workers,
        compaction_scheduler=scheduler,
    )
    if policy_seed is not None:
        rng = random.Random(policy_seed)
        db.set_dispatch_policy(lambda candidates: rng.randrange(len(candidates)))
    ops = random.Random(1234)
    model: Dict[bytes, bytes] = {}
    keyspace = [b"key%05d" % i for i in range(250)]
    for step in range(steps):
        key = ops.choice(keyspace)
        action = ops.random()
        if action < 0.6:
            # Values fat enough that the workload spans many flushes and
            # guard compactions — otherwise there is no schedule to vary.
            value = (b"v%06d" % step) * 24
            db.put(key, value)
            model[key] = value
        elif action < 0.75:
            db.delete(key)
            model.pop(key, None)
        elif check_gets:
            # The oracle check mid-run: the schedule in progress must
            # never surface a stale or phantom value.
            assert db.get(key) == model.get(key), (workers, policy_seed, step)
    db.wait_idle()
    db.check_invariants()
    return model, env, db


def _scan_state(db) -> Dict[bytes, bytes]:
    return dict(db.scan())


class TestScheduleExploration:
    def test_baseline_matches_oracle(self):
        model, _, db = _run_workload(workers=1)
        assert _scan_state(db) == model

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("policy_seed", PERMUTATION_SEEDS[:4])
    def test_workers_and_policies_match_oracle(self, workers, policy_seed):
        """Every (worker count, dispatch permutation) pair is the oracle."""
        model, _, db = _run_workload(workers=workers, policy_seed=policy_seed)
        assert _scan_state(db) == model

    @pytest.mark.parametrize("policy_seed", PERMUTATION_SEEDS)
    def test_dispatch_permutations_identical_state(self, policy_seed):
        """20 seeded permutations of ready-job dispatch order at 4 workers
        all converge to the identical user-visible state."""
        model, _, db = _run_workload(
            workers=4, policy_seed=policy_seed, check_gets=False
        )
        assert _scan_state(db) == model

    def test_parallelism_actually_happens(self):
        """The schedule space being explored is real: at 4 workers the
        default policy overlaps compactions."""
        _, _, db = _run_workload(workers=4, check_gets=False)
        assert db.stats().compactions_parallel_peak >= 2

    def test_schedules_survive_crash_recovery(self):
        """A permuted schedule leaves a recoverable store behind."""
        model, env, db = _run_workload(workers=4, policy_seed=3, check_gets=False)
        db.flush_memtable()
        db.wait_idle()
        env.storage.crash()
        db2 = make_store("pebblesdb", env, background_workers=4)
        assert _scan_state(db2) == model
        db2.check_invariants()


def _manifest_bytes(env: repro.Environment) -> bytes:
    """Raw bytes of the live MANIFEST file."""
    acct = env.storage.foreground_account("test")
    names = sorted(
        n for n in env.storage.list_files("db/") if n.startswith("db/MANIFEST-")
    )
    assert names, "no MANIFEST file found"
    return b"".join(
        env.storage.read(name, 0, env.storage.size(name), acct) for name in names
    )


def _compaction_counters(stats: StoreStats) -> tuple:
    return (
        stats.compactions,
        stats.compaction_bytes_written,
        stats.flushes,
        stats.compaction_conflicts,
        stats.compactions_parallel_peak,
        round(stats.conflict_stall_seconds, 9),
        round(stats.stall_seconds, 9),
    )


class TestSchedulingDeterminism:
    """Guards against wall-clock or dict-order leaks into scheduling."""

    def test_same_seed_workers4_byte_identical(self):
        runs = []
        for _ in range(2):
            model, env, db = _run_workload(workers=4, check_gets=False)
            runs.append(
                (
                    model,
                    _manifest_bytes(env),
                    _compaction_counters(db.stats()),
                    round(env.clock.now, 12),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1], "MANIFEST bytes diverged between runs"
        assert runs[0][2] == runs[1][2], "compaction counters diverged"
        assert runs[0][3] == runs[1][3], "simulated clock diverged"

    def test_same_seed_same_policy_byte_identical(self):
        """Determinism also holds under a seeded random dispatch policy."""
        runs = []
        for _ in range(2):
            _, env, db = _run_workload(workers=4, policy_seed=11, check_gets=False)
            runs.append((_manifest_bytes(env), _compaction_counters(db.stats())))
        assert runs[0] == runs[1]

    def test_worker_count_changes_schedule_not_state(self):
        """Completion order is a function of (seed, workers): different
        worker counts may differ in schedule but never in state."""
        state = {}
        for workers in WORKERS:
            model, _, db = _run_workload(workers=workers, check_gets=False)
            state[workers] = (_scan_state(db), model)
        for workers, (got, model) in state.items():
            assert got == model, f"workers={workers} diverged from the oracle"


def _fill_random(workers: int) -> Tuple[float, float]:
    """Seeded fillrandom; returns (simulated seconds, write amplification)."""
    env = repro.Environment(cache_bytes=1 << 20)
    db = make_store(
        "pebblesdb",
        env,
        memtable_bytes=8 * 1024,
        level1_max_bytes=32 * 1024,
        background_workers=workers,
    )
    rng = random.Random(7)
    value = b"v" * 512
    for _ in range(3000):
        db.put(b"key%06d" % rng.randrange(3000), value)
    db.wait_idle()
    db.check_invariants()
    return env.clock.now, db.stats().write_amplification


class TestParallelSpeedup:
    def test_four_workers_buy_throughput_not_rewrites(self):
        """Independent guard compactions overlap on worker timelines
        (>= 1.5x simulated fillrandom throughput at 4 workers; measured
        1.72x) and in-flight outflow accounting keeps the size triggers
        from over-compacting (write amp within 5%; measured 0.976)."""
        one_seconds, one_amp = _fill_random(1)
        four_seconds, four_amp = _fill_random(4)
        assert one_seconds / four_seconds >= 1.5
        assert abs(four_amp / one_amp - 1.0) <= 0.05
