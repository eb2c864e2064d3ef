"""Backpressure stall contract: graduated soft limits, rate-limited
compaction, admission control.

The load-bearing property is *differential*: ``cliff`` and ``graduated``
backpressure inject their per-write delay at exactly the same decision
point in ``_make_room``, differing only in the amount, so two same-seed
runs must produce byte-identical MANIFESTs and storage digests — the
modes may only disagree about timing (stall totals, latency windows),
never about state.  On top of that sit the property-style invariants
(delay monotone in debt; no soft-limit stall below the soft limit; the
rate limiter can delay compactions but never deadlock a due L0 drain),
exactly-once stall-cause attribution, seeded determinism across dispatch
policies, chaos coverage, and the OVERLOADED admission-control loop.
"""

from __future__ import annotations

import asyncio
import hashlib
import random

import pytest

import repro
from repro.errors import BackgroundError
from repro.net.client import ClusterClient
from repro.net.protocol import Response, Status, decode_payload
from repro.net.server import KVServer, ServerConfig
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.ratelimit import TokenBucket
from tests.conftest import make_store

#: Engines whose compaction policies let Level 0 climb past the soft
#: limit under this workload, so the graduated ramp charges strictly
#: more than the cliff floor.  (leveldb's eager full-overlap L0 drain
#: pins the file count at the trigger: byte-identity still holds there,
#: covered by its own test, but debt never exceeds zero.)
DIFFERENTIAL_ENGINES = ["pebblesdb", "hyperleveldb", "rocksdb"]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _manifest_bytes(env: repro.Environment) -> bytes:
    acct = env.storage.foreground_account("test")
    names = sorted(
        n for n in env.storage.list_files("db/") if n.startswith("db/MANIFEST-")
    )
    assert names, "no MANIFEST file found"
    return b"".join(
        env.storage.read(name, 0, env.storage.size(name), acct) for name in names
    )


def _digest(env: repro.Environment) -> str:
    digest = hashlib.sha256()
    for name in env.storage.list_files(""):
        data = env.storage._files[name].data  # test support: raw view
        digest.update(name.encode())
        digest.update(bytes(data))
    return digest.hexdigest()


def _stall_causes(db) -> dict:
    causes = {}
    for metric in db.registry:
        if metric.name == "stall.cause_seconds":
            causes[dict(metric.labels)["cause"]] = metric.value
    return causes


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Differential contract: same data, only timing differs
# ----------------------------------------------------------------------
class TestDifferentialByteIdentity:
    """Cliff vs graduated on the same seed: identical bytes, different
    stalls.  The workload parks Level 0 deep inside the slowdown band
    (slowdown=3, stop=10, one worker) so the graduated ramp is exercised
    across its whole range, not just at the soft limit."""

    def _run_mode(self, engine: str, mode: str):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(
            engine,
            env,
            background_workers=1,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=3,
            level0_stop_trigger=10,
            backpressure=mode,
            # Light enough that L0 climbs past the soft limit (debt > 0
            # for the graduated ramp), heavy enough that neither mode
            # reaches the stop trigger — the stop loop re-plans
            # compactions while waiting, which would legitimately fork
            # the schedule.
            slowdown_delay=3e-4,
            slowdown_delay_max=4e-3,
        )
        rng = random.Random(99)
        for step in range(2500):
            key = b"key%05d" % rng.randrange(400)
            db.put(key, (b"v%06d" % step) * 40)
        db.wait_idle()
        db.check_invariants()
        state = dict(db.scan())
        stats = db.stats()
        causes = _stall_causes(db)
        db.close()
        return env, state, stats, causes

    @pytest.mark.parametrize("engine", DIFFERENTIAL_ENGINES)
    def test_same_manifest_and_digest_different_stalls(self, engine):
        env_c, state_c, stats_c, causes_c = self._run_mode(engine, "cliff")
        env_g, state_g, stats_g, causes_g = self._run_mode(engine, "graduated")
        # State is identical down to the bytes.
        assert state_c == state_g
        assert _manifest_bytes(env_c) == _manifest_bytes(env_g)
        assert _digest(env_c) == _digest(env_g)
        # Timing is not: the graduated ramp charged materially more
        # delay than the fixed cliff floor, under its own cause label.
        assert causes_c.get("l0_slowdown", 0.0) > 0.0
        assert "l0_graduated" not in causes_c
        assert causes_g.get("l0_graduated", 0.0) > 0.0
        assert "l0_slowdown" not in causes_g
        assert causes_g["l0_graduated"] > causes_c["l0_slowdown"]
        assert stats_g.stall_seconds != stats_c.stall_seconds

    def test_leveldb_byte_identity_with_pinned_l0(self):
        """leveldb's full-overlap L0 drain holds the file count at the
        soft limit, so graduated debt stays zero: both modes charge the
        shared floor — and the bytes still match."""
        env_c, state_c, stats_c, causes_c = self._run_mode("leveldb", "cliff")
        env_g, state_g, stats_g, causes_g = self._run_mode("leveldb", "graduated")
        assert state_c == state_g
        assert _digest(env_c) == _digest(env_g)
        assert causes_g["l0_graduated"] == causes_c["l0_slowdown"]
        assert stats_g.stall_seconds == stats_c.stall_seconds

    def test_graduated_rerun_is_byte_identical(self):
        env_a, _, stats_a, _ = self._run_mode("pebblesdb", "graduated")
        env_b, _, stats_b, _ = self._run_mode("pebblesdb", "graduated")
        assert _digest(env_a) == _digest(env_b)
        assert stats_a.stall_seconds == stats_b.stall_seconds


# ----------------------------------------------------------------------
# Soft-limit delay curve
# ----------------------------------------------------------------------
class TestSoftLimitCurve:
    def _db(self, env, mode):
        return make_store(
            "pebblesdb",
            env,
            level0_compaction_trigger=4,
            level0_slowdown_trigger=4,
            level0_stop_trigger=10,
            backpressure=mode,
            slowdown_delay=1e-4,
            slowdown_delay_max=1e-3,
            max_immutable_memtables=2,
        )

    def test_cliff_delay_is_flat(self, env):
        db = self._db(env, "cliff")
        delays = [db._soft_limit_delay(l0) for l0 in range(4, 10)]
        assert delays == [1e-4] * 6

    def test_graduated_delay_monotone_in_l0_debt(self, env):
        db = self._db(env, "graduated")
        delays = [db._soft_limit_delay(l0) for l0 in range(4, 10)]
        assert delays == sorted(delays)
        # Anchors: the configured floor at the soft limit, the cap one
        # file short of the stop trigger.
        assert delays[0] == pytest.approx(1e-4)
        assert delays[-1] == pytest.approx(1e-3)

    def test_graduated_delay_monotone_in_imm_debt(self, env):
        db = self._db(env, "graduated")
        floor = db._soft_limit_delay(4)
        db._imm.append((db._mem, 0))
        half = db._soft_limit_delay(4)
        db._imm.append((db._mem, 0))
        full = db._soft_limit_delay(4)
        db._imm.clear()
        assert floor < half < full
        assert full == pytest.approx(1e-3)  # imm debt saturated the ramp

    def test_no_soft_limit_stall_below_the_soft_limit(self, env):
        """With the slowdown trigger parked far above reachable L0 depth,
        no write may ever be charged a soft-limit delay."""
        db = make_store(
            "pebblesdb",
            env,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=50,
            level0_stop_trigger=60,
            backpressure="graduated",
        )
        rng = random.Random(3)
        for step in range(1200):
            db.put(b"key%05d" % rng.randrange(200), (b"v%05d" % step) * 20)
        db.wait_idle()
        causes = _stall_causes(db)
        assert "l0_graduated" not in causes
        assert "l0_slowdown" not in causes
        assert "l0_stop" not in causes


# ----------------------------------------------------------------------
# Exactly-once stall attribution (regression: the watermark)
# ----------------------------------------------------------------------
class TestStallAttribution:
    def test_overlapping_intervals_attributed_exactly_once(self, env):
        """Chained/nested stall sites within one write used to be able to
        charge the same sim-clock interval twice.  The attribution
        watermark makes double-charging impossible by construction."""
        db = make_store("pebblesdb", env)
        db._attribute_stall("a", 0.0, 1.0)
        db._attribute_stall("b", 0.5, 1.5)  # overlaps [0.5, 1.0)
        db._attribute_stall("c", 0.2, 1.0)  # fully shadowed: no charge
        causes = _stall_causes(db)
        assert causes["a"] == pytest.approx(1.0)
        assert causes["b"] == pytest.approx(0.5)
        assert "c" not in causes
        assert db.stats().stall_seconds == pytest.approx(1.5)
        assert sum(causes.values()) == db.stats().stall_seconds

    @pytest.mark.parametrize("mode", ["cliff", "graduated"])
    def test_cause_seconds_sum_to_stall_seconds(self, mode):
        """A workload that fires imm backpressure, the soft limit, and
        the hard stop in the same run: every stalled second lands under
        exactly one cause, so the per-cause counters sum to the total."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(
            "pebblesdb",
            env,
            background_workers=1,
            max_immutable_memtables=1,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=2,
            level0_stop_trigger=3,
            backpressure=mode,
            # Near-zero soft-limit brake: L0 regularly punches through
            # to the stop trigger, so all three cause families fire.
            slowdown_delay=1e-5,
        )
        rng = random.Random(7)
        for step in range(2500):
            db.put(b"key%05d" % rng.randrange(300), (b"v%06d" % step) * 30)
        db.wait_idle()
        db.check_invariants()
        causes = _stall_causes(db)
        soft = "l0_slowdown" if mode == "cliff" else "l0_graduated"
        assert causes.get("imm_backpressure", 0.0) > 0.0
        assert causes.get(soft, 0.0) > 0.0
        assert (
            causes.get("l0_stop", 0.0) + causes.get("l0_stop_conflict", 0.0)
        ) > 0.0
        # Same floats added in the same order on both sides: exact.
        assert sum(causes.values()) == db.stats().stall_seconds


# ----------------------------------------------------------------------
# Token bucket and the compaction rate limiter
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_credit_admits_cold_start_immediately(self):
        bucket = TokenBucket(1000.0)  # burst defaults to one second: 1000
        assert bucket.reserve(1000.0, now=5.0) == 5.0
        # A job starts once *prior* debt is paid; its own cost lands
        # after it.  The burst absorbed the first job, so the second
        # still starts now — and the third pays the second's cost.
        assert bucket.reserve(500.0, now=5.0) == 5.0
        assert bucket.reserve(100.0, now=5.0) == pytest.approx(5.5)
        assert bucket.delayed == 1
        assert bucket.delay_seconds == pytest.approx(0.5)

    def test_start_times_monotone_in_reservation_order(self):
        bucket = TokenBucket(100.0, burst=0.0)
        starts = [bucket.reserve(50.0, now=0.0) for _ in range(8)]
        assert starts == sorted(starts)
        assert starts[-1] == pytest.approx(3.5)

    def test_idle_credit_caps_at_burst(self):
        bucket = TokenBucket(100.0, burst=200.0)
        bucket.reserve(100.0, now=0.0)
        # A long idle gap refills at most ``burst`` units of credit:
        # 400 units at t=100 start now but leave only 200 units of
        # headroom, so the next 400 must wait 2 full seconds.
        assert bucket.reserve(400.0, now=100.0) == 100.0
        assert bucket.reserve(400.0, now=100.0) == pytest.approx(102.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            TokenBucket(100.0, burst=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(100.0).reserve(-1.0, now=0.0)


class TestCompactionRateLimiter:
    def _workload(self, db, steps=1500, keys=250, seed=11):
        model = {}
        rng = random.Random(seed)
        for step in range(steps):
            key = b"key%05d" % rng.randrange(keys)
            value = (b"v%06d" % step) * 24
            db.put(key, value)
            model[key] = value
        return model

    def test_tiny_rate_never_deadlocks_a_due_l0_drain(self, env):
        """An absurdly low rate puts the bucket kiloseconds into debt,
        but the due-L0 bypass means the drain that relieves a stop stall
        always runs — the run completes with the right data."""
        db = make_store(
            "pebblesdb",
            env,
            background_workers=2,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=4,
            level0_stop_trigger=8,
            compaction_rate_bytes_per_sec=10_000,
        )
        model = self._workload(db)
        db.wait_idle()
        db.check_invariants()
        assert dict(db.scan()) == model
        limited = db.registry.counter("compaction.rate_limited_jobs")
        assert limited.value > 0  # the limiter actually engaged

    def test_rate_limiting_preserves_state_bytes(self):
        """The limiter shifts *when* compactions run, never what they
        produce: user-visible state matches the unlimited run."""
        results = {}
        for rate in (None, 50_000):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store(
                "pebblesdb", env, compaction_rate_bytes_per_sec=rate
            )
            model = self._workload(db, steps=900)
            db.wait_idle()
            db.check_invariants()
            results[rate] = (dict(db.scan()), model)
        for state, model in results.values():
            assert state == model

    def test_chaos_persistent_fault_under_rate_limit_degrades_then_resumes(
        self, env
    ):
        """Rate limiting composes with the fault state machine: a sticky
        compaction-path fault still degrades the store, and resume()
        restores service with the limiter still attached."""
        db = make_store(
            "pebblesdb",
            env,
            background_workers=2,
            compaction_rate_bytes_per_sec=100_000,
        )
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(
                    0, op="append", name_pattern="db/*.sst", kind="persistent"
                )
            )
        )
        accepted = {}
        with pytest.raises(BackgroundError):
            for step in range(6000):
                key, value = b"pressure%05d" % step, b"x%05d" % step
                db.put(key, value)
                accepted[key] = value
        assert db.is_degraded
        for key, value in list(accepted.items())[:50]:
            assert db.get(key) == value
        env.storage.set_fault_injector(None)
        assert db.resume() is True
        assert not db.is_degraded
        db.put(b"post-resume", b"ok")
        db.wait_idle()
        assert db.get(b"post-resume") == b"ok"
        db.check_invariants()


# ----------------------------------------------------------------------
# Seeded determinism across dispatch-policy permutations
# ----------------------------------------------------------------------
class TestGraduatedScheduleDeterminism:
    def _run(self, policy_seed):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(
            "pebblesdb",
            env,
            background_workers=2,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=3,
            level0_stop_trigger=6,
            backpressure="graduated",
            slowdown_delay_max=2e-3,
        )
        if policy_seed is not None:
            rng = random.Random(policy_seed)
            db.set_dispatch_policy(
                lambda candidates: rng.randrange(len(candidates))
            )
        rng_keys = random.Random(5)
        for step in range(900):
            db.put(b"key%05d" % rng_keys.randrange(150), (b"v%05d" % step) * 24)
        db.wait_idle()
        db.check_invariants()
        state = dict(db.scan())
        manifest = _manifest_bytes(env)
        db.close()
        return state, manifest

    def test_state_invariant_under_dispatch_permutations(self):
        baseline, _ = self._run(None)
        for seed in range(6):
            state, _ = self._run(seed)
            assert state == baseline, f"diverged under policy seed {seed}"

    def test_fixed_policy_replays_manifest_bytes(self):
        _, first = self._run(4)
        _, second = self._run(4)
        assert first == second


# ----------------------------------------------------------------------
# Admission control: the OVERLOADED loop
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_overloaded_response_roundtrips_retry_after(self):
        resp = Response(
            request_id=9,
            status=Status.OVERLOADED,
            message="shard 0 write queue full (4/2)",
            retry_after=0.0125,
        )
        decoded = decode_payload(resp.encode())
        assert decoded.status == Status.OVERLOADED
        assert decoded.message == resp.message
        assert decoded.retry_after == pytest.approx(0.0125)
        # Non-overload errors carry no hint and keep their old encoding.
        plain = decode_payload(
            Response(
                request_id=3, status=Status.SERVER_ERROR, message="boom"
            ).encode()
        )
        assert plain.retry_after == 0.0

    def test_client_retries_overload_to_exactly_once_completion(self):
        async def main():
            server = KVServer(
                ServerConfig(
                    shards=2,
                    uniform_keys=400,
                    seed=7,
                    cache_bytes=1 << 20,
                    max_write_debt=2,
                    overload_retry_after=0.001,
                )
            )
            clients = [
                await ClusterClient.open_loopback(server) for _ in range(4)
            ]
            acked = []

            async def hammer(index, client):
                for i in range(60):
                    key = f"user{index:02d}-{i:05d}".encode()
                    if await client.put(key, b"v%d.%d" % (index, i)):
                        acked.append(key)

            await asyncio.gather(
                *(hammer(i, c) for i, c in enumerate(clients))
            )
            rejects = sum(
                shard.stats.overload_rejects for shard in server.shards
            )
            backoffs = sum(c.stats.overload_backoffs for c in clients)
            assert rejects > 0, "workload never tripped admission control"
            # Every shed request was retried with the server's hint —
            # shedding is invisible to the caller except as latency.
            assert backoffs == rejects
            assert len(acked) == 4 * 60
            reader = clients[0]
            for key in acked:
                assert await reader.get(key) is not None
            for client in clients:
                await client.aclose()
            await server.aclose()

        run(main())

    def test_unbounded_debt_never_rejects(self):
        async def main():
            server = KVServer(
                ServerConfig(
                    shards=2, uniform_keys=400, seed=7, cache_bytes=1 << 20
                )
            )
            client = await ClusterClient.open_loopback(server)
            await asyncio.gather(
                *(client.put(b"k%04d" % i, b"v") for i in range(120))
            )
            assert all(
                shard.stats.overload_rejects == 0 for shard in server.shards
            )
            assert client.stats.overload_backoffs == 0
            await client.aclose()
            await server.aclose()

        run(main())
