"""Backpressure stall contract: the one soft-limit brake, exactly-once
stall-cause attribution, seeded determinism across dispatch policies, and
the OVERLOADED admission-control loop.

The load-bearing property is *differential*: the brake advances the clock
at one decision point in ``_make_room``, so two same-seed runs whose
``slowdown_delay`` differs produce byte-identical MANIFESTs and storage
digests; they may disagree about timing, never about state.
"""

from __future__ import annotations

import asyncio
import hashlib
import random

import pytest

import repro
from bench.spec import STALL_CAUSES
from repro.net.client import ClusterClient
from repro.net.protocol import Response, Status, decode_payload
from repro.net.server import KVServer, ServerConfig
from repro.obs.trace import TraceSink
from repro.tools.trace import _STALL_CAUSES
from repro.tools.trace import main as trace_main
from tests.conftest import LSM_ENGINES, make_store

#: Engines for the light-vs-heavy brake differential; leveldb has its own
#: test below.
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


def _record_brakes(db) -> list:
    """Log ``(cause, level0_files, seconds)`` for every stall ``db`` charges,
    with the Level-0 file count at the moment of the charge."""
    writes = db._writes
    charge = writes.attribute_stall
    brakes = []

    def recording(cause, start, end):
        brakes.append((cause, db._level0_file_count(), end - start))
        charge(cause, start, end)

    writes.attribute_stall = recording
    return brakes


def _overrun(engine: str, env: repro.Environment, sink=None):
    """A store whose writes outrun one compaction worker: the workload
    fires imm backpressure and the soft limit on every LSM engine, and the
    hard stop too on pebblesdb.  With ``sink``, the store traces its spans
    into it."""
    db = make_store(
        engine,
        env,
        background_workers=1,
        max_immutable_memtables=1,
        level0_compaction_trigger=2,
        level0_slowdown_trigger=2,
        level0_stop_trigger=3,
        # Near-zero soft-limit brake: L0 regularly punches through
        # to the stop trigger, so all three cause families fire.
        slowdown_delay=1e-5,
    )
    if sink is not None:
        db.enable_tracing(sink)
    rng = random.Random(7)
    for step in range(2500):
        db.put(b"key%05d" % rng.randrange(300), (b"v%06d" % step) * 30)
    db.wait_idle()
    db.check_invariants()
    return db


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Differential contract: same data, only timing differs
# ----------------------------------------------------------------------
class TestDifferentialByteIdentity:
    """A light and a heavy slowdown brake on the same seed: identical
    bytes, different stalls.  The brake is a clock advance at one decision
    point in ``_make_room``, so its size may move timing (stall totals,
    latency windows) but never state.  The workload keeps Level 0 in the
    slowdown band (slowdown=3, stop=10, one worker) without reaching the
    stop trigger, whose wait re-plans compactions and would fork the
    schedule."""

    LIGHT, HEAVY = 3e-4, 3e-3

    def _run_mode(self, engine: str, delay: float):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store(
            engine,
            env,
            background_workers=1,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=3,
            level0_stop_trigger=10,
            slowdown_delay=delay,
        )
        brakes = _record_brakes(db)
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
        slowdowns = [brake for brake in brakes if brake[0] == "l0_slowdown"]
        return env, state, stats, causes, slowdowns

    @pytest.mark.parametrize("engine", DIFFERENTIAL_ENGINES)
    def test_same_manifest_and_digest_different_stalls(self, engine):
        env_l, state_l, stats_l, causes_l, brakes_l = self._run_mode(engine, self.LIGHT)
        env_h, state_h, stats_h, causes_h, brakes_h = self._run_mode(engine, self.HEAVY)
        # State is identical down to the bytes.
        assert state_l == state_h
        assert _manifest_bytes(env_l) == _manifest_bytes(env_h)
        assert _digest(env_l) == _digest(env_h)
        # The same writes were braked, each by its run's own delay ...
        assert brakes_l and len(brakes_l) == len(brakes_h)
        assert [depth for _, depth, _ in brakes_l] == [depth for _, depth, _ in brakes_h]
        # ... so timing is not identical: the heavy brake charged more.
        assert "l0_stop" not in causes_l and "l0_stop" not in causes_h
        assert causes_h["l0_slowdown"] > causes_l["l0_slowdown"] > 0.0
        assert stats_h.stall_seconds > stats_l.stall_seconds

    def test_leveldb_byte_identity_with_pinned_l0(self):
        """leveldb's full-overlap L0 drain holds the file count at the soft
        limit: every brake in both runs lands at exactly the slowdown
        trigger, and the bytes still match."""
        env_l, state_l, stats_l, causes_l, brakes_l = self._run_mode("leveldb", self.LIGHT)
        env_h, state_h, stats_h, causes_h, brakes_h = self._run_mode("leveldb", self.HEAVY)
        assert state_l == state_h
        assert _digest(env_l) == _digest(env_h)
        assert {depth for _, depth, _ in brakes_l + brakes_h} == {3}
        assert len(brakes_l) == len(brakes_h)
        assert causes_h["l0_slowdown"] > causes_l["l0_slowdown"] > 0.0
        assert stats_h.stall_seconds > stats_l.stall_seconds

    def test_cliff_rerun_is_byte_identical(self):
        env_a, _, stats_a, _, _ = self._run_mode("pebblesdb", self.LIGHT)
        env_b, _, stats_b, _, _ = self._run_mode("pebblesdb", self.LIGHT)
        assert _digest(env_a) == _digest(env_b)
        assert stats_a.stall_seconds == stats_b.stall_seconds


# ----------------------------------------------------------------------
# The soft limit
# ----------------------------------------------------------------------
class TestSoftLimitCurve:
    def test_cliff_delay_is_flat(self, env):
        """Every write braked in the slowdown band [4, 10) pays the same
        ``slowdown_delay``, however deep Level 0 is within the band."""
        db = make_store(
            "pebblesdb",
            env,
            background_workers=1,
            level0_compaction_trigger=4,
            level0_slowdown_trigger=4,
            level0_stop_trigger=10,
            slowdown_delay=1e-4,
            max_immutable_memtables=2,
        )
        brakes = _record_brakes(db)
        rng = random.Random(5)
        for step in range(4000):
            db.put(b"key%05d" % rng.randrange(2000), (b"v%06d" % step) * 40)
        db.wait_idle()
        slowdowns = [(depth, seconds) for cause, depth, seconds in brakes if cause == "l0_slowdown"]
        depths = {depth for depth, _ in slowdowns}
        assert len(depths) > 1 and depths <= set(range(4, 10))
        for _, seconds in slowdowns:
            assert seconds == pytest.approx(1e-4, rel=1e-9)

    def test_no_soft_limit_stall_below_the_soft_limit(self, env):
        """With the slowdown trigger parked far above reachable L0 depth,
        no write may ever be charged a soft-limit delay."""
        db = make_store(
            "pebblesdb",
            env,
            level0_compaction_trigger=2,
            level0_slowdown_trigger=50,
            level0_stop_trigger=60,
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

    @pytest.mark.parametrize("mode", ["cliff"])
    def test_cause_seconds_sum_to_stall_seconds(self, mode):
        """A workload that fires imm backpressure, the soft limit, and
        the hard stop in the same run: every stalled second lands under
        exactly one cause, so the per-cause counters sum to the total."""
        db = _overrun("pebblesdb", repro.Environment(cache_bytes=1 << 20))
        causes = _stall_causes(db)
        soft = "l0_slowdown"
        assert causes.get("imm_backpressure", 0.0) > 0.0
        assert causes.get(soft, 0.0) > 0.0
        assert (
            causes.get("l0_stop", 0.0) + causes.get("l0_stop_conflict", 0.0)
        ) > 0.0
        # Same floats added in the same order on both sides: exact.
        assert sum(causes.values()) == db.stats().stall_seconds

    def test_the_stalls_report_glosses_exactly_the_emitted_causes(self):
        """``repro-trace``'s cause table is the benchmark's LSM causes
        plus WiredTiger's checkpoint wait, no more and no fewer."""
        assert set(_STALL_CAUSES) == set(STALL_CAUSES) | {"checkpoint_wait"}

    @pytest.mark.parametrize("engine", [e for e in LSM_ENGINES if e != "pebblesdb"])
    def test_every_lsm_engine_charges_each_stalled_second_once(self, engine):
        """The overrun workload on the other LSM engines: both brakes fire,
        every label is a known cause, and the per-cause counters add up to
        ``stall.seconds``.  Per-cause subtotals add the same intervals in
        another order than the running total, so the sum may differ from it
        in the last bits."""
        db = _overrun(engine, repro.Environment(cache_bytes=1 << 20))
        causes = _stall_causes(db)
        assert causes.get("imm_backpressure", 0.0) > 0.0
        assert causes.get("l0_slowdown", 0.0) > 0.0
        assert set(causes) <= set(_STALL_CAUSES)
        assert sum(causes.values()) == pytest.approx(
            db.stats().stall_seconds, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("engine", ["pebblesdb", "wiredtiger"])
    def test_the_stalls_report_glosses_every_cause_a_run_emits(
        self, engine, tmp_path, capsys
    ):
        """``repro-trace --report stalls`` over a real trace: each cause
        the store charged gets its row and its note, none is flagged as
        unknown, and the rows' seconds are the store's stall total."""
        env = repro.Environment(cache_bytes=1 << 20)
        path = str(tmp_path / "trace.jsonl")
        sink = TraceSink(path)
        if engine == "wiredtiger":
            db = make_store(engine, env)
            db.enable_tracing(sink)
            rng = random.Random(1)
            for _ in range(20_000):
                db.put(b"key%09d" % rng.randrange(10**7), b"v" * 200)
            db.close()
        else:
            db = _overrun(engine, env, sink)
        sink.close()
        causes = _stall_causes(db)
        assert causes
        capsys.readouterr()
        assert trace_main([path, "--report", "stalls"]) == 0
        rows = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in set(causes) | {"total"}
        }
        total = rows.pop("total")
        assert set(rows) == set(causes)
        assert float(total.split()[2]) == pytest.approx(
            db.stats().stall_seconds, abs=1e-6
        )
        for cause, line in rows.items():
            assert line.rstrip().endswith(_STALL_CAUSES[cause])
        assert "(unknown cause label)" not in "".join(rows.values())


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
