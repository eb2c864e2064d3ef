"""PebblesDB engine: FLSM behaviour, guard lifecycle, optimizations."""

import random

import pytest

import repro
from repro.core import PebblesDBStore
from repro.harness import fresh_run, standard_config
from tests.conftest import make_store, tiny_options


@pytest.fixture
def env():
    return repro.Environment(cache_bytes=2 * 1024 * 1024)


def _triggered(db):
    """Compactions submitted so far, by the trigger that found them due."""
    return {
        metric.labels[0][1]: metric.value
        for metric in db.registry
        if metric.name == "compaction.triggered"
    }


def fill(db, n, value_size=64, seed=0, prefix=b"key"):
    rng = random.Random(seed)
    model = {}
    for i in range(n):
        k = prefix + b"%09d" % rng.randrange(10**8)
        v = b"v%04d" % i + b"x" * value_size
        db.put(k, v)
        model[k] = v
    return model


class TestBasicOps:
    def test_put_get_delete_roundtrip(self, env):
        db = make_store("pebblesdb", env)
        model = fill(db, 2000, seed=1)
        for k in random.Random(2).sample(list(model), 150):
            assert db.get(k) == model[k]
        doomed = random.Random(3).sample(list(model), 100)
        for k in doomed:
            db.delete(k)
        for k in doomed[:30]:
            assert db.get(k) is None
        db.check_invariants()

    def test_scan_matches_model(self, env):
        db = make_store("pebblesdb", env)
        model = fill(db, 1500, seed=4)
        got = dict(db.scan())
        assert got == model

    def test_updates_return_newest_across_guard_files(self, env):
        db = make_store("pebblesdb", env)
        model = fill(db, 1200, seed=5)
        # Update a subset several times so versions spread across levels.
        victims = random.Random(6).sample(list(model), 120)
        for round_no in range(3):
            for k in victims:
                v = b"round%d" % round_no + k[-4:]
                db.put(k, v)
                model[k] = v
        db.wait_idle()
        for k in victims:
            assert db.get(k) == model[k]
        db.compact_all()
        for k in victims:
            assert db.get(k) == model[k]


class TestGuardLifecycle:
    def test_guards_committed_during_compaction(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 3000, seed=7)
        db.wait_idle()
        counts = db.guard_counts()
        assert sum(counts) > 0, "no guards ever committed"
        db.check_invariants()

    def test_guard_skip_list_property_maintained(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 3000, seed=8)
        db.compact_all()
        db.check_invariants()  # includes the subset property per level

    def test_deeper_levels_have_at_least_as_many_guards(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 4000, seed=9)
        db.compact_all()
        counts = db.guard_counts()
        populated = [c for c in counts[1:] if c > 0]
        if len(populated) >= 2:
            assert populated == sorted(populated)

    def test_guard_deletion_rehomes_files(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 2500, seed=10)
        db.compact_all()
        model = dict(db.scan())
        keys_with_guards = [
            (lvl, key)
            for lvl in range(1, db.options.num_levels)
            for key in db._guarded[lvl].guard_keys
        ]
        assert keys_with_guards, "need at least one guard for this test"
        # Delete the shallowest guard everywhere.
        _, victim = keys_with_guards[0]
        db.request_guard_deletion(victim)
        db.put(b"trigger", b"x")  # deletion processed at next cycle
        db.compact_all()
        db.check_invariants()
        for lvl in range(1, db.options.num_levels):
            assert not db._guarded[lvl].has_guard(victim)
        model[b"trigger"] = b"x"
        assert dict(db.scan()) == model

    def test_empty_guards_harmless(self, env):
        db = make_store("pebblesdb", env)
        # Insert, delete everything, insert a different range.
        for i in range(1500):
            db.put(b"old%07d" % i, b"v" * 64)
        for i in range(1500):
            db.delete(b"old%07d" % i)
        db.compact_all()
        model = fill(db, 800, seed=11, prefix=b"new")
        for k in random.Random(12).sample(list(model), 80):
            assert db.get(k) == model[k]
        db.check_invariants()


class TestFlsmCompaction:
    def test_lower_write_amp_than_lsm(self):
        amps = {}
        for engine in ("pebblesdb", "hyperleveldb"):
            env = repro.Environment(cache_bytes=2 * 1024 * 1024)
            db = make_store(engine, env)
            fill(db, 4000, seed=13)
            db.wait_idle()
            amps[engine] = db.stats().write_amplification
        assert amps["pebblesdb"] < amps["hyperleveldb"]

    def test_guard_files_capped_in_steady_state(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 3000, seed=14)
        db.compact_all()
        cap = max(2, db.options.max_sstables_per_guard)
        for lvl in range(1, db.options.num_levels):
            for guard in db._guarded[lvl].guards():
                assert guard.num_files <= cap + 1, (
                    f"guard at level {lvl} has {guard.num_files} sstables"
                )

    def test_max_sstables_one_degenerates_to_lsm(self, env):
        db = make_store("pebblesdb", env, max_sstables_per_guard=1)
        model = fill(db, 1500, seed=15)
        db.compact_all()
        db.check_invariants()
        for lvl in range(1, db.options.num_levels):
            for guard in db._guarded[lvl].guards():
                assert guard.num_files <= 2
        for k in random.Random(16).sample(list(model), 80):
            assert db.get(k) == model[k]

    def test_sequential_fill_costs_more_than_lsm(self):
        """Paper section 4.5: FLSM always partitions, LSM just moves."""
        amps = {}
        for engine in ("pebblesdb", "hyperleveldb"):
            env = repro.Environment(cache_bytes=2 * 1024 * 1024)
            db = make_store(engine, env)
            for i in range(2500):
                db.put(b"seq%08d" % i, b"v" * 64)
            db.wait_idle()
            amps[engine] = db.stats().write_amplification
        assert amps["pebblesdb"] > amps["hyperleveldb"]

    def test_fewer_larger_sstables_than_lsm(self):
        """Table 5.1: with paper-density guards PebblesDB keeps fewer,
        larger sstables because fragments are not split at a target file
        size."""
        counts = {}
        for engine in ("pebblesdb", "hyperleveldb"):
            env = repro.Environment(cache_bytes=2 * 1024 * 1024)
            db = make_store(engine, env, top_level_bits=12, bit_decrement=2)
            fill(db, 4000, seed=17)
            db.wait_idle()
            counts[engine] = db.stats().sstable_count
        assert counts["pebblesdb"] < counts["hyperleveldb"]


class TestOptimizations:
    def test_bloom_filters_reduce_read_io(self):
        """Paper section 4.1: filters skip guard sstables that cannot hold
        the key.  The effect needs guards with several overlapping-range
        sstables (a write-heavy, uncompacted store), so compaction
        triggers are relaxed here; a large table cache isolates the
        data-block savings from filter-(re)load IO."""
        reads = {}
        for enabled in (True, False):
            env = repro.Environment(cache_bytes=128 * 1024)
            db = make_store(
                "pebblesdb",
                env,
                enable_sstable_bloom=enabled,
                table_cache_size=4096,
                max_sstables_per_guard=12,
                level1_max_bytes=1 << 26,
                enable_seek_based_compaction=False,
            )
            model = fill(db, 2500, seed=18, value_size=128)
            db.wait_idle()
            keys = random.Random(19).sample(list(model), 300)
            before = db.stats().device_bytes_read
            for k in keys:
                db.get(k)
            reads[enabled] = db.stats().device_bytes_read - before
        assert reads[True] < 0.6 * reads[False]

    def test_seek_based_compaction_reduces_guard_files(self, env):
        db = make_store(
            "pebblesdb",
            env,
            enable_seek_based_compaction=True,
        )
        fill(db, 2000, seed=20)
        db.wait_idle()
        # A burst of consecutive seeks should trigger compaction work.
        before = db.stats().compactions
        for i in range(50):
            it = db.seek(b"key%04d" % i)
            it.close()
        db.wait_idle()
        assert db.stats().compactions >= before

    def test_a_subclass_sets_the_seek_compaction_threshold(self, env):
        """Every ``SEEK_COMPACTION_THRESHOLD``-th consecutive seek starts a
        compaction pass; a subclass that lowers the constant seeks less
        between passes."""

        class EagerSeeks(PebblesDBStore):
            SEEK_COMPACTION_THRESHOLD = 5

        passes = {}
        for cls in (PebblesDBStore, EagerSeeks):
            db = cls(
                env.storage,
                tiny_options("pebblesdb", enable_seek_based_compaction=True),
                prefix=f"{cls.__name__}/",
            )
            fill(db, 2000, seed=20)
            db.wait_idle()
            fired = passes[cls] = []
            schedule = db._schedule_compactions

            def counting(db=db, fired=fired, schedule=schedule):
                fired.append(db._consecutive_seeks)
                schedule()

            db._schedule_compactions = counting
            for i in range(20):
                db.seek(b"key%04d" % i).close()
        assert passes[PebblesDBStore] == [10, 20]
        assert passes[EagerSeeks] == [5, 10, 15, 20]

    def test_seek_compaction_speeds_up_the_ablation_seek_phase(self):
        """Section 5.2: seek-based compaction speeds seeks up.  The
        ablation's own phases at seed 25 (fill 10K x 1 KiB, 2,500 reads,
        1,500 seeks; filters and parallel seeks off), once with seek
        compaction and once without.  Every compaction during the seeks is
        the guard rule's: nothing pushes whole levels down."""
        kops, seek_jobs = {}, {}
        for enabled in (False, True):
            overrides = dict(
                enable_sstable_bloom=False,
                enable_parallel_seeks=False,
                enable_seek_based_compaction=enabled,
            )
            cfg = standard_config(
                num_keys=10_000,
                value_size=1024,
                seed=25,
                option_overrides={"pebblesdb": overrides},
            )
            run = fresh_run("pebblesdb", cfg)
            run.bench.fill_random()
            run.bench.read_random(2500)
            before = _triggered(run.db)
            kops[enabled] = run.bench.seek_random(1500).kops
            after = _triggered(run.db)
            seek_jobs[enabled] = {
                trigger: jobs - before.get(trigger, 0)
                for trigger, jobs in after.items()
                if jobs != before.get(trigger, 0)
            }
        assert seek_jobs[False] == {}
        assert set(seek_jobs[True]) == {"seek_guard"}, seek_jobs[True]
        assert kops[True] > kops[False], kops

    def test_parallel_seek_costs_less_than_serial(self):
        times = {}
        for parallel in (True, False):
            env = repro.Environment(cache_bytes=128 * 1024)
            db = make_store(
                "pebblesdb",
                env,
                enable_parallel_seeks=parallel,
                enable_seek_based_compaction=False,
            )
            fill(db, 2500, seed=21, value_size=256)
            db.wait_idle()
            t0 = env.now
            rng = random.Random(22)
            for _ in range(200):
                it = db.seek(b"key%09d" % rng.randrange(10**8))
                it.close()
            times[parallel] = env.now - t0
        assert times[True] <= times[False]

    def test_consecutive_seek_counter_resets_on_write(self, env):
        db = make_store("pebblesdb", env)
        for i in range(4):
            it = db.seek(b"key%d" % i)
            it.close()
        assert db._consecutive_seeks == 4
        db.put(b"reset", b"v")
        assert db._consecutive_seeks == 0


class TestLayout:
    def test_layout_dump_mentions_guards(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 2500, seed=23)
        db.compact_all()
        text = db.layout()
        assert "Level 0" in text
        assert "Guard" in text

    def test_stats_surface_extra_fields(self, env):
        db = make_store("pebblesdb", env)
        fill(db, 800, seed=24)
        s = db.stats()
        assert s.preset == "pebblesdb"
        assert s.sstable_count == len(db.sstable_file_numbers())
