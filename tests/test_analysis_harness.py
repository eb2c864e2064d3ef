"""Analysis helpers, report tables, options presets, and the harness."""

import pytest

import repro
from repro.analysis import (
    Table,
    fmt_bytes,
    fmt_ratio,
    space_amplification,
    sstable_size_distribution,
    write_amplification,
)
from repro.engines.base import StoreStats
from repro.engines.options import StoreOptions
from repro.harness import ExperimentConfig, fresh_run, standard_config
from repro.sim.aging import FilesystemAging


class TestAmplification:
    def test_write_amplification(self):
        stats = StoreStats(user_bytes_written=100, device_bytes_written=450)
        assert write_amplification(stats) == 4.5
        assert write_amplification(StoreStats()) == 0.0

    def test_space_amplification(self):
        assert space_amplification(150, 100) == 1.5
        assert space_amplification(10, 0) == 0.0

    def test_size_distribution_from_store(self):
        run = fresh_run("pebblesdb", standard_config(num_keys=1500, value_size=256))
        run.bench.fill_random()
        run.db.wait_idle()
        dist = sstable_size_distribution(run.db)
        assert dist.count > 0
        assert dist.median <= dist.p90 <= dist.p95
        assert "mean=" in dist.row(unit=1024)

    def test_size_distribution_empty_store(self):
        run = fresh_run("pebblesdb", standard_config(num_keys=100, value_size=64))
        dist = sstable_size_distribution(run.db)
        assert dist.count == 0


class TestReport:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.0 KB"
        assert "MB" in fmt_bytes(5 * 1024 * 1024)

    def test_fmt_ratio(self):
        assert fmt_ratio(250, 100) == "2.50x"
        assert fmt_ratio(1, 0) == "n/a"

    def test_table_renders(self):
        table = Table("Results", ["store", "kops"])
        table.add_row("pebblesdb", 116.8)
        table.add_row("hyperleveldb", 67.3)
        text = table.render()
        assert "Results" in text and "pebblesdb" in text

    def test_table_wrong_arity_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestOptions:
    def test_presets_exist(self):
        for name in ("leveldb", "hyperleveldb", "rocksdb", "pebblesdb"):
            assert StoreOptions.for_preset(name).preset == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            StoreOptions.for_preset("cassandra")

    def test_level_targets_grow_geometrically(self):
        opts = StoreOptions()
        assert opts.level_target_bytes(2) == 10 * opts.level_target_bytes(1)
        assert opts.level_target_bytes(0) > 0

    def test_scaled(self):
        opts = StoreOptions().scaled(2.0)
        assert opts.memtable_bytes == 2 * StoreOptions().memtable_bytes

    def test_rocksdb_relaxed_level0(self):
        assert StoreOptions.rocksdb().level0_stop_trigger > StoreOptions.hyperleveldb().level0_stop_trigger


class TestHarness:
    def test_default_cache_is_one_third_of_dataset(self):
        cfg = ExperimentConfig(num_keys=30000, value_size=1024)
        assert cfg.effective_cache_bytes() == pytest.approx(cfg.dataset_bytes / 3, rel=0.01)

    def test_cache_override(self):
        cfg = ExperimentConfig(cache_bytes=12345678)
        assert cfg.effective_cache_bytes() == 12345678

    def test_fresh_run_isolated_devices(self):
        a = fresh_run("pebblesdb", standard_config(num_keys=100, value_size=64))
        b = fresh_run("pebblesdb", standard_config(num_keys=100, value_size=64))
        a.db.put(b"k", b"v")
        assert b.db.get(b"k") is None

    def test_option_overrides_applied(self):
        cfg = standard_config(num_keys=100, value_size=64)
        cfg.option_overrides = {"pebblesdb": {"max_sstables_per_guard": 1}}
        run = fresh_run("pebblesdb", cfg)
        assert run.db.options.max_sstables_per_guard == 1

    def test_threads_scale_cpu(self):
        cfg = standard_config(num_keys=100, value_size=64, threads=4)
        run = fresh_run("pebblesdb", cfg)
        assert run.env.cpu.thread_scale == 4.0

    def test_aging_applied_to_device(self):
        cfg = standard_config(num_keys=100, value_size=64, aging=FilesystemAging(2, 0.89))
        run = fresh_run("pebblesdb", cfg)
        assert run.env.storage.device.aging_factor > 1.0

    def test_reopen_preserves_data(self):
        cfg = standard_config(num_keys=200, value_size=64)
        run = fresh_run("pebblesdb", cfg)
        run.db.put(b"k", b"v")
        run2 = run.reopen()
        assert run2.db.get(b"k") == b"v"


class TestPublicApi:
    def test_open_store_every_engine(self):
        env = repro.Environment()
        for engine in repro.ENGINES:
            db = repro.open_store(engine, env.storage)
            db.put(b"k", b"v")
            assert db.get(b"k") == b"v"

    def test_open_store_default_storage(self):
        db = repro.open_store("pebblesdb")
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_unknown_engine_rejected(self):
        env = repro.Environment()
        with pytest.raises(ValueError):
            repro.open_store("bogusdb", env.storage)

    def test_environment_defaults(self):
        env = repro.Environment()
        assert env.now == 0.0
        assert env.storage.cache.capacity_bytes == env.cache_bytes


class TestOptionValidation:
    def test_presets_all_valid(self):
        for name in ("leveldb", "hyperleveldb", "rocksdb", "pebblesdb"):
            StoreOptions.for_preset(name)  # must not raise

    def test_bad_values_rejected(self):
        import dataclasses

        base = StoreOptions()
        for field, value in [
            ("memtable_bytes", 0),
            ("num_levels", 1),
            ("level0_stop_trigger", 1),  # below slowdown
            ("background_workers", 0),
            ("max_sstables_per_guard", 0),
            ("compression_ratio", 0.0),
            ("compression_ratio", 1.5),
            ("top_level_bits", 0),
        ]:
            with pytest.raises(ValueError):
                dataclasses.replace(base, **{field: value})

    def test_knob_budget(self):
        import dataclasses

        from repro.net.server import ServerConfig

        assert (
            len(dataclasses.fields(StoreOptions)),
            len(dataclasses.fields(ServerConfig)),
        ) == (32, 16), (
            "a new knob needs two callers that exist today and need different "
            "values (ROADMAP aim 2); a removed one lowers this number"
        )

    def test_module_budget(self):
        """``engines/base.py`` keeps its split (ROADMAP item 8), and none of
        the modules carved out of it grows into a second one."""
        import pathlib

        root = pathlib.Path(repro.__file__).parent

        def lines(path: str) -> int:
            return len((root / path).read_text().splitlines())

        assert lines("engines/base.py") <= 1550
        for path in (
            "version/lifecycle.py",
            "engines/background.py",
            "engines/interface.py",
            "obs/stats.py",
        ):
            assert lines(path) <= 500, path
