"""Command-line tools: dbbench CLI, store shell, RepairDB."""

import dataclasses
import io
import random

import pytest

import repro
from repro.engines.options import StoreOptions
from repro.tools.dbbench import main as dbbench_main
from repro.tools.repair import repair_store
from repro.tools.shell import StoreShell


class TestDbBenchCli:
    def test_default_run(self, capsys):
        rc = dbbench_main(["--num", "800", "--value-size", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fillrandom" in out
        assert "write amplification" in out

    def test_all_benchmarks(self, capsys):
        rc = dbbench_main(
            [
                "--engine",
                "hyperleveldb",
                "--num",
                "600",
                "--value-size",
                "64",
                "--benchmarks",
                "fillseq,fillrandom,overwrite,readrandom,seekrandom,"
                "rangequery,mixed,compact,deleterandom",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("fillseq", "overwrite", "rangequery50", "mixed", "compact"):
            assert name in out

    def test_unknown_benchmark_rejected(self, capsys):
        rc = dbbench_main(["--benchmarks", "flywheel"])
        assert rc == 2

    def test_hdd_device_slower(self, capsys):
        # Same workload on HDD vs SSD: HDD's simulated time must be larger.
        times = {}
        for device in ("hdd", "ssd-raid0"):
            dbbench_main(
                [
                    "--device",
                    device,
                    "--num",
                    "500",
                    "--value-size",
                    "256",
                    "--cache-mb",
                    "0.1",
                    "--benchmarks",
                    "fillrandom,readrandom",
                ]
            )
            out = capsys.readouterr().out
            times[device] = float(out.rsplit("sim time", 1)[1].split("s")[0])
        assert times["hdd"] > times["ssd-raid0"]


class TestShell:
    def run_shell(self, commands):
        out = io.StringIO()
        shell = StoreShell("pebblesdb", out=out)
        for line in commands:
            alive = shell.execute(line)
            if not alive:
                break
        return out.getvalue()

    def test_put_get_del(self):
        out = self.run_shell(["put color blue", "get color", "del color", "get color"])
        assert "blue" in out
        assert "(not found)" in out

    def test_scan_and_range(self):
        out = self.run_shell(
            ["put a 1", "put b 2", "put c 3", "scan", "range a b"]
        )
        assert "a -> 1" in out and "c -> 3" in out

    def test_stats_layout_compact(self):
        out = self.run_shell(["put k v", "flush", "compact", "stats", "layout", "time"])
        assert "amp" in out
        assert "Level 0" in out

    def test_crash_and_recover(self):
        out = self.run_shell(
            ["put durable yes", "flush", "crash", "get durable"]
        )
        assert "crashed and recovered" in out
        assert "yes" in out

    def test_unknown_command(self):
        out = self.run_shell(["frobnicate"])
        assert "unknown command" in out

    def test_quit_stops(self):
        out = io.StringIO()
        shell = StoreShell("pebblesdb", out=out)
        assert shell.execute("put a 1")
        assert not shell.execute("quit")

    def test_errors_do_not_kill_shell(self):
        out = self.run_shell(["put", "get onlykey stillalive extra", "put a 1", "get a"])
        assert "1" in out

    def test_stats_reports_health(self):
        out = self.run_shell(["put k v", "stats"])
        assert "health=ok" in out
        assert "compaction scheduler:" in out

    def test_property_lists_names(self):
        out = self.run_shell(["property"])
        assert "repro.health" in out
        assert "repro.guards" in out  # pebblesdb-specific extension

    def test_property_reads_value(self):
        out = self.run_shell(["put k v", "property repro.health"])
        assert "ok" in out

    def test_property_unknown_name(self):
        out = self.run_shell(["property repro.no-such-thing"])
        assert "(no such property)" in out


def _tiny(preset, **kw):
    base = StoreOptions.for_preset(preset)
    return dataclasses.replace(
        base,
        memtable_bytes=4 * 1024,
        level1_max_bytes=16 * 1024,
        target_file_bytes=8 * 1024,
        top_level_bits=6,
        bit_decrement=1,
        sync_writes=True,
        **kw,
    )


class TestRepair:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb"])
    def test_repair_after_manifest_loss(self, engine):
        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(engine, env.storage, options=_tiny(engine), prefix="db/")
        rng = random.Random(3)
        model = {}
        for i in range(1500):
            k = b"key%07d" % rng.randrange(10**6)
            v = b"v%05d" % i
            db.put(k, v)
            model[k] = v
        db.close()
        # Disaster: CURRENT and every MANIFEST vanish.
        for name in list(env.storage.list_files("db/")):
            base = name[3:]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)

        report = repair_store(env.storage, "db/")
        assert report.tables_recovered > 0
        assert report.last_sequence > 0

        db2 = repro.open_store(engine, env.storage, options=_tiny(engine), prefix="db/")
        assert dict(db2.scan()) == model
        db2.check_invariants()
        # The repaired store keeps working and compacting.
        db2.put(b"after-repair", b"ok")
        db2.compact_all()
        assert db2.get(b"after-repair") == b"ok"

    def test_repair_converts_wals(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        for i in range(40):  # small: stays in the WAL, never flushed
            db.put(b"wal%03d" % i, b"v%03d" % i)
        # Simulate losing the metadata without a clean close.
        for name in list(env.storage.list_files("db/")):
            base = name[3:]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)
        report = repair_store(env.storage, "db/")
        assert report.logs_converted >= 1
        assert report.entries_from_logs == 40
        db2 = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        assert db2.get(b"wal007") == b"v007"
        assert len(dict(db2.scan())) == 40

    def test_repair_quarantines_corrupt_table(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        for i in range(600):
            db.put(b"key%04d" % i, b"v" * 64)
        db.flush_memtable()
        db.close()
        tables = [n for n in env.storage.list_files("db/") if n.endswith(".sst")]
        assert tables
        victim = tables[0]
        acct = env.storage.foreground_account()
        env.storage.write_at(victim, env.storage.size(victim) - 6, b"\xde\xad", acct)
        for name in list(env.storage.list_files("db/")):
            base = name[3:]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)
        report = repair_store(env.storage, "db/")
        assert report.tables_corrupt == 1
        assert victim in report.corrupt_files
        assert env.storage.exists(victim + ".corrupt")
        db2 = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        db2.check_invariants()
        # Data from intact tables is still readable.
        assert len(dict(db2.scan())) > 0

    def test_repaired_store_resolves_versions_across_tables(self):
        """Everything lands in Level 0; newest version must still win."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        for round_no in range(3):
            for i in range(300):
                db.put(b"key%03d" % i, b"round%d" % round_no)
            db.flush_memtable()
        db.close()
        for name in list(env.storage.list_files("db/")):
            base = name[3:]
            if base == "CURRENT" or base.startswith("MANIFEST-"):
                env.storage.delete(name)
        repair_store(env.storage, "db/")
        db2 = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        assert db2.get(b"key000") == b"round2"
        assert all(v == b"round2" for _, v in db2.scan())


class TestDumpTools:
    def _store(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        for i in range(500):
            db.put(b"key%05d" % i, b"value%05d" % i)
        db.delete(b"key00007")
        db.flush_memtable()
        db.wait_idle()
        return env, db

    def test_dump_sstable(self):
        from repro.tools.dump import dump_sstable

        env, db = self._store()
        table = [n for n in env.storage.list_files("db/") if n.endswith(".sst")][0]
        text = dump_sstable(env.storage, table, records=True, limit=5)
        assert "entries" in text and "bloom filter" in text
        assert "PUT key" in text
        assert "..." in text  # truncation marker

    def test_dump_manifest_shows_edits_and_guards(self):
        from repro.tools.dump import dump_manifest

        env, db = self._store()
        db.compact_all()
        manifest = [
            n for n in env.storage.list_files("db/") if "MANIFEST" in n
        ][0]
        text = dump_manifest(env.storage, manifest)
        assert "edit #0" in text
        assert "+ L0 file" in text
        if sum(db.guard_counts()):
            assert "guard" in text

    def test_dump_shows_sequence_bounds_and_where_the_filter_lives(self):
        from repro.tools.dump import dump_manifest, dump_sstable

        env, db = self._store()
        meta = db.live_files()[0]
        manifest = [n for n in env.storage.list_files("db/") if "MANIFEST" in n][0]
        lines = dump_manifest(env.storage, manifest).splitlines()
        assert any(
            f"file {meta.number} " in line and f"largest_seq={meta.largest_seq}" in line
            for line in lines
        )
        assert "filter: on open" in dump_sstable(env.storage, db._sst_name(meta.number))

    def test_dump_wal(self):
        from repro.tools.dump import dump_wal

        env = repro.Environment(cache_bytes=1 << 20)
        db = repro.open_store(
            "pebblesdb", env.storage, options=_tiny("pebblesdb"), prefix="db/"
        )
        db.put(b"alpha", b"1")
        db.delete(b"alpha")
        wal = [n for n in env.storage.list_files("db/") if n.endswith(".log")][0]
        text = dump_wal(env.storage, wal)
        assert "PUT alpha" in text
        assert "DEL alpha" in text

    def test_dump_store_overview(self):
        from repro.tools.dump import dump_store

        env, db = self._store()
        text = dump_store(env.storage, "db/")
        assert "CURRENT" in text and ".sst" in text


class TestDbBenchMultiEngine:
    def test_engine_all_compares(self, capsys):
        rc = dbbench_main(
            ["--engine", "pebblesdb,hyperleveldb", "--num", "300",
             "--value-size", "64", "--benchmarks", "fillrandom"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "===== pebblesdb =====" in out
        assert "===== hyperleveldb =====" in out

    def test_unknown_engine_rejected(self, capsys):
        assert dbbench_main(["--engine", "cassandra"]) == 2


class TestDbBenchJson:
    def test_json_has_latency_percentiles(self, capsys, tmp_path):
        import json

        path = tmp_path / "bench.json"
        rc = dbbench_main(
            ["--num", "500", "--value-size", "64",
             "--benchmarks", "fillrandom,readrandom,mixed",
             "--json", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # Percentiles appear in the printed rows too.
        assert "p50" in out and "p99" in out
        payload = json.loads(path.read_text())
        (engine,) = payload["engines"]
        assert engine["engine"] == "pebblesdb"
        by_name = {p["name"]: p for p in engine["phases"]}
        for phase in ("fillrandom", "readrandom"):
            lat = by_name[phase]["latency_us"]
            assert lat["samples"] > 0
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        # The mixed phase also splits read/write percentiles out.
        assert "read_p50_us" in by_name["mixed"]["extra"]
        assert "write_p99_us" in by_name["mixed"]["extra"]
        assert engine["write_amplification"] > 0

    def test_json_multi_engine(self, tmp_path):
        import json

        path = tmp_path / "bench.json"
        rc = dbbench_main(
            ["--engine", "pebblesdb,hyperleveldb", "--num", "300",
             "--value-size", "64", "--benchmarks", "fillrandom",
             "--json", str(path)]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert [e["engine"] for e in payload["engines"]] == [
            "pebblesdb", "hyperleveldb"
        ]
