"""The stats plane: one definition, one snapshot, one renderer.

``stats_part()`` is the only read of a store's numbers; ``stats()``, the
``repro.*`` properties, the admin sections, shell ``stats`` and the
dbbench footer are views of it.  These tests pin that each view shows
the value the registry holds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import re

import pytest

from repro.engines.base import STAT_METRICS, StoreStats
from repro.errors import BackgroundError, StorageError
from repro.net.client import ClusterClient
from repro.net.server import KVServer, ServerConfig
from repro.obs.admin import aggregate_admin
from repro.obs.render import report
from repro.sim.faults import FaultInjector, FaultPlan
from repro.tools.dbbench import main as dbbench_main
from repro.tools.shell import StoreShell
from tests.conftest import LSM_ENGINES, make_store


def mixed_workload(db, n=600):
    for i in range(n):
        db.put(b"key%05d" % (i * 7 % n), b"v%05d" % i + b"x" * 100)
    db.flush_memtable()
    for i in range(0, n, 3):
        db.get(b"key%05d" % i)
    for i in range(0, n, 50):
        db.delete(b"key%05d" % i)
    for i in range(0, n, 40):
        with db.seek(b"key%05d" % i) as it:
            for _ in range(5):
                if not it.next():
                    break
    db.wait_idle()


class TestOneDefinition:
    def test_every_numeric_field_is_its_registry_metric(self, any_engine, env):
        db = make_store(any_engine, env)
        mixed_workload(db)
        stats = db.stats()
        numeric = [
            f.name
            for f in dataclasses.fields(StoreStats)
            if isinstance(f.default, (bool, int, float))
        ]
        assert sorted(numeric) == sorted(STAT_METRICS)
        for name in numeric:
            assert getattr(stats, name) == db.registry.value(STAT_METRICS[name]), name
        assert stats.puts == 600 and stats.gets == 200
        assert stats.device_bytes_written == db.io_ledger().total_write_bytes > 0
        assert stats.preset == any_engine

    def test_part_is_complete_without_a_stats_call(self, any_engine, env):
        db = make_store(any_engine, env)
        mixed_workload(db)
        part = db.stats_part()
        registry = part["registry"]
        for name in ("io.device_bytes_written", "io.device_syncs",
                     "store.memory_bytes", "fault.degraded"):
            assert registry.get(name) is not None, name
        assert registry.value("io.device_bytes_written") > 0
        if any_engine in LSM_ENGINES:
            assert registry.value("store.sstables") == len(db.sstable_file_numbers())
            probed = sum(
                m.value for m in registry if m.name == "read.files_probed"
            )
            assert probed > 0  # the per-level tallies were folded in
        # The store's own properties are the admin sections over this part.
        for section in ("metrics", "ledger", "windows"):
            assert db.get_property(f"repro.{section}") == aggregate_admin(
                section, [part]
            )

    def test_table_cache_lookups_are_counted_and_reported(self, lsm_engine, env):
        db = make_store(lsm_engine, env, table_cache_size=2)
        lookups = []
        get_reader = db._get_reader

        def counted(number, account):
            lookups.append(number)
            return get_reader(number, account)

        db._get_reader = counted
        mixed_workload(db)
        value = db.stats_part()["registry"].value
        hits, misses = value("read.table_cache_hits"), value("read.table_cache_misses")
        assert hits > 0 and misses > 0
        assert hits + misses == len(lookups)
        assert db.stats_part()["registry"].value("read.table_cache_misses") == misses
        assert f"table cache: hits={hits} misses={misses} miss-share=" in report(db)

    def test_every_candidate_file_is_probed_or_skipped_for_a_stated_reason(
        self, lsm_engine, env
    ):
        """Per level: files whose range covers the key = probed +
        skipped by the filter + skipped by the sequence bound."""
        db = make_store(lsm_engine, env)
        considered = {}
        candidates = db._level_candidates

        def counted(level, key):
            files = candidates(level, key)
            if files is not None:
                files = list(files)
                considered[level] = considered.get(level, 0) + sum(
                    f.smallest.user_key <= key <= f.largest.user_key for f in files
                )
            return files

        db._level_candidates = counted
        for round_ in range(3):  # overwrites: several versions per key
            mixed_workload(db, 300)
        for i in range(300):
            db.get(b"key%05d" % i)
        value = db.stats_part()["registry"].value
        assert sum(considered.values()) > 0
        for level, files in considered.items():
            reasons = [
                value(f"read.{what}", level=level)
                for what in ("files_probed", "bloom_skipped", "seq_skipped")
            ]
            assert sum(reasons) == files, (level, reasons)
        seq_skipped = sum(value("read.seq_skipped", level=level) for level in considered)
        assert seq_skipped > 0
        assert f" seq-skipped={seq_skipped}" in report(db)

    def test_embedded_store_has_no_serving_counters(self, env):
        db = make_store("pebblesdb", env)
        mixed_workload(db, 100)
        assert "overload" not in db.get_property("repro.health")
        assert "repro_server_" not in db.get_property("repro.metrics")


class TestProperties:
    @pytest.mark.parametrize("engine", ["pebblesdb", "hyperleveldb", "btree"])
    def test_every_listed_name_answers(self, engine, env):
        db = make_store(engine, env)
        mixed_workload(db, 200)
        names = db.property_names()
        assert len(names) == len(set(names))
        for name in names:
            assert db.get_property(name.replace("<N>", "0")) is not None, name
            if name.endswith("<N>"):
                assert db.get_property(name) is None
                assert db.get_property(name.replace("<N>", "99")) is None
        assert db.get_property("repro.no-such-thing") is None
        assert ("repro.guards" in names) == (engine == "pebblesdb")

    @pytest.mark.parametrize("engine", ["pebblesdb", "btree"])
    def test_health_leads_with_state_through_degrade_and_resume(self, engine, env):
        db = make_store(engine, env)
        mixed_workload(db, 100)
        assert db.get_property("repro.health").split()[0] == "ok"
        pattern = "db/*.sst" if engine == "pebblesdb" else "db/journal.log"
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(
                    0, op="append", name_pattern=pattern, kind="persistent"
                )
            )
        )
        with pytest.raises((BackgroundError, StorageError)):
            for i in range(5000):
                db.put(b"pressure%05d" % i, b"x" * 64)
        assert db.is_degraded
        part = db.stats_part()
        assert part["health"] == db.get_property("repro.health")
        assert part["health"].split()[0] == "degraded"
        assert part["background_error"] == db.get_property("repro.background-error")
        assert db.stats().degraded and db.stats().background_error
        env.storage.set_fault_injector(None)
        assert db.resume() is True
        assert db.get_property("repro.health").split()[0] == "ok"
        assert db.get_property("repro.background-error") == ""


class TestOneRenderer:
    FIGURES = re.compile(
        r"write-amplification=(\S+) stall-seconds=(\S+)\n.*sstables=(\d+)"
    )

    def test_shell_property_and_dbbench_print_the_same_figures(self, capsys, tmp_path):
        out = io.StringIO()
        shell = StoreShell("pebblesdb", out=out)
        for i in range(300):
            shell.db.put(b"key%05d" % i, b"v" * 200)
        shell.db.flush_memtable()
        shell.execute("stats")
        block = shell.db.get_property("repro.stats")
        assert block in out.getvalue()
        amp, stall, sstables = self.FIGURES.search(block).groups()
        stats = shell.db.stats()
        assert float(amp) == round(stats.write_amplification, 3)
        assert float(stall) == round(stats.stall_seconds, 6)
        assert int(sstables) == stats.sstable_count > 0

        # dbbench prints the same block; its figures are the ones the
        # --json summary takes from StoreStats.
        path = tmp_path / "run.json"
        argv = ["--num", "500", "--value-size", "128", "--json", str(path)]
        assert dbbench_main(argv) == 0
        footer = capsys.readouterr().out
        amp, stall, sstables = self.FIGURES.search(footer).groups()
        recorded = json.loads(path.read_text())["engines"][0]
        assert abs(float(amp) - recorded["write_amplification"]) <= 0.001
        assert float(stall) == recorded["stall_seconds"]
        assert int(sstables) == recorded["sstable_count"] > 0
        assert "health=ok" in footer and "compaction scheduler:" in footer


class TestServedHealth:
    def test_overload_token_appears_once_the_server_sheds(self):
        async def main():
            server = KVServer(
                ServerConfig(shards=1, seed=7, cache_bytes=1 << 20,
                             max_write_debt=2, overload_retry_after=0.001)
            )
            shard = server.shards[0]
            assert "overload" not in shard.db.get_property("repro.health")
            clients = [await ClusterClient.open_loopback(server) for _ in range(4)]
            await asyncio.gather(
                *(c.put(b"k%02d-%03d" % (n, i), b"v")
                  for n, c in enumerate(clients) for i in range(40))
            )
            rejects = shard.stats.overload_rejects
            assert rejects > 0, "workload never tripped admission control"
            assert f"overload-rejects={rejects}" in shard.db.get_property("repro.health")
            assert f"repro_server_overload_rejects {rejects}" in server.metrics_text()
            for client in clients:
                await client.aclose()
            await server.aclose()

        asyncio.run(main())
