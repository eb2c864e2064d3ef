"""The flight recorder (:mod:`repro.obs.recorder`).

Contracts under test:

* ``trace_sample`` parsing and validation at the options layer;
* ``"errors"`` mode (the default) keeps the hot path uninstrumented
  (``store.tracer is None``) while capturing 100% of degraded/faulted
  events, and dumps the ring on degradation;
* ``"1/N"`` mode installs a sampling tracer whose output is same-seed
  deterministic and whose sampled traces are complete (never fragments);
* dumps are valid trace files: ``read_trace`` parses them and the
  ``repro-trace --report dump`` renderer exits zero;
* the recorder never perturbs the simulation: engine stats are
  byte-identical across ``off``/``errors`` runs of the same workload.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.obs.recorder import FlightRecorder, parse_sample_mode
from repro.obs.trace import read_trace
from repro.sim.faults import FaultInjector, FaultPlan
from repro.tools.trace import main as trace_main
from tests.conftest import make_store


def _fill(db, n=200):
    for i in range(n):
        db.put(b"key%05d" % i, b"v" * 64)


class TestSampleModeParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("off", ("off", 0)),
            ("errors", ("errors", 0)),
            ("1/1", ("sample", 1)),
            ("1/64", ("sample", 64)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_sample_mode(spec) == expected

    @pytest.mark.parametrize("spec", ["", "all", "1/0", "1/-3", "1/x", "2/3"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_sample_mode(spec)

    def test_options_validate_the_knob(self):
        env = repro.Environment(cache_bytes=1 << 20)
        with pytest.raises(ValueError):
            make_store("pebblesdb", env, trace_sample="sometimes")
        with pytest.raises(ValueError):
            make_store("pebblesdb", env, trace_ring_capacity=0)


class TestRing:
    def test_ring_is_bounded(self):
        clock = repro.Environment(cache_bytes=1 << 20).clock
        rec = FlightRecorder(component="t", seed=1, clock=clock, capacity=16)
        for i in range(100):
            rec.point("tick", n=i)
        assert len(rec) == 16
        records = rec.records()
        # Oldest evicted, newest kept, order preserved.
        assert [r["attrs"]["n"] for r in records] == list(range(84, 100))

    def test_off_mode_records_and_dumps_nothing(self, tmp_path):
        rec = FlightRecorder(component="t", mode="off", dump_dir=str(tmp_path))
        rec.point("tick")
        assert not rec.enabled
        assert len(rec) == 0
        assert rec.dump("whatever") is None
        assert os.listdir(tmp_path) == []

    def test_dump_cap(self, tmp_path):
        rec = FlightRecorder(
            component="t", mode="errors", dump_dir=str(tmp_path), max_dumps=2
        )
        rec.point("tick")
        paths = [rec.dump(f"r{i}") for i in range(4)]
        assert [p is not None for p in paths] == [True, True, False, False]
        assert rec.last_reason == "r3"  # in-memory state still tracks


class TestErrorsMode:
    def test_default_mode_keeps_hot_path_untraced(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        assert db.options.trace_sample == "errors"
        assert db.tracer is None
        assert db.recorder.enabled
        db.close()

    def test_transient_retries_are_recorded(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        _fill(db, 100)
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst")
            )
        )
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        names = [r["name"] for r in db.recorder.records()]
        assert "fault.retry" in names
        assert not db.is_degraded
        db.close()

    def test_transient_manifest_retries_are_recorded(self):
        """A retried MANIFEST append takes the same retry loop as a flush,
        so it lands in the ring too, under its own kind."""
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        _fill(db, 100)
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(0, op="append", name_pattern="db/MANIFEST-*")
            )
        )
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        assert db.stats().transient_fault_retries == 1
        retries = [
            r["attrs"] for r in db.recorder.records() if r["name"] == "fault.retry"
        ]
        assert retries == [{"kind": "manifest_append", "attempt": 1}]
        assert not db.is_degraded
        db.close()

    def test_degradation_dumps_the_ring(self, tmp_path):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env, trace_dump_dir=str(tmp_path))
        _fill(db, 150)
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(
                    0,
                    op="append",
                    name_pattern="db/MANIFEST-*",
                    kind="persistent",
                )
            )
        )
        db.flush_memtable()
        db.wait_idle()
        assert db.is_degraded
        names = [r["name"] for r in db.recorder.records()]
        assert "fault.degraded" in names
        assert db.recorder.dumps >= 1
        assert db.recorder.last_reason.startswith("degraded:")
        dumps = sorted(os.listdir(tmp_path))
        assert dumps and dumps[0].startswith("flight-")
        env.storage.set_fault_injector(None)
        db.close()

    def test_dump_is_a_valid_trace_file_and_renders(self, tmp_path):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env, trace_dump_dir=str(tmp_path))
        _fill(db, 100)
        env.storage.set_fault_injector(
            FaultInjector(
                FaultPlan.fail_nth(
                    0,
                    op="append",
                    name_pattern="db/MANIFEST-*",
                    kind="persistent",
                )
            )
        )
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        path = db.recorder.dump_paths[0]
        spans = read_trace(path)
        assert spans[0]["name"] == "flight.dump"
        assert spans[0]["attrs"]["reason"].startswith("degraded:")
        assert trace_main([path, "--report", "dump"]) == 0
        db.close()

    def test_flight_recorder_property(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env)
        summary = json.loads(db.get_property("repro.flight-recorder"))
        assert summary["mode"] == "errors"
        assert summary["dumps"] == 0
        assert "repro.flight-recorder" in db.property_names()
        db.close()


class TestSamplingMode:
    def test_sampling_tracer_installed(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env, trace_sample="1/8")
        assert db.tracer is db.recorder.tracer
        db.close()

    def test_one_in_n_samples_complete_traces(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env, trace_sample="1/8")
        _fill(db, 400)
        for i in range(0, 400, 2):
            db.get(b"key%05d" % i)
        db.wait_idle()
        records = db.recorder.records()
        assert records, "sampled nothing at 1/8"
        # Sampled roots are full traces: every record's trace id belongs
        # to a sampled root, and child spans reference in-trace parents.
        get_spans = [r for r in records if r["name"] == "get"]
        sampled_gets = len(get_spans)
        assert 0 < sampled_gets <= 200 // 8 + 1
        by_id = {(r["trace"], r["span"]): r for r in records}
        for r in records:
            if r.get("parent") and r["kind"] not in ("background", "event"):
                assert (r["trace"], r["parent"]) in by_id

    def test_error_events_are_never_sampled_away(self):
        env = repro.Environment(cache_bytes=1 << 20)
        db = make_store("pebblesdb", env, trace_sample="1/1000")
        _fill(db, 100)
        env.storage.set_fault_injector(
            FaultInjector(FaultPlan.fail_nth(0, op="append", name_pattern="db/*.sst"))
        )
        db.flush_memtable()
        db.wait_idle()
        env.storage.set_fault_injector(None)
        retries = [r for r in db.recorder.records() if r["name"] == "fault.retry"]
        assert [r["kind"] for r in retries] == ["event"]
        db.close()

    def test_same_seed_ring_is_byte_identical(self):
        def run():
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, trace_sample="1/4")
            _fill(db, 300)
            db.wait_idle()
            text = json.dumps(db.recorder.records(), sort_keys=True)
            db.close()
            return text

        assert run() == run()

    def test_recorder_does_not_perturb_the_simulation(self):
        def run(mode):
            env = repro.Environment(cache_bytes=1 << 20)
            db = make_store("pebblesdb", env, trace_sample=mode)
            _fill(db, 300)
            db.compact_all()
            db.wait_idle()
            stats = db.stats()
            db.close()
            return vars(stats), env.clock.now

        off_stats, off_now = run("off")
        err_stats, err_now = run("errors")
        sampled_stats, sampled_now = run("1/4")
        assert off_stats == err_stats == sampled_stats
        assert off_now == err_now == sampled_now
