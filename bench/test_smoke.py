"""Self-tests of the benchmark at 1/20 scale (``python -m pytest bench -q``).

They check the instrument, not the program: inputs follow the seed,
exact metrics repeat, the model check bites, the wrapper spans see every
call the store's own counters see, and spans do not move the simulation.
"""

from __future__ import annotations

import functools
import json
import types

import pytest

from bench import embedded, harness, inputs, spec
from bench.__main__ import main
from bench.compare import compare
from bench.trace import Tracer

EMBEDDED = ("write_heavy", "read_aged", "scan_short")
EXACT = ("sim_kops", "sim_p99_us", "sim_open_p99_us", "write_amp", "space_amp", "read_kb_per_op")


@functools.lru_cache(maxsize=None)
def result(name: str, seed: int = 1, trace: bool = False) -> dict:
    return harness.run_workload(name, seed, scale=spec.SMOKE_SCALE, trace=trace)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_every_metric_reported_and_model_agrees(name):
    r = result(name)
    assert r["correct"] and r["failed"] == 0 and r["end_to_end"]["fail_ratio"] == 0
    assert list(r["end_to_end"]) == [m.name for m in spec.END_TO_END]
    nulls = {m for m, v in r["end_to_end"].items() if v is None}
    assert nulls == {m for (w, m) in spec.NULL_REASONS if w == name} == set(r["null_reasons"])
    line = json.loads(harness.driver_line(r))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(spec.DRIVER_BOUNDS)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


@pytest.mark.parametrize("name", EMBEDDED)
def test_same_seed_repeats_exactly_and_another_seed_differs(name):
    first = result(name)
    again = harness.run_workload(name, 1, scale=spec.SMOKE_SCALE)
    other = result(name, seed=2)
    assert again["inputs_sha256"] == first["inputs_sha256"] != other["inputs_sha256"]
    assert [again["end_to_end"][m] for m in EXACT] == [first["end_to_end"][m] for m in EXACT]
    assert [other["end_to_end"][m] for m in EXACT] != [first["end_to_end"][m] for m in EXACT]


def test_served_inputs_follow_the_seed():
    sizes = spec.scaled_sizes("served_ycsb_a", spec.SMOKE_SCALE)
    assert (
        inputs.served_ycsb_a(1, sizes).sha256
        == inputs.served_ycsb_a(1, sizes).sha256
        != inputs.served_ycsb_a(2, sizes).sha256
    )


def test_a_corrupted_expected_value_fails_the_run(monkeypatch):
    real = inputs.read_aged

    def corrupted(seed, sizes):
        inp = real(seed, sizes)
        key, value = next(g for g in inp.gets if g[1] is not None)
        inp.gets[inp.gets.index((key, value))] = (key, value[:-1] + b"!")
        return inp

    monkeypatch.setitem(inputs.GENERATORS, "read_aged", corrupted)
    r = harness.run_workload("read_aged", 1, scale=spec.SMOKE_SCALE)
    assert r["failed"] >= 1 and not r["correct"] and r["end_to_end"]["fail_ratio"] > 0
    assert json.loads(harness.driver_line(r))["correct"] is False


def test_run_exits_nonzero_when_a_workload_is_wrong(monkeypatch, capsys):
    def fake_child(cmd, **kwargs):
        line = json.dumps({"correct": False, "attempted": 10, "failed": 1, "metrics": {}})
        return types.SimpleNamespace(returncode=0, stdout=f"== fake\n{line}\n")

    monkeypatch.setattr("subprocess.run", fake_child)
    assert main(["run", "--smoke", "--workloads", "read_aged"]) == 1
    assert "FAILED: read_aged" in capsys.readouterr().err


@pytest.mark.parametrize("name", EMBEDDED)
def test_traced_run_reports_every_layer_and_moves_no_exact_metric(name):
    r = result(name, trace=True)
    assert r["correct"]  # includes: traced phase == untraced phase on every exact metric
    layers = r["per_layer"]
    assert list(layers) and set(layers) == set(spec.PER_LAYER_NAMES)
    assert [r["end_to_end"][m] for m in EXACT] == [result(name)["end_to_end"][m] for m in EXACT]
    # Embedded workloads never enter the serving layers.
    assert all(v == 0 for k, v in layers.items() if k.startswith("net."))
    assert layers["engines.base.calls"] > 0 and layers["engines.base.self_s"] > 0
    assert layers["sim.storage.calls"] > 0
    assert 0 <= layers["trace.residue_share"] < 1 and layers["trace.overhead_ratio"] > 1
    line = json.loads(harness.driver_line(r))
    assert set(line["metrics"]) == set(spec.PER_LAYER_NAMES)


def test_wrapper_counts_equal_the_stores_own_counters():
    sizes = spec.scaled_sizes("read_aged", spec.SMOKE_SCALE)
    inp = inputs.read_aged(3, sizes)
    tracer = Tracer()
    tracer.install()
    try:
        env, db = embedded.read_aged_setup(inp)
        tracer.start()  # cover the load too, so flushes and puts are seen
        for key, value in inp.load[:400]:
            db.put(key, value)
        tracer.stop()
        timed = embedded.read_aged_timed(env, db, inp, tracer)
    finally:
        tracer.uninstall()
    n = lambda name: tracer.calls[tracer.by_name(name)]
    after = timed.after
    assert n("base.LSMStoreBase.get") == after["gets"] - timed.before["gets"] == len(inp.gets)
    assert n("base.LSMStoreBase.put") == 400
    assert n("pebbles.PebblesDBStore._get_from_tables") <= n("base.LSMStoreBase.get")
    probes = (after["files_probed"] - timed.before["files_probed"]) + (
        after["bloom_skipped"] - timed.before["bloom_skipped"]
    )
    assert n("reader.SSTableReader.may_contain") == probes > 0
    assert n("murmur.murmur3_32") > 0 and n("guards.GuardedLevel.find_guard") > 0


def test_flush_spans_match_flush_count():
    inp = inputs.write_heavy(4, spec.scaled_sizes("write_heavy", spec.SMOKE_SCALE))
    tracer = Tracer()
    tracer.install()
    try:
        env, db = embedded.write_heavy_setup(inp)
        timed = embedded.write_heavy_timed(env, db, inp, tracer)
    finally:
        tracer.uninstall()
    n = lambda name: tracer.calls[tracer.by_name(name)]
    assert n("pebbles.PebblesDBStore._install_flush") == timed.after["flushes"] > 0
    assert n("base.LSMStoreBase.put") == timed.after["puts"] == len(inp.ops)
    assert n("builder.SSTableBuilder.finish") >= timed.after["flushes"]
    # Generators are timed per next(): one call per merged entry.
    assert n("merger.compaction_iterator") > 0
    assert tracer.self_seconds(tracer.by_name("merger.merging_iterator")) > 0


def test_uninstall_restores_the_program():
    from repro.engines.base import LSMStoreBase
    from repro.sstable import merger

    before = (LSMStoreBase.get, merger.merging_iterator)
    tracer = Tracer()
    tracer.install()
    assert (LSMStoreBase.get, merger.merging_iterator) != before
    tracer.uninstall()
    assert (LSMStoreBase.get, merger.merging_iterator) == before


def test_served_traced_run_sees_the_serving_layers():
    r = result("served_ycsb_a", trace=True)
    assert r["correct"]
    layers = r["per_layer"]
    assert set(layers) == set(spec.PER_LAYER_NAMES)
    for name in ("net.protocol.calls", "net.transport.calls", "net.router.calls",
                 "net.protocol.frames", "net.client.requests", "net.server.group_commits",
                 "net.mp.shiplog_records", "engines.base.calls"):
        assert layers[name] > 0, name
    assert layers["net.server.protocol_errors"] == 0
    assert layers["net.server.duplicate_writes"] == 0


def test_compare_verdicts(tmp_path):
    base = result("read_aged")
    a, b = tmp_path / "a", tmp_path / "b"
    for directory, factor, exact_shift in ((a, 1.0, 0.0), (b, 0.8, 0.5)):
        directory.mkdir()
        for k in range(3):
            record = json.loads(json.dumps(base))
            record["end_to_end"]["wall_kops"] *= factor * (1 + 0.001 * k)
            record["end_to_end"]["write_amp"] += exact_shift
            (directory / f"read_aged.run.{k + 1}.json").write_text(json.dumps(record))
    assert compare(str(a), str(a)) == 0
    assert compare(str(a), str(b)) == 1  # wall_kops -20% and write_amp up: regressed
    assert compare(str(b), str(a)) == 0  # the other way round: improved, not regressed
