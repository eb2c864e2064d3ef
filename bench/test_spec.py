"""The pinned definitions are well-formed and BENCHMARK.json mirrors them."""

from __future__ import annotations

import json
import os
import re

from bench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in spec.END_TO_END] + list(spec.WORKLOADS)
    names += [n for n in spec.PER_LAYER_NAMES if n not in spec.CARRIED]
    assert set(spec.CARRIED) <= set(spec.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in [m.unit for m in spec.END_TO_END] + [u for _, u, _ in spec.PER_LAYER]:
        assert UNIT.match(unit), unit
    for _, _, better in spec.PER_LAYER:
        assert better in ("higher", "lower")


def test_twelve_end_to_end_metrics_four_workloads():
    assert len(spec.END_TO_END) == 12
    assert list(spec.WORKLOADS) == ["write_heavy", "read_aged", "scan_short", "served_ycsb_a"]
    # Every end-to-end metric reaches the driver: gated, or carried per-layer.
    assert set(spec.DRIVER_BOUNDS) | set(spec.CARRIED) == {m.name for m in spec.END_TO_END}
    assert not set(spec.DRIVER_BOUNDS) & set(spec.CARRIED)
    # A gated metric is a number on every workload.
    assert not {metric for _, metric in spec.NULL_REASONS} & set(spec.DRIVER_BOUNDS)


def test_benchmark_json_mirrors_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        on_disk = json.load(f)
    assert on_disk == spec.benchmark_json()


def test_benchmark_json_meets_the_driver_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert len(json.dumps(doc)) < 64 * 1024


def test_scaled_sizes_scale_every_count():
    full = spec.scaled_sizes("read_aged", 1.0)
    smoke = spec.scaled_sizes("read_aged", spec.SMOKE_SCALE)
    assert full == spec.WORKLOADS["read_aged"].sizes
    assert all(smoke[k] == round(full[k] * spec.SMOKE_SCALE) for k in full)
