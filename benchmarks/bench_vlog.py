"""Key–value separation benchmark: the value log vs the plain tree.

Runs a seeded fillrandom + 50% overwrite + full compaction workload at
each value size in a 512 B → 64 KiB sweep, twice per size — once with
``value_separation_bytes`` set (values live in the garbage-collected
value log, the tree compacts pointers) and once without (the seed
behaviour: values ride through every compaction).  Reports simulated
write amplification, device bytes, and value-log GC counters per point.

Contract (any violation exits non-zero; CI runs ``--contract-only``):

1. **write amp** — at 64 KiB values the separated store's write
   amplification must be <= 2.0 (the tree moves 28-byte pointers, so
   amplification collapses to ~1x regardless of compaction depth);
2. **correctness differential** — at every size, a full scan of the
   separated store must equal the unseparated store's byte-for-byte;
3. **separation-off identity** — with separation disabled the feature
   must be invisible: two fresh runs of the same workload produce
   byte-identical file digests, no ``.vlg`` segment ever appears, and
   no MANIFEST edit carries a value-log tag (the byte-level guarantee
   that an upgraded binary rewrites nothing for existing stores).

Results land in ``BENCH_vlog.json`` (override with ``--out``).

Run: ``PYTHONPATH=src python benchmarks/bench_vlog.py [--contract-only]``
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, Optional

import repro
from repro.engines.options import StoreOptions
from repro.version import ManifestReader, read_current
from repro.workloads.distributions import KeyCodec, value_bytes

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_vlog.json"

SEED = 11
SEPARATION_BYTES = 256
#: (value_size, num_keys) — keys scaled so each point writes a similar
#: user-byte volume and the sweep finishes in CI time.
SWEEP = [(512, 4000), (4096, 1500), (16384, 500), (65536, 200)]
WRITE_AMP_CEILING = 2.0


def _options(separation: Optional[int]) -> StoreOptions:
    return dataclasses.replace(
        StoreOptions.for_preset("pebblesdb"),
        memtable_bytes=256 * 1024,
        level1_max_bytes=1024 * 1024,
        target_file_bytes=512 * 1024,
        value_separation_bytes=separation,
        vlog_segment_bytes=1024 * 1024,
    )


def _digests(storage, prefix: str) -> Dict[str, str]:
    acct = storage.foreground_account("digest")
    out = {}
    for name in sorted(storage.list_files(prefix)):
        data = storage.read(name, 0, storage.size(name), acct, sequential=True)
        out[name] = hashlib.sha256(bytes(data)).hexdigest()
    return out


def _run_workload(value_size: int, num_keys: int, separation: Optional[int]):
    env = repro.Environment(cache_bytes=8 * 1024 * 1024)
    db = repro.open_store(
        "pebblesdb", env.storage, options=_options(separation), prefix="db/"
    )
    codec = KeyCodec(16)
    rng = random.Random(SEED)
    order = list(range(num_keys))
    rng.shuffle(order)
    for i in order:
        db.put(codec.encode(i), value_bytes(i, value_size))
    # Overwrite half the keys: garbage for the value-log GC to collect.
    for _ in range(num_keys // 2):
        i = rng.randrange(num_keys)
        db.put(codec.encode(i), value_bytes(i + num_keys, value_size))
    db.compact_all()
    db.wait_idle()
    contents = dict(db.scan())
    stats = db.stats()
    point = {
        "write_amplification": round(stats.write_amplification, 3),
        "user_mb_written": round(stats.user_bytes_written / 1e6, 2),
        "device_mb_written": round(stats.device_bytes_written / 1e6, 2),
        "sstables": stats.sstable_count,
    }
    for name in ("vlog.segments", "vlog.bytes_written", "vlog.gc_relocated",
                 "vlog.dead_bytes"):
        if db.registry.get(name) is not None:
            point[name.replace(".", "_")] = db.registry.value(name)
    db.close()
    return point, contents, env.storage


def _manifest_has_vlog_tags(storage, prefix: str) -> bool:
    acct = storage.foreground_account("digest")
    manifest = read_current(storage, acct, prefix)
    if manifest is None:
        return False
    for edit in ManifestReader(storage, manifest).edits(acct):
        if edit.vlog_dead or edit.deleted_vlog_segments:
            return True
    return False


def run_sweep(sweep) -> Dict:
    points = []
    failures = []
    for value_size, num_keys in sweep:
        sep_point, sep_contents, _ = _run_workload(
            value_size, num_keys, SEPARATION_BYTES
        )
        base_point, base_contents, _ = _run_workload(value_size, num_keys, None)
        identical = sep_contents == base_contents
        if not identical:
            failures.append(f"{value_size}B: separated contents diverge")
        points.append(
            {
                "value_size": value_size,
                "num_keys": num_keys,
                "separated": sep_point,
                "baseline": base_point,
                "contents_identical": identical,
            }
        )
        print(
            f"value={value_size:>6}B keys={num_keys:>5}  "
            f"write-amp separated={sep_point['write_amplification']:>6.2f}x "
            f"baseline={base_point['write_amplification']:>6.2f}x  "
            f"contents={'OK' if identical else 'DIVERGED'}"
        )
    largest = points[-1]
    if largest["separated"]["write_amplification"] > WRITE_AMP_CEILING:
        failures.append(
            f"separated write amp {largest['separated']['write_amplification']}x "
            f"at {largest['value_size']}B exceeds the {WRITE_AMP_CEILING}x ceiling"
        )
    return {"points": points, "failures": failures}


def run_identity_check(value_size: int = 4096, num_keys: int = 600) -> Dict:
    """Separation off ⇒ the feature's presence is byte-invisible."""
    failures = []
    _, _, storage_a = _run_workload(value_size, num_keys, None)
    _, _, storage_b = _run_workload(value_size, num_keys, None)
    digests_a = _digests(storage_a, "db/")
    digests_b = _digests(storage_b, "db/")
    if digests_a != digests_b:
        failures.append("separation-off runs are not byte-identical")
    vlg = [name for name in digests_a if name.endswith(".vlg")]
    if vlg:
        failures.append(f"separation-off run created segments: {vlg}")
    if _manifest_has_vlog_tags(storage_a, "db/"):
        failures.append("separation-off MANIFEST carries value-log tags")
    print(
        f"separation-off identity: {len(digests_a)} files, "
        f"digests {'identical' if digests_a == digests_b else 'DIVERGED'}, "
        f"vlog tags {'absent' if not _manifest_has_vlog_tags(storage_a, 'db/') else 'PRESENT'}"
    )
    return {
        "files": len(digests_a),
        "digests_identical": digests_a == digests_b,
        "vlog_artifacts": vlg,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--contract-only",
        action="store_true",
        help="run only the contract points (64 KiB write amp + "
        "separation-off identity), not the full sweep",
    )
    parser.add_argument("--out", default=str(_JSON_PATH), metavar="PATH")
    args = parser.parse_args(argv)

    sweep = SWEEP[-1:] if args.contract_only else SWEEP
    sweep_report = run_sweep(sweep)
    identity_report = run_identity_check()
    failures = sweep_report["failures"] + identity_report["failures"]
    report = {
        "tool": "bench_vlog",
        "separation_bytes": SEPARATION_BYTES,
        "write_amp_ceiling": WRITE_AMP_CEILING,
        "contract_only": args.contract_only,
        "sweep": sweep_report["points"],
        "separation_off_identity": identity_report,
        "failures": failures,
        "passed": not failures,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"recorded to {args.out}")
    if failures:
        for failure in failures:
            print(f"CONTRACT VIOLATION: {failure}", file=sys.stderr)
        return 1
    print("vlog contract: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
