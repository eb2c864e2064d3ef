"""Exact per-layer counts, read from the program's public stats surfaces.

A *snapshot* is a flat dict of cumulative counters taken before and
after a timed phase; the per-layer metrics are deltas (or end values for
gauges).  Only public attributes are read: ``db.stats()``,
``db.registry``, ``db.io_ledger()``, ``db.executor``, ``env.storage.stats``
and ``env.storage.cache.stats``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from bench.spec import MiB, STALL_CAUSES

Snapshot = Dict[str, float]

#: Snapshot keys that are point-in-time values, not cumulative counters.
_GAUGES = ("sstables", "guards", "empty_guards", "bc_bytes", "live_bytes", "sim_now")


def registry_total(registry, name: str) -> float:
    """Sum of a metric over all its label sets (e.g. per-level tallies)."""
    return sum(m.value for m in registry if m.name == name)


def _ledger_sum(table: Dict[str, int], prefix: str) -> int:
    return sum(v for cause, v in table.items() if cause.startswith(prefix))


def snapshot_store(db, env) -> Snapshot:
    """Cumulative counters of one store and its environment."""
    stats = db.stats()  # also folds the read-path probe tallies into the registry
    registry = db.registry
    ledger = db.io_ledger()
    storage = env.storage.stats
    page_cache = env.storage.cache.stats
    snap: Snapshot = {
        "puts": stats.puts,
        "gets": stats.gets,
        "seeks": stats.seeks,
        "next_calls": stats.next_calls,
        "user_bytes": stats.user_bytes_written,
        "flushes": stats.flushes,
        "compactions": stats.compactions,
        "compaction_bytes_written": stats.compaction_bytes_written,
        "conflicts": stats.compaction_conflicts,
        "stall_s": stats.stall_seconds,
        "wal_syncs": registry.value("wal.syncs"),
        "files_probed": registry_total(registry, "read.files_probed"),
        "bloom_skipped": registry_total(registry, "read.bloom_skipped"),
        "bc_hits": stats.block_cache_hits,
        "bc_misses": stats.block_cache_misses,
        "device_write_bytes": ledger.total_write_bytes,
        "device_read_bytes": ledger.total_read_bytes,
        "wal_write_bytes": ledger.write_bytes.get("wal", 0),
        "manifest_write_bytes": ledger.write_bytes.get("manifest", 0),
        "flush_write_bytes": ledger.write_bytes.get("flush", 0),
        "compaction_write_bytes": _ledger_sum(ledger.write_bytes, "compaction"),
        "compaction_read_bytes": _ledger_sum(ledger.read_bytes, "compaction"),
        "user_read_bytes": ledger.read_bytes.get("user", 0),
        "write_ops": storage.write_ops,
        "read_ops": storage.read_ops,
        "sync_ops": storage.sync_ops,
        "pc_hits": page_cache.hits,
        "pc_misses": page_cache.misses,
        "pc_evictions": page_cache.evictions,
        "jobs_run": db.executor.jobs_run,
        "busy_sim_s": db.executor.busy_seconds,
        # gauges
        "sstables": stats.sstable_count,
        "guards": sum(db.guard_counts()),
        "empty_guards": sum(db.empty_guard_counts()),
        "bc_bytes": stats.block_cache_bytes,
        "live_bytes": env.storage.total_live_bytes(db.prefix),
        "sim_now": env.clock.now,
    }
    for cause in STALL_CAUSES:
        snap[f"stall_s.{cause}"] = registry.value("stall.cause_seconds", cause=cause)
    return snap


def sum_snapshots(snaps: Iterable[Snapshot]) -> Snapshot:
    """Cluster view: every key summed over the shards (``sim_now`` is the
    slowest shard's clock)."""
    snaps = list(snaps)
    total = {key: sum(s[key] for s in snaps) for key in snaps[0]}
    total["sim_now"] = max(s["sim_now"] for s in snaps)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def store_layer_metrics(before: Snapshot, after: Snapshot) -> Dict[str, float]:
    """The (a)-column per-layer metrics of the engine-side layers."""
    d = {k: after[k] - before[k] for k in after if k not in _GAUGES}
    gets = d["gets"]
    out = {
        "engines.base.flush_count": d["flushes"],
        "engines.base.stall_s": d["stall_s"],
        "core.pebbles.compactions": d["compactions"],
        "core.pebbles.compaction_bytes_written": d["compaction_bytes_written"],
        "core.pebbles.conflicts": d["conflicts"],
        "core.pebbles.sstables_start": before["sstables"],
        "core.pebbles.sstables_end": after["sstables"],
        "core.pebbles.guards": after["guards"],
        "core.pebbles.empty_guards": after["empty_guards"],
        "wal.syncs": d["wal_syncs"],
        "wal.ledger_write_bytes": d["wal_write_bytes"],
        "bloom.files_probed_per_get": _ratio(d["files_probed"], gets),
        "bloom.bloom_skipped_per_get": _ratio(d["bloom_skipped"], gets),
        "bloom.useful_ratio": _ratio(
            d["bloom_skipped"], d["bloom_skipped"] + d["files_probed"]
        ),
        "sstable.block_cache.hit_rate": _ratio(d["bc_hits"], d["bc_hits"] + d["bc_misses"]),
        "sstable.block_cache.resident_mb": after["bc_bytes"] / MiB,
        "version.manifest.ledger_write_bytes": d["manifest_write_bytes"],
        "sim.storage.write_ops": d["write_ops"],
        "sim.storage.read_ops": d["read_ops"],
        "sim.storage.sync_ops": d["sync_ops"],
        "sim.storage.ledger.flush.write_bytes": d["flush_write_bytes"],
        "sim.storage.ledger.compaction.write_bytes": d["compaction_write_bytes"],
        "sim.storage.ledger.compaction.read_bytes": d["compaction_read_bytes"],
        "sim.storage.ledger.user.read_bytes": d["user_read_bytes"],
        "sim.cache.hit_rate": _ratio(d["pc_hits"], d["pc_hits"] + d["pc_misses"]),
        "sim.cache.evictions": d["pc_evictions"],
        "sim.executor.jobs_run": d["jobs_run"],
        "sim.executor.busy_sim_s": d["busy_sim_s"],
    }
    for cause in STALL_CAUSES:
        out[f"engines.base.stall_s.{cause}"] = d[f"stall_s.{cause}"]
    return out


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
