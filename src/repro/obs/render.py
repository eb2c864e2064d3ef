"""The text forms of the stats plane, one function per form.

Everything here formats numbers that already have one definition — a
:class:`~repro.obs.metrics.MetricsRegistry` read through
``stats_part()``, the ``StoreStats`` view built from it, or an admin
section's JSON — and returns a string.  The callers (``get_property``,
``repro-shell``, ``repro-dbbench``, ``repro-top``) only print.
"""

from __future__ import annotations

import json

from repro.obs.ledger import IoLedger
from repro.obs.metrics import MetricsRegistry


def health_line(registry: MetricsRegistry) -> str:
    """``repro.health``: state token first, scheduler counters after.

    ``health.split()[0]`` is always ``ok`` or ``degraded``.  The overload
    and value-log tokens appear once the serving layer / the value log
    has created its counters in this registry.
    """
    value = registry.value
    line = (
        f"{'degraded' if value('fault.degraded') else 'ok'} "
        f"parallel-peak={value('compaction.parallel_peak')} "
        f"conflict-stall={value('compaction.conflict_stall_seconds'):.6f}s"
    )
    if registry.get("server.overload_rejects") is not None:
        line += f" overload-rejects={value('server.overload_rejects')}"
    if registry.get("vlog.gc_relocated") is not None:
        line += (
            f" vlog-gc-relocated={value('vlog.gc_relocated')}"
            f" vlog-dead-bytes={value('vlog.dead_bytes')}"
        )
    return line


def summary(stats) -> str:
    """The ``repro.stats`` block (also the head of :func:`report`)."""
    s = stats
    return (
        f"puts={s.puts} gets={s.gets} deletes={s.deletes} seeks={s.seeks}\n"
        f"user-bytes={s.user_bytes_written} "
        f"device-write-bytes={s.device_bytes_written} "
        f"device-read-bytes={s.device_bytes_read}\n"
        f"write-amplification={s.write_amplification:.3f} "
        f"stall-seconds={s.stall_seconds:.6f}\n"
        f"flushes={s.flushes} compactions={s.compactions} "
        f"sstables={s.sstable_count}"
    )


def report(db) -> str:
    """Shell ``stats`` and the dbbench footer: summary, health, table
    cache, table search, build lane, subsystems."""
    stats = db.stats()
    lines = [summary(stats), f"health={db.get_property('repro.health')}"]
    if stats.degraded:
        lines.append(f"background error: {stats.background_error}")
    hits = db.registry.value("read.table_cache_hits")
    misses = db.registry.value("read.table_cache_misses")
    if hits or misses:
        lines.append(
            f"table cache: hits={hits} misses={misses} "
            f"miss-share={misses / (hits + misses):.3f}"
        )
    probed, bloom, seq = (
        sum(m.value for m in db.registry if m.name == f"read.{what}")
        for what in ("files_probed", "bloom_skipped", "seq_skipped")
    )
    if probed or bloom or seq:
        lines.append(
            f"table search: files-probed={probed} bloom-skipped={bloom} "
            f"seq-skipped={seq}"
        )
    passed = db.registry.value("build.records_passed")
    encoded = db.registry.value("build.records_encoded")
    if passed or encoded:
        lines.append(
            f"build: records-passed={passed} records-encoded={encoded} "
            f"passed-share={passed / (passed + encoded):.3f}"
        )
    for title, name in (
        ("compaction scheduler", "repro.compaction-scheduler"),
        ("value log", "repro.vlog"),
        ("block cache (host-side)", "repro.block-cache"),
    ):
        text = db.get_property(name)
        if text not in (None, "disabled"):
            lines.append(f"{title}: {text}")
    return "\n".join(lines)


def render_health(text: str) -> str:
    """Admin ``health`` section JSON as a per-shard table."""
    payload = json.loads(text)
    lines = [f"{'shard':>5} {'state':<11} health", "-" * 72]
    for row in payload["shards"]:
        lines.append(f"{row['shard']:>5} {row['state']:<11} {row['health']}")
    totals = payload["totals"]
    if totals:
        ops = " ".join(f"{k}={v}" for k, v in sorted(totals.items()) if v)
        lines.append(f"totals: {ops or '(no ops yet)'}")
    return "\n".join(lines)


def render_ledger(text: str) -> str:
    """Admin ``ledger`` section JSON as the attribution table."""
    return IoLedger.from_dict(json.loads(text)).to_text()


def render_windows(text: str) -> str:
    """Admin ``windows`` section JSON as per-op percentile tables."""
    payload = json.loads(text)
    width = payload["window_seconds"]
    lines = [f"latency percentiles per {width}s window (us):"]
    for op, series in sorted(payload["series"].items()):
        names = sorted(series)
        values = {name: dict(series[name]) for name in names}
        windows = sorted({i for name in names for i in values[name]})
        if not windows:
            lines.append(f"  {op}: (no samples)")
            continue
        lines.append(
            f"  {op:<8} {'window':>7}" + "".join(f" {name:>9}" for name in names)
        )
        for index in windows:
            line = f"  {'':<8} {index * width:>7.2f}"
            for name in names:
                value = values[name].get(index)
                line += f" {value * 1e6:>9.1f}" if value is not None else f" {'-':>9}"
            lines.append(line)
    return "\n".join(lines)
