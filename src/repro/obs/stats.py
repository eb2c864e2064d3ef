"""The stats plane's counters: :class:`StatsCounters`, the attribute façade
engines write through, and :class:`StoreStats`, the flat view
``KeyValueStore.stats()`` builds — both over one registry's metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry


@dataclass
class StoreStats:
    """Operational counters for one store instance."""

    preset: str = ""
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    seeks: int = 0
    next_calls: int = 0
    user_bytes_written: int = 0
    device_bytes_written: int = 0
    device_bytes_read: int = 0
    stall_seconds: float = 0.0
    flushes: int = 0
    compactions: int = 0
    compaction_bytes_written: int = 0
    memory_bytes: int = 0
    sstable_count: int = 0
    level_sizes: List[int] = field(default_factory=list)
    #: Host-side decoded-block cache counters (wall-clock memoization;
    #: these never influence any simulated metric).
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    block_cache_bytes: int = 0
    #: Fault handling: transient retries that succeeded or were attempted,
    #: sticky background errors declared, successful resume() calls, and
    #: the current degraded-read-only state.
    transient_fault_retries: int = 0
    background_errors: int = 0
    resumes: int = 0
    degraded: bool = False
    background_error: str = ""
    #: Compaction scheduling: times an otherwise-runnable compaction was
    #: rejected because its key range conflicted with in-flight work,
    #: write-stall seconds spent while a due Level-0 compaction was
    #: conflict-blocked, and the peak number of compaction jobs that were
    #: ever in flight at once.
    compaction_conflicts: int = 0
    conflict_stall_seconds: float = 0.0
    compactions_parallel_peak: int = 0

    @property
    def block_cache_hit_rate(self) -> float:
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0

    @property
    def write_amplification(self) -> float:
        if self.user_bytes_written == 0:
            return 0.0
        return self.device_bytes_written / self.user_bytes_written


#: StoreStats attribute -> registry metric name: the counters and the one
#: gauge engines mutate directly, then the values ``stats_part()`` derives
#: at read time.  ``STAT_METRICS`` is the whole table — every numeric
#: StoreStats field is the registry metric it names, nothing else.
_STAT_COUNTERS = {
    "puts": "op.puts",
    "gets": "op.gets",
    "deletes": "op.deletes",
    "seeks": "op.seeks",
    "next_calls": "op.next_calls",
    "user_bytes_written": "write.user_bytes",
    "stall_seconds": "stall.seconds",
    "flushes": "flush.count",
    "compactions": "compaction.count",
    "compaction_bytes_written": "compaction.bytes_written",
    "transient_fault_retries": "fault.transient_retries",
    "background_errors": "fault.background_errors",
    "resumes": "fault.resumes",
    "compaction_conflicts": "compaction.conflicts",
    "conflict_stall_seconds": "compaction.conflict_stall_seconds",
}
_STAT_GAUGES = {
    "compactions_parallel_peak": "compaction.parallel_peak",
}
STAT_METRICS = {
    **_STAT_COUNTERS,
    **_STAT_GAUGES,
    "device_bytes_written": "io.device_bytes_written",
    "device_bytes_read": "io.device_bytes_read",
    "memory_bytes": "store.memory_bytes",
    "sstable_count": "store.sstables",
    "block_cache_hits": "block_cache.hits",
    "block_cache_misses": "block_cache.misses",
    "block_cache_bytes": "block_cache.bytes",
    "degraded": "fault.degraded",
}


class StatsCounters:
    """Mutable stat attributes backed by a :class:`MetricsRegistry`.

    Engines write ``self._stats.flushes += 1``; every attribute is a
    registry metric, making the registry the single source of truth.
    """

    __slots__ = ("registry", "_m")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._m: Dict[str, object] = {
            **{attr: registry.counter(name) for attr, name in _STAT_COUNTERS.items()},
            **{attr: registry.gauge(name) for attr, name in _STAT_GAUGES.items()},
        }

    def bind(self, attr: str):
        """The raw metric behind one attribute.

        Per-operation paths bump counters through this instead of the
        property façade (two dict hops per ``+= 1`` add up at a million
        gets).
        """
        return self._m[attr]


def _stat_property(attr: str) -> property:
    def fget(self):
        return self._m[attr].value

    def fset(self, value):
        self._m[attr].value = value

    return property(fget, fset)


for _attr in (*_STAT_COUNTERS, *_STAT_GAUGES):
    setattr(StatsCounters, _attr, _stat_property(_attr))
del _attr
