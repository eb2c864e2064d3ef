"""Simulated storage substrate.

The paper evaluates PebblesDB on real NVMe SSDs and measures wall-clock
throughput and device IO.  This package substitutes that hardware with a
deterministic simulation (see DESIGN.md section 2):

* :mod:`repro.sim.clock` — a simulated clock; throughput numbers are
  operations per *simulated* second.
* :mod:`repro.sim.device` — a device cost model (sequential bandwidth,
  random-read latency, aging degradation) with SSD/RAID0/HDD presets.
* :mod:`repro.sim.cache` — an LRU page cache standing in for DRAM; cache
  hits cost CPU only, misses pay device latency.
* :mod:`repro.sim.storage` — the file namespace every engine writes
  through.  Tracks exact byte counts (write/space amplification are exact),
  distinguishes synced from unsynced data, and supports ``crash()`` for
  crash-recovery testing.
* :mod:`repro.sim.executor` — background worker timelines modelling
  flush/compaction threads; write stalls emerge when compaction debt grows.
* :mod:`repro.sim.cpu` — the per-operation CPU cost table.
* :mod:`repro.sim.faults` — deterministic fault injection: plans of
  transient/persistent I/O errors replayed against the operation stream,
  plus the torn/garbage/bit-flip crash modes of ``crash()``.
"""

from repro.sim.clock import SimClock
from repro.sim.cpu import CpuCosts
from repro.sim.device import DeviceModel
from repro.sim.cache import PageCache
from repro.sim.faults import (
    PERSISTENT,
    TRANSIENT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultStats,
    KillPoint,
)
from repro.sim.storage import (
    CRASH_BITFLIP,
    CRASH_CLEAN,
    CRASH_GARBAGE,
    CRASH_MODES,
    CRASH_TORN,
    IoAccount,
    SimulatedStorage,
    StorageStats,
)
from repro.sim.executor import BackgroundExecutor, Job

__all__ = [
    "SimClock",
    "CpuCosts",
    "DeviceModel",
    "PageCache",
    "IoAccount",
    "SimulatedStorage",
    "StorageStats",
    "BackgroundExecutor",
    "Job",
    "FaultInjector",
    "FaultPlan",
    "KillPoint",
    "FaultSpec",
    "FaultStats",
    "TRANSIENT",
    "PERSISTENT",
    "CRASH_CLEAN",
    "CRASH_TORN",
    "CRASH_GARBAGE",
    "CRASH_BITFLIP",
    "CRASH_MODES",
]
