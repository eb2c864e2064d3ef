"""Amplification metrics (the quantities of Figures 1.1, 5.1a, 5.3).

* **Write amplification** — device bytes written / user bytes written.
  Exact in this library: every engine writes through the simulated
  storage layer, which counts bytes per store.
* **Space amplification** — live bytes on storage / logical dataset size.
* **SSTable size distribution** — mean/median/p90/p95 (Table 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.engines.base import KeyValueStore, StoreStats


def write_amplification(stats: StoreStats) -> float:
    """Total device write IO over user data written."""
    return stats.write_amplification


def space_amplification(live_bytes: int, logical_bytes: int) -> float:
    """Bytes occupied on storage over the logical dataset size."""
    if logical_bytes == 0:
        return 0.0
    return live_bytes / logical_bytes


@dataclass
class SizeDistribution:
    """Summary statistics of sstable sizes (Table 5.1 rows)."""

    count: int
    mean: float
    median: float
    p90: float
    p95: float

    def row(self, unit: float = 1.0) -> str:
        return (
            f"n={self.count}  mean={self.mean / unit:.2f}  "
            f"median={self.median / unit:.2f}  p90={self.p90 / unit:.2f}  "
            f"p95={self.p95 / unit:.2f}"
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def sstable_size_distribution(db: KeyValueStore) -> SizeDistribution:
    """Distribution of live sstable sizes for an LSM/FLSM store."""
    sizes: List[int] = sorted(getattr(db, "sstable_sizes")())
    if not sizes:
        return SizeDistribution(0, 0.0, 0.0, 0.0, 0.0)
    return SizeDistribution(
        count=len(sizes),
        mean=sum(sizes) / len(sizes),
        median=_percentile(sizes, 0.5),
        p90=_percentile(sizes, 0.9),
        p95=_percentile(sizes, 0.95),
    )
