"""Boundary-key shard routing — FLSM guards, one level up.

PebblesDB partitions each level into guards: boundary keys that divide
the key space into ranges compacted independently.  The serving layer
applies the same idea across *processes*: ``N`` shards are separated by
``N - 1`` boundary keys, shard ``i`` owning ``[boundary[i-1],
boundary[i])`` (shard 0 owns everything below the first boundary, the
last shard everything from the last boundary up).  Single-key ops route
by bisection; scans and write batches split into per-shard pieces whose
results concatenate back in key order — range partitioning keeps shards
*sorted relative to each other*, so a cross-shard scan needs no merge
beyond concatenation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError

#: One write-batch op: (kind, key, value).
BatchOp = Tuple[int, bytes, bytes]


class ShardRouter:
    """Maps keys and key ranges onto shard indices."""

    def __init__(self, boundaries: Sequence[bytes]) -> None:
        bounds = [bytes(b) for b in boundaries]
        if any(not b for b in bounds):
            raise InvalidArgumentError("shard boundaries must be non-empty keys")
        if bounds != sorted(set(bounds)):
            raise InvalidArgumentError("shard boundaries must be strictly ascending")
        self.boundaries: List[bytes] = bounds

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) + 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(cls) -> "ShardRouter":
        """The trivial one-shard router."""
        return cls([])

    @classmethod
    def from_samples(cls, keys: Iterable[bytes], num_shards: int) -> "ShardRouter":
        """Quantile boundaries from sampled keys (guard-style selection).

        Like FLSM guard selection, boundaries come *from the observed key
        distribution* rather than from assumptions about the key space:
        the samples are sorted and split at ``num_shards`` equal-count
        quantiles.  Duplicate quantile keys collapse, so a badly skewed
        sample may yield fewer shards than asked for.
        """
        if num_shards < 1:
            raise InvalidArgumentError("need at least one shard")
        ordered = sorted(set(bytes(k) for k in keys))
        if num_shards == 1 or len(ordered) < num_shards:
            return cls.single()
        step = len(ordered) / num_shards
        bounds = []
        for i in range(1, num_shards):
            key = ordered[int(i * step)]
            if not bounds or key > bounds[-1]:
                bounds.append(key)
        return cls(bounds)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key``."""
        return bisect_right(self.boundaries, key)

    def shard_range(self, shard: int) -> Tuple[Optional[bytes], Optional[bytes]]:
        """``[lo, hi)`` owned by ``shard`` (None = unbounded side)."""
        if not 0 <= shard < self.num_shards:
            raise InvalidArgumentError(f"no shard {shard} (have {self.num_shards})")
        lo = self.boundaries[shard - 1] if shard > 0 else None
        hi = self.boundaries[shard] if shard < len(self.boundaries) else None
        return lo, hi

    def split_batch(self, ops: Sequence[BatchOp]) -> Dict[int, List[BatchOp]]:
        """Partition a write batch by owning shard (op order preserved)."""
        per_shard: Dict[int, List[BatchOp]] = {}
        for op in ops:
            per_shard.setdefault(self.shard_for(op[1]), []).append(op)
        return per_shard

    def split_range(
        self, lo: bytes, hi: Optional[bytes]
    ) -> List[Tuple[int, bytes, Optional[bytes]]]:
        """Split ``[lo, hi)`` into per-shard sub-ranges, ascending.

        ``hi`` is *exclusive* (None = unbounded above), matching the wire
        protocol's SCAN semantics and the shard boundaries themselves.
        Each entry is ``(shard, sub_lo, sub_hi)``; concatenating
        per-shard scan results in list order yields globally sorted
        output, because shard key ranges are themselves ordered.
        """
        if hi is not None and hi <= lo:
            return []
        first = self.shard_for(lo)
        # hi is exclusive: the shard owning the last *included* key is the
        # one just below hi, which shard_for almost gives us — except when
        # hi sits exactly on a boundary, where the scan ends one shard down.
        if hi is None:
            last = self.num_shards - 1
        else:
            last = self.shard_for(hi)
            if last > 0 and self.shard_range(last)[0] == hi:
                last -= 1
        pieces: List[Tuple[int, bytes, Optional[bytes]]] = []
        for shard in range(first, last + 1):
            shard_lo, shard_hi = self.shard_range(shard)
            sub_lo = lo if shard == first else (shard_lo if shard_lo is not None else lo)
            sub_hi = hi if shard == last else shard_hi
            pieces.append((shard, sub_lo, sub_hi))
        return pieces
