"""Request distributions and key/value encoding.

The zipfian generator is the Gray et al. algorithm YCSB uses (constant
0.99), including the incremental-extension trick for the *latest* and
*scrambled* variants, so request skew matches the benchmark the paper
runs.  All generators are deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.util.murmur import murmur3_64

ZIPFIAN_CONSTANT = 0.99


class KeyCodec:
    """Deterministic fixed-width key encoding (paper uses 16-byte keys)."""

    def __init__(self, width: int = 16, prefix: bytes = b"user") -> None:
        if width <= len(prefix):
            raise ValueError("key width must exceed prefix length")
        self.width = width
        self.prefix = prefix
        self._digits = width - len(prefix)

    def encode(self, index: int) -> bytes:
        return self.prefix + str(index).zfill(self._digits).encode("ascii")

    def decode(self, key: bytes) -> int:
        return int(key[len(self.prefix) :])


def value_bytes(index: int, size: int) -> bytes:
    """Deterministic pseudo-random value of ``size`` bytes for ``index``."""
    return random.Random(index).randbytes(size)


class UniformGenerator:
    """Uniform over ``[0, item_count)``."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)

    def grow(self, new_count: int) -> None:
        self.item_count = max(self.item_count, new_count)


class SequentialGenerator:
    """0, 1, 2, ... (the fillseq workload)."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value


class ZipfianGenerator:
    """Gray et al. zipfian over ``[0, item_count)``; rank 0 is hottest.

    Supports growing the item count without recomputing zeta from scratch
    (the incremental formula YCSB uses for insert-heavy workloads).
    """

    def __init__(
        self,
        item_count: int,
        theta: float = ZIPFIAN_CONSTANT,
        seed: int = 0,
        zetan: Optional[float] = None,
    ) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self.theta = theta
        self._rng = random.Random(seed)
        self.zeta2 = self._zeta_static(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.zetan = zetan if zetan is not None else self._zeta_static(item_count, theta)
        self._recompute()

    @staticmethod
    def _zeta_static(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def _recompute(self) -> None:
        self.eta = (1.0 - (2.0 / self.item_count) ** (1.0 - self.theta)) / (
            1.0 - self.zeta2 / self.zetan
        )

    def grow(self, new_count: int) -> None:
        """Extend the key space (after inserts) by extending zeta."""
        if new_count <= self.item_count:
            return
        for i in range(self.item_count + 1, new_count + 1):
            self.zetan += 1.0 / (i ** self.theta)
        self.item_count = new_count
        self._recompute()

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self.eta * u - self.eta + 1.0) ** self.alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity scattered over the key space via hashing.

    YCSB's default request distribution: item popularity is zipfian but
    the popular items are spread uniformly across the keyspace instead of
    clustered at low indexes.
    """

    def __init__(self, item_count: int, seed: int = 0) -> None:
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, seed=seed)

    def grow(self, new_count: int) -> None:
        self._zipf.grow(new_count)
        self.item_count = new_count

    def next(self) -> int:
        rank = self._zipf.next()
        return murmur3_64(rank.to_bytes(8, "little")) % self.item_count


class LatestGenerator:
    """Skewed toward recently inserted items (YCSB workload D)."""

    def __init__(self, item_count: int, seed: int = 0) -> None:
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, seed=seed)

    def grow(self, new_count: int) -> None:
        self._zipf.grow(new_count)
        self.item_count = new_count

    def next(self) -> int:
        offset = self._zipf.next() % self.item_count
        return self.item_count - 1 - offset


def zipf_sanity_skew(gen: ZipfianGenerator, samples: int = 10000) -> float:
    """Fraction of samples hitting the hottest 1% of items (test helper)."""
    hot = max(1, gen.item_count // 100)
    hits = sum(1 for _ in range(samples) if gen.next() < hot)
    return hits / samples


__all__ = [
    "KeyCodec",
    "value_bytes",
    "UniformGenerator",
    "SequentialGenerator",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "zipf_sanity_skew",
]
