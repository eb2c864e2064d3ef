"""Space-efficient probabilistic membership filter.

PebblesDB attaches one bloom filter to every *sstable* (not every block):
a ``get`` that must consider the several overlapping sstables of a guard
asks the filters first and reads only tables that may contain the key
(paper section 4.1).  Guaranteed no false negatives; false-positive rate
is ~0.6% at the default 10 bits/key.

Hashing uses the standard double-hashing scheme ``h1 + i*h2`` over a
64-bit MurmurHash3 digest, which matches the k-independent behaviour the
analysis in paper section 3.7 assumes.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.errors import CorruptionError
from repro.util.murmur import murmur3_64

_MAGIC = b"BLM1"


class BloomFilter:
    """A fixed-size bloom filter over byte-string keys."""

    __slots__ = ("bits", "num_probes", "_array", "keys_added")

    def __init__(self, num_keys: int, bits_per_key: int = 10) -> None:
        if num_keys < 0:
            raise ValueError("num_keys must be >= 0")
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.bits = max(64, num_keys * bits_per_key)
        # k = ln(2) * bits/key, clamped like LevelDB's implementation.
        self.num_probes = max(1, min(30, int(round(bits_per_key * math.log(2)))))
        self._array = bytearray((self.bits + 7) // 8)
        self.keys_added = 0

    # ------------------------------------------------------------------
    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        h = murmur3_64(key)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1  # odd step avoids short probe cycles
        for i in range(self.num_probes):
            bit = (h1 + i * h2) % self.bits
            self._array[bit >> 3] |= 1 << (bit & 7)
        self.keys_added += 1

    def add_all(self, keys: Iterable[bytes]) -> None:
        for key in keys:
            self.add(key)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return self.may_contain_hash(murmur3_64(key))

    def may_contain_hash(self, h: int) -> bool:
        """Membership test from a precomputed ``murmur3_64(key)`` digest.

        A get that consults several tables' filters for one key hashes
        the key once and probes each filter with the digest; probe
        positions depend on the digest and the filter's own geometry, so
        the digest is shareable across filters of any size.
        """
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        array = self._array
        for i in range(self.num_probes):
            bit = (h1 + i * h2) % self.bits
            if not array[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array (Table 5.4 accounting)."""
        return len(self._array)

    def expected_fpr(self) -> float:
        """Theoretical false-positive rate for the current load."""
        if self.keys_added == 0:
            return 0.0
        exponent = -self.num_probes * self.keys_added / self.bits
        return (1.0 - math.exp(exponent)) ** self.num_probes

    # ------------------------------------------------------------------
    # Serialization (stored in the sstable's filter block)
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        header = (
            _MAGIC
            + self.bits.to_bytes(8, "little")
            + self.num_probes.to_bytes(2, "little")
            + self.keys_added.to_bytes(8, "little")
        )
        return header + bytes(self._array)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if len(data) < 22 or data[:4] != _MAGIC:
            raise CorruptionError("bad bloom filter block")
        bits = int.from_bytes(data[4:12], "little")
        num_probes = int.from_bytes(data[12:14], "little")
        keys_added = int.from_bytes(data[14:22], "little")
        array = data[22:]
        # The constructor never produces anything outside these ranges; a
        # header that claims to is damage (0 bits divides by zero on the
        # first probe, 0 probes answers "maybe" to everything).
        if bits < 64 or not 1 <= num_probes <= 30:
            raise CorruptionError(
                f"bloom filter geometry out of range: bits={bits} probes={num_probes}"
            )
        if len(array) != (bits + 7) // 8:
            raise CorruptionError("bloom filter bit array truncated")
        filt: "BloomFilter" = cls.__new__(cls)
        filt.bits = bits
        filt.num_probes = num_probes
        filt._array = bytearray(array)
        filt.keys_added = keys_added
        return filt

    @classmethod
    def for_keys(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Build a filter sized for ``keys`` (materializes the iterable).

        Bit for bit what :meth:`add` per key produces, without its
        read-modify-write per probe: each probe position sets one flag
        byte of a scratch array of ASCII ``0``/``1`` digits, and one
        ``int(..., 2).to_bytes`` packs the digits into the bit array
        (linear time; power-of-two bases are exempt from the interpreter's
        ``int_max_str_digits`` limit).
        """
        key_list = list(keys)
        filt = cls(len(key_list), bits_per_key)
        bits = filt.bits
        num_probes = filt.num_probes
        nbytes = len(filt._array)
        flags = bytearray(b"0") * (nbytes * 8)
        for h in map(murmur3_64, key_list):
            h1 = h & 0xFFFFFFFF
            h2 = (h >> 32) | 1
            for pos in range(h1, h1 + num_probes * h2, h2):
                flags[pos % bits] = 0x31
        # Bit i of the array is byte i >> 3, bit i & 7: the little-endian
        # integer whose binary digits, most significant first, are the
        # flags reversed.
        flags.reverse()
        filt._array = bytearray(int(flags, 2).to_bytes(nbytes, "little"))
        filt.keys_added = len(key_list)
        return filt
