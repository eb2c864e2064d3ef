"""Pure-Python MurmurHash3.

PebblesDB hashes every inserted key with MurmurHash and inspects the least
significant bits of the digest to decide whether the key becomes a guard
(paper section 4.4).  We implement MurmurHash3 x86 32-bit exactly (same test
vectors as the reference smhasher implementation) so guard selection has the
same statistical properties the paper relies on, and derive a 64-bit variant
by hashing with two seeds for uses that need more bits (bloom filters).
"""

from __future__ import annotations

from functools import lru_cache
from struct import unpack_from

_U32 = 0xFFFFFFFF

_C1 = 0xCC9E2D51
_C2 = 0x1B873593


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit of ``data`` with ``seed``.

    The rotations are written out and a product is masked only where its
    high bits would be read (a multiply mod 2**32 sees the low 32 bits of
    its operand); ``tests/test_util.py`` keeps the textbook body as the
    reference.
    """
    length = len(data)
    h1 = seed & _U32
    for k1 in unpack_from("<%dI" % (length >> 2), data):
        k1 = (k1 * _C1) & _U32
        k1 = (((k1 << 15) | (k1 >> 17)) * _C2) & _U32
        h1 ^= k1
        h1 = (((h1 << 13) | (h1 >> 19)) * 5 + 0xE6546B64) & _U32

    tail = length & 3
    if tail:
        base = length - tail
        k1 = data[base]
        if tail > 1:
            k1 |= data[base + 1] << 8
            if tail > 2:
                k1 |= data[base + 2] << 16
        k1 = (k1 * _C1) & _U32
        h1 ^= (((k1 << 15) | (k1 >> 17)) * _C2) & _U32

    h1 ^= length
    h1 ^= h1 >> 16
    h1 = (h1 * 0x85EBCA6B) & _U32
    h1 ^= h1 >> 13
    h1 = (h1 * 0xC2B2AE35) & _U32
    return h1 ^ (h1 >> 16)


@lru_cache(maxsize=1 << 18)
def murmur3_64(data: bytes, seed: int = 0) -> int:
    """64 bits derived from two seeded murmur3_32 passes.

    Used where 32 bits of hash are not enough (double-hashing bloom
    filters over large key sets).  The low half is ``murmur3_32(data,
    seed)``, so guard selection reads it from here too.  Cached: a key is
    hashed when it is first put and the digest serves its guard test, its
    flush and every compaction that rebuilds a bloom filter over it.  The
    memo is this module-level ``lru_cache`` because ``cache_clear`` is how
    a harness resets the program between repetitions.
    """
    lo = murmur3_32(data, seed)
    hi = murmur3_32(data, seed ^ 0x9E3779B9)
    return (hi << 32) | lo
