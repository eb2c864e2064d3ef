"""CRC masking, MurmurHash3, and the internal-key codec."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
from repro.util.crc import crc32c, mask_crc, unmask_crc
from repro.util.keys import (
    KIND_DELETE,
    KIND_PUT,
    MAX_SEQUENCE,
    InternalKey,
    pack_internal_key,
    unpack_internal_key,
)
from repro.util.murmur import murmur3_32, murmur3_64


class TestCrc:
    @given(st.binary(max_size=256))
    def test_mask_roundtrip(self, data):
        crc = crc32c(data)
        assert unmask_crc(mask_crc(crc)) == crc

    def test_mask_changes_value(self):
        crc = crc32c(b"hello")
        assert mask_crc(crc) != crc

    def test_chaining(self):
        whole = crc32c(b"hello world")
        chained = crc32c(b" world", seed=crc32c(b"hello"))
        assert whole == chained

    def test_detects_flip(self):
        data = bytearray(b"some record payload")
        crc = crc32c(bytes(data))
        data[3] ^= 0x40
        assert crc32c(bytes(data)) != crc


class TestMurmur:
    def test_reference_vectors(self):
        # Reference values from the smhasher MurmurHash3_x86_32.
        assert murmur3_32(b"") == 0
        assert murmur3_32(b"", seed=1) == 0x514E28B7
        assert murmur3_32(b"hello") == 0x248BFA47
        assert murmur3_32(b"hello, world") == 0x149BBB7F
        assert murmur3_32(b"The quick brown fox jumps over the lazy dog") == 0x2E4FF723

    @given(st.binary(max_size=64))
    def test_deterministic(self, data):
        assert murmur3_32(data) == murmur3_32(data)
        assert murmur3_64(data) == murmur3_64(data)

    @given(st.binary(min_size=1, max_size=64))
    def test_seed_changes_hash(self, data):
        assert murmur3_32(data, 1) != murmur3_32(data, 2) or True  # rarely equal
        assert 0 <= murmur3_32(data) < 2**32
        assert 0 <= murmur3_64(data) < 2**64

    def test_distribution_of_trailing_bits(self):
        # ~1/2^k keys should have k trailing set bits: sanity for guards.
        from repro.core.guards import trailing_set_bits

        n = 20000
        count = sum(
            1
            for i in range(n)
            if trailing_set_bits(murmur3_32(b"key%08d" % i)) >= 6
        )
        expected = n / 64
        assert expected * 0.5 < count < expected * 2.0


def _reference_murmur3_32(data: bytes, seed: int = 0) -> int:
    """The textbook MurmurHash3 x86 32-bit body ``util/murmur.py`` had
    before its rotations were inlined; kept as the reference."""
    mask = 0xFFFFFFFF
    c1, c2 = 0xCC9E2D51, 0x1B873593

    def rotl32(x, r):
        return ((x << r) | (x >> (32 - r))) & mask

    length = len(data)
    nblocks = length // 4
    h1 = seed & mask
    for i in range(nblocks):
        k1 = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k1 = (k1 * c1) & mask
        k1 = rotl32(k1, 15)
        k1 = (k1 * c2) & mask
        h1 ^= k1
        h1 = rotl32(h1, 13)
        h1 = (h1 * 5 + 0xE6546B64) & mask
    tail = data[nblocks * 4 :]
    k1 = 0
    if len(tail) >= 3:
        k1 ^= tail[2] << 16
    if len(tail) >= 2:
        k1 ^= tail[1] << 8
    if len(tail) >= 1:
        k1 ^= tail[0]
        k1 = (k1 * c1) & mask
        k1 = rotl32(k1, 15)
        k1 = (k1 * c2) & mask
        h1 ^= k1
    h1 ^= length
    h1 ^= h1 >> 16
    h1 = (h1 * 0x85EBCA6B) & mask
    h1 ^= h1 >> 13
    h1 = (h1 * 0xC2B2AE35) & mask
    h1 ^= h1 >> 16
    return h1


class TestMurmurAgainstReference:
    SEEDS = (0, 1, 0x9E3779B9, 2**32 - 1)

    def test_every_length_and_tail(self):
        # Lengths 0..67 cover every tail size (the smhasher vectors above
        # never exercise a 2-byte tail) at 0..16 whole words.
        rng = random.Random(3)
        for length in range(68):
            data = bytes(rng.randrange(256) for _ in range(length))
            for seed in self.SEEDS:
                assert murmur3_32(data, seed) == _reference_murmur3_32(data, seed)
            assert murmur3_32(memoryview(data)) == _reference_murmur3_32(data)

    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_inputs(self, data, seed):
        assert murmur3_32(data, seed) == _reference_murmur3_32(data, seed)

    @given(st.binary(max_size=64))
    def test_low_half_of_the_digest_is_the_guard_hash(self, data):
        assert murmur3_64(data) & 0xFFFFFFFF == murmur3_32(data)
        assert murmur3_64(data) >> 32 == murmur3_32(data, 0x9E3779B9)

    def test_memo_is_resettable(self):
        # bench/harness.py resets the program between repetitions this way.
        murmur3_64(b"memo")
        assert murmur3_64.cache_info().currsize > 0
        murmur3_64.cache_clear()
        assert murmur3_64.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "geometry", [(14, 2, 7), (6, 1, 7), (10, 3, 5)], ids=str
    )
    def test_guard_level_is_the_trailing_bits_rule(self, geometry):
        from repro.core.guards import GuardPicker, trailing_set_bits

        top_level_bits, bit_decrement, num_levels = geometry
        picker = GuardPicker(top_level_bits, bit_decrement, num_levels)
        picked = 0
        for i in range(20000):
            key = b"user%010d" % i
            bits = trailing_set_bits(_reference_murmur3_32(key))
            expected = next(
                (
                    level
                    for level in range(1, num_levels)
                    if bits >= picker.required_bits(level)
                ),
                None,
            )
            assert picker.guard_level(key) == expected
            picked += expected is not None
        assert picked > 0

    def test_guards_selected_by_a_load_is_unchanged(self):
        # 647 is what the commit before guard selection read the memoized
        # digest selected for this load (overwrites included).
        import repro

        env = repro.Environment(cache_bytes=8 << 20)
        db = repro.open_store("pebblesdb", env.storage, prefix="db/", seed=7)
        for i in range(5000):
            db.put(b"key%08d" % (i * 7919 % 5000), b"v" * 100)
        db.wait_idle()
        assert db.guards_selected == 647


class TestInternalKey:
    def test_ordering_user_key_then_seq_desc(self):
        a = InternalKey(b"a", 5, KIND_PUT)
        a_newer = InternalKey(b"a", 9, KIND_PUT)
        b = InternalKey(b"b", 1, KIND_PUT)
        assert a_newer < a  # newer version sorts first
        assert a < b
        assert a_newer < b

    def test_prefix_keys_order_correctly(self):
        # b"a" < b"ab" must hold regardless of sequence numbers.
        long_old = InternalKey(b"ab", 1, KIND_PUT)
        short_new = InternalKey(b"a", MAX_SEQUENCE, KIND_PUT)
        assert short_new < long_old

    @given(
        st.binary(min_size=1, max_size=24),
        st.integers(min_value=0, max_value=MAX_SEQUENCE),
        st.sampled_from([KIND_PUT, KIND_DELETE]),
    )
    def test_pack_roundtrip(self, user_key, seq, kind):
        key = InternalKey(user_key, seq, kind)
        assert unpack_internal_key(pack_internal_key(key)) == key

    def test_pack_rejects_short(self):
        with pytest.raises(CorruptionError):
            unpack_internal_key(b"\x01")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            InternalKey(b"k", 1, 7)

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            InternalKey(b"k", MAX_SEQUENCE + 1, KIND_PUT)

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=8),
                st.integers(min_value=0, max_value=1000),
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_sort_matches_reference(self, items):
        keys = [InternalKey(k, s, KIND_PUT) for k, s in items]
        expected = sorted(keys, key=lambda ik: (ik.user_key, -ik.sequence))
        assert sorted(keys) == expected
