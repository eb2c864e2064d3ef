"""Bloom filter: no false negatives, bounded false positives, codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.errors import CorruptionError
from repro.util.murmur import murmur3_64


class TestMembership:
    @given(st.sets(st.binary(min_size=1, max_size=24), max_size=200))
    @settings(max_examples=50)
    def test_no_false_negatives(self, keys):
        filt = BloomFilter.for_keys(keys)
        assert all(filt.may_contain(k) for k in keys)

    def test_false_positive_rate_near_theory(self):
        n = 5000
        keys = [b"present%08d" % i for i in range(n)]
        filt = BloomFilter.for_keys(keys, bits_per_key=10)
        probes = [b"absent%09d" % i for i in range(n)]
        fp = sum(1 for p in probes if filt.may_contain(p)) / n
        # ~0.8% expected at 10 bits/key; allow generous slack.
        assert fp < 0.05
        assert filt.expected_fpr() < 0.02

    def test_more_bits_fewer_false_positives(self):
        keys = [b"k%06d" % i for i in range(2000)]
        probes = [b"p%06d" % i for i in range(2000)]
        fp = {}
        for bits in (4, 16):
            filt = BloomFilter.for_keys(keys, bits_per_key=bits)
            fp[bits] = sum(1 for p in probes if filt.may_contain(p))
        assert fp[16] < fp[4]

    def test_empty_filter_rejects_everything_gracefully(self):
        filt = BloomFilter(0)
        assert filt.expected_fpr() == 0.0
        # may_contain may return False for anything; must not crash.
        filt.may_contain(b"x")


class TestCodec:
    @given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_encode_decode_preserves_membership(self, keys):
        filt = BloomFilter.for_keys(keys)
        clone = BloomFilter.decode(filt.encode())
        assert all(clone.may_contain(k) for k in keys)
        assert clone.num_probes == filt.num_probes
        assert clone.keys_added == filt.keys_added

    def test_decode_rejects_garbage(self):
        with pytest.raises(CorruptionError):
            BloomFilter.decode(b"not a bloom filter")

    def test_decode_rejects_truncated(self):
        filt = BloomFilter.for_keys([b"a", b"b"])
        with pytest.raises(CorruptionError):
            BloomFilter.decode(filt.encode()[:-3])

    @staticmethod
    def _with_header(bits=None, num_probes=None):
        """A valid 100-key filter block with header fields overwritten
        (and the bit array resized to match ``bits``)."""
        data = bytearray(BloomFilter.for_keys([b"k%d" % i for i in range(100)]).encode())
        if bits is not None:
            data[4:12] = bits.to_bytes(8, "little")
            data[22:] = bytes((bits + 7) // 8)
        if num_probes is not None:
            data[12:14] = num_probes.to_bytes(2, "little")
        return bytes(data)

    def test_decode_rejects_zero_bits(self):
        # Used to decode, then divide by zero on the first probe.
        with pytest.raises(CorruptionError, match="geometry"):
            BloomFilter.decode(self._with_header(bits=0))
        with pytest.raises(CorruptionError, match="geometry"):
            BloomFilter.decode(self._with_header(bits=63))
        BloomFilter.decode(self._with_header(bits=64)).may_contain(b"x")

    def test_decode_rejects_zero_probes(self):
        # Used to decode to a filter answering "maybe" to everything.
        with pytest.raises(CorruptionError, match="geometry"):
            BloomFilter.decode(self._with_header(num_probes=0))

    def test_decode_rejects_too_many_probes(self):
        # Used to decode to a filter spending milliseconds per probe.
        with pytest.raises(CorruptionError, match="geometry"):
            BloomFilter.decode(self._with_header(num_probes=60000))
        with pytest.raises(CorruptionError, match="geometry"):
            BloomFilter.decode(self._with_header(num_probes=31))
        assert BloomFilter.decode(self._with_header(num_probes=30)).num_probes == 30


class TestPackedBuild:
    """``for_keys`` packs the bit array in one call; ``add`` is the kept
    reference it must match bit for bit."""

    @pytest.mark.parametrize("bits_per_key", [1, 10, 16])
    @pytest.mark.parametrize("num_keys", [0, 1, 7, 85, 1000])
    def test_for_keys_equals_add_loop(self, num_keys, bits_per_key):
        keys = [b"user%09d" % (i * 31 % max(1, num_keys - 3)) for i in range(num_keys)]
        assert num_keys < 7 or len(set(keys)) < len(keys)  # duplicates included
        reference = BloomFilter(len(keys), bits_per_key)
        for key in keys:
            reference.add(key)
        packed = BloomFilter.for_keys(iter(keys), bits_per_key)
        assert packed._array == reference._array
        assert type(packed._array) is bytearray
        assert (packed.bits, packed.num_probes) == (reference.bits, reference.num_probes)
        assert packed.keys_added == reference.keys_added == num_keys
        assert packed.encode() == reference.encode()
        clone = BloomFilter.decode(packed.encode())
        probes = [murmur3_64(b"probe%d" % i) for i in range(300)]
        probes += [murmur3_64(key) for key in keys]
        assert [clone.may_contain_hash(h) for h in probes] == [
            reference.may_contain_hash(h) for h in probes
        ]
        assert all(clone.may_contain(key) for key in keys)

    def test_spare_bits_of_the_last_byte_stay_zero(self):
        filt = BloomFilter.for_keys([b"k%d" % i for i in range(7)], bits_per_key=10)
        assert filt.bits == 70 and len(filt._array) == 9
        assert filt._array[-1] >> (70 - 64) == 0
        # A later add still lands on the packed array.
        filt.add(b"one more")
        assert filt.may_contain(b"one more") and filt.keys_added == 8


class TestSizing:
    def test_size_scales_with_keys(self):
        small = BloomFilter(100)
        large = BloomFilter(10000)
        assert large.size_bytes > small.size_bytes

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BloomFilter(-1)
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_key=0)

    def test_probe_count_clamped(self):
        assert 1 <= BloomFilter(10, bits_per_key=1).num_probes <= 30
        assert BloomFilter(10, bits_per_key=100).num_probes <= 30
