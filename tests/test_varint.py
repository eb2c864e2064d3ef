"""Varint codec: round-trips, boundaries, and corruption handling."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
from repro.util.varint import (
    decode_varint32,
    decode_varint64,
    decode_varint_run,
    encode_varint32,
    encode_varint64,
)


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_varint32_roundtrip(self, value):
        data = encode_varint32(value)
        decoded, offset = decode_varint32(data)
        assert decoded == value
        assert offset == len(data)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_varint64_roundtrip(self, value):
        data = encode_varint64(value)
        decoded, offset = decode_varint64(data)
        assert decoded == value
        assert offset == len(data)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20))
    def test_concatenated_stream(self, values):
        blob = b"".join(encode_varint64(v) for v in values)
        offset = 0
        out = []
        for _ in values:
            value, offset = decode_varint64(blob, offset)
            out.append(value)
        assert out == values
        assert offset == len(blob)


class TestBoundaries:
    def test_single_byte_values(self):
        for v in (0, 1, 127):
            assert len(encode_varint32(v)) == 1

    def test_two_byte_threshold(self):
        assert len(encode_varint32(127)) == 1
        assert len(encode_varint32(128)) == 2

    def test_max_lengths(self):
        assert len(encode_varint32(2**32 - 1)) == 5
        assert len(encode_varint64(2**64 - 1)) == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint32(-1)
        with pytest.raises(ValueError):
            encode_varint64(-1)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_varint32(2**32)


def _reference_encode(value):
    """Byte-at-a-time varint: what both encoders must equal everywhere."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


class TestFastPaths:
    """The one- and two-byte encoder branches and the block decoder's
    inlined one- and two-byte lengths, on both sides of each boundary."""

    BOUNDARIES = (0, 1, 126, 127, 128, 129, 255, 256, 16382, 16383, 16384, 16385)

    @pytest.mark.parametrize("encode", [encode_varint32, encode_varint64])
    def test_boundaries_equal_the_reference(self, encode):
        for value in self.BOUNDARIES + (2**21 - 1, 2**21, 2**32 - 1):
            data = encode(value)
            assert data == _reference_encode(value)
            assert decode_varint64(data) == (value, len(data))
        assert [len(encode(v)) for v in (127, 128, 16383, 16384)] == [1, 2, 2, 3]

    @given(st.integers(min_value=0, max_value=2**16))
    def test_small_values_equal_the_reference(self, value):
        assert encode_varint32(value) == encode_varint64(value) == _reference_encode(value)

    def test_out_of_range_still_raises_past_the_fast_path(self):
        for value in (-1, -127, -128, -16384, -(2**40)):
            with pytest.raises(ValueError):
                encode_varint32(value)
            with pytest.raises(ValueError):
                encode_varint64(value)
        for value in (2**32, 2**32 + 128, 2**64):
            with pytest.raises(ValueError):
                encode_varint32(value)
        encode_varint64(2**32)
        with pytest.raises(ValueError):
            encode_varint64(2**64)

    def test_lengths_round_trip_through_the_inlined_block_decoder(self):
        from repro.sstable.format import decode_block, encode_entry, seal_block
        from repro.util.keys import KIND_PUT, InternalKey

        for length in self.BOUNDARIES:
            # Value lengths hit vlen directly; a user key of ``length - 8``
            # bytes puts klen on the same boundary.
            user_key = b"k" * max(1, length - 8)
            key = InternalKey(user_key, 42, KIND_PUT)
            value = b"v" * length
            block = seal_block(encode_entry(key, value) + encode_entry(
                InternalKey(user_key + b"z", 41, KIND_PUT), b""
            ))
            for records in (False, True):
                first, second = decode_block(block, zero_copy=True, records=records)
                assert (first[0], bytes(first[1])) == (key, value)
                assert second[0].user_key == user_key + b"z" and bytes(second[1]) == b""
                assert len(first) == len(second) == (3 if records else 2)


class TestCorruption:
    def test_truncated(self):
        data = encode_varint64(2**40)[:-1]
        with pytest.raises(CorruptionError):
            decode_varint64(data)

    def test_empty(self):
        with pytest.raises(CorruptionError):
            decode_varint32(b"")

    def test_endless_continuation(self):
        with pytest.raises(CorruptionError):
            decode_varint64(b"\xff" * 11)

    def test_varint32_overflow_encoding(self):
        # A valid varint64 that exceeds 32 bits must be rejected as varint32.
        data = encode_varint64(2**33)
        with pytest.raises(CorruptionError):
            decode_varint32(data)


def _scalar_run(buf, offset, count):
    """Reference: the batched decoder must equal ``count`` scalar calls —
    same values, same final offset, and the same error at the same point."""
    values = []
    for _ in range(count):
        value, offset = decode_varint64(buf, offset)
        values.append(value)
    return values, offset


class TestVarintRun:
    """decode_varint_run vs the scalar decoders (the fuzz satellite)."""

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30))
    def test_matches_scalar_on_valid_streams(self, values):
        blob = b"".join(encode_varint64(v) for v in values)
        assert decode_varint_run(blob, 0, len(values)) == (values, len(blob))
        assert decode_varint_run(memoryview(blob), 0, len(values)) == (
            values,
            len(blob),
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=10),
        st.binary(max_size=12),
    )
    def test_trailing_garbage_error_parity(self, values, garbage):
        """Random bytes after a valid prefix: batched and scalar decoding
        agree on success values *and* on which error truncated/overlong
        input raises."""
        blob = b"".join(encode_varint64(v) for v in values) + garbage
        count = len(values) + 2  # force decoding into the garbage
        try:
            expected = _scalar_run(blob, 0, count)
        except CorruptionError as exc:
            with pytest.raises(CorruptionError) as excinfo:
                decode_varint_run(blob, 0, count)
            assert str(excinfo.value) == str(exc)
        else:
            assert decode_varint_run(blob, 0, count) == expected

    @given(st.binary(max_size=40), st.integers(min_value=0, max_value=8))
    def test_arbitrary_buffers_error_parity(self, blob, count):
        try:
            expected = _scalar_run(blob, 0, count)
        except CorruptionError as exc:
            with pytest.raises(CorruptionError) as excinfo:
                decode_varint_run(blob, 0, count)
            assert str(excinfo.value) == str(exc)
        else:
            assert decode_varint_run(blob, 0, count) == expected

    def test_truncated_mid_run(self):
        blob = encode_varint64(300) + encode_varint64(2**40)[:-1]
        with pytest.raises(CorruptionError, match="truncated varint"):
            decode_varint_run(blob, 0, 2)

    def test_overlong_encoding_rejected(self):
        # 10 continuation bytes: "varint too long", exactly like the
        # scalar decoder, even when the buffer ends right there.
        with pytest.raises(CorruptionError, match="varint too long"):
            decode_varint_run(b"\xff" * 10, 0, 1)
        with pytest.raises(CorruptionError, match="varint too long"):
            decode_varint64(b"\xff" * 10)

    def test_zero_count(self):
        assert decode_varint_run(b"anything", 3, 0) == ([], 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            decode_varint_run(b"", 0, -1)

    def test_offset_resumes_mid_buffer(self):
        blob = b"\x01" + encode_varint64(128) + encode_varint64(2**56)
        values, offset = decode_varint_run(blob, 1, 2)
        assert values == [128, 2**56]
        assert offset == len(blob)
