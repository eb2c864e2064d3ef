"""Wire codec: the GET/PUT/reply fast paths against the general codec.

``Request.encode``/``Response.encode`` join the shapes served traffic is
made of in one go, and ``decode_payload`` parses them in line; the
general ``_encode_general``/``_decode_general`` handle every op and
field and are the reference here.  Every message must encode to the
reference's bytes and decode back to itself on both paths, and damage
must come out of both as the same ``FrameError`` or the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.errors import FrameError
from repro.net.protocol import (
    FrameDecoder,
    Op,
    Request,
    Response,
    Route,
    Status,
    _decode_general,
    decode_payload,
    encode_frame,
)
from repro.util.keys import KIND_DELETE, KIND_PUT

# Varint widths: one byte below 2^7, two below 2^14, the ten-byte top.
U64 = st.one_of(
    st.sampled_from([0, 1, 127, 128, 129, 16383, 16384, 16385, 2**63 - 1, 2**63, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
)
U32 = st.one_of(st.sampled_from([0, 1, 127, 128, 16383, 16384]), st.integers(0, 2**32 - 1))
TEXT = st.text(max_size=20)
TRACE = st.one_of(st.just(""), st.text(min_size=1, max_size=40))


def messages(keys, values):
    """Every request op and reply shape, with and without trace, snapshot
    and routes; keys and values drawn from the given strategies."""

    def request(op, **fields):
        return st.builds(
            Request, op=st.just(op), request_id=U64, shard=U32, trace=TRACE, **fields
        )

    snapshot = st.one_of(st.none(), U64)
    requests = st.one_of(
        request(Op.HELLO, client_id=U64),
        request(Op.GET, key=keys, snapshot=snapshot),
        request(Op.PUT, key=keys, value=values),
        request(Op.DELETE, key=keys),
        request(
            Op.BATCH,
            ops=st.lists(
                st.tuples(st.sampled_from([KIND_PUT, KIND_DELETE]), keys, values), max_size=3
            ),
        ),
        request(Op.SCAN, lo=keys, hi=st.one_of(st.none(), keys), limit=U32, snapshot=snapshot),
        request(Op.SNAPSHOT),
        request(Op.RELEASE, snapshot=U64),
        request(Op.PROPERTY, name=TEXT),
        request(Op.METRICS),
        request(Op.ADMIN, name=TEXT),
    )
    success = st.sampled_from([Status.OK, Status.NOT_FOUND])
    served_replies = st.builds(  # what a GET or a write is answered with
        Response,
        request_id=U64,
        status=success,
        value=values,
        found=st.booleans(),
        applied=st.booleans(),
    )
    replies = st.builds(
        Response,
        request_id=U64,
        status=success,
        value=values,
        found=st.booleans(),
        applied=st.booleans(),
        pairs=st.lists(st.tuples(keys, values), max_size=2),
        snapshot=st.one_of(st.just(0), U64),
        client_id=st.one_of(st.just(0), U64),
        shard_count=st.one_of(st.just(0), U32),
        boundaries=st.lists(keys, max_size=2),
        routes=st.lists(
            st.builds(Route, state=TEXT, host=TEXT, port=st.integers(0, 65535)), max_size=2
        ),
    )
    errors = st.one_of(
        st.builds(
            Response,
            request_id=U64,
            status=st.sampled_from(
                [Status.DEGRADED, Status.BAD_REQUEST, Status.BAD_SHARD, Status.UNSUPPORTED,
                 Status.SERVER_ERROR]
            ),
            message=TEXT,
        ),
        st.builds(
            Response,
            request_id=U64,
            status=st.just(Status.OVERLOADED),
            message=TEXT,
            retry_after=st.integers(0, 10**9).map(lambda micros: micros / 1e6),
        ),
    )
    return st.one_of(requests, served_replies, replies, errors)


MESSAGES = messages(
    keys=st.one_of(st.binary(max_size=20), st.binary(min_size=128, max_size=300)),
    values=st.one_of(st.sampled_from([b"", b"\x00" * 65536]), st.binary(max_size=200)),
)
#: Small enough to damage at every byte.
SMALL = messages(
    keys=st.one_of(st.binary(max_size=12), st.binary(min_size=128, max_size=130)),
    values=st.binary(max_size=24),
)


def outcome(decode, payload):
    """What ``decode`` makes of ``payload``: the message, or FrameError."""
    try:
        return decode(payload)
    except FrameError:
        return FrameError


class TestEncoding:
    @settings(max_examples=300, deadline=None)
    @given(MESSAGES)
    def test_fast_paths_emit_the_general_bytes(self, message):
        assert message.encode() == message._encode_general()

    @settings(max_examples=300, deadline=None)
    @given(MESSAGES)
    def test_both_decoders_roundtrip(self, message):
        payload = message.encode()
        assert decode_payload(payload) == message
        assert _decode_general(payload) == message

    @pytest.mark.parametrize(
        "message",
        [
            Request(op=Op.GET, request_id=5, trace="t/s"),
            Request(op=Op.GET, request_id=5, snapshot=3),
            Request(op=Op.PUT, request_id=5, trace="t/s"),
            Response(request_id=5, snapshot=1),
            Response(request_id=5, routes=[Route("active", "h", 1)]),
            Response(request_id=5, status=Status.SERVER_ERROR, message="x"),
        ],
        ids=["get-trace", "get-snapshot", "put-trace", "reply-snapshot", "reply-routes",
             "error"],
    )
    def test_shapes_off_the_fast_paths_keep_the_general_bytes(self, message):
        assert message.encode() == message._encode_general()
        assert decode_payload(message.encode()) == message


class TestDamage:
    @settings(max_examples=150, deadline=None)
    @given(SMALL, st.integers(1, 255))
    def test_every_truncation_and_flip_is_a_frame_error_or_agrees(self, message, mask):
        payload = message.encode()
        trailer = getattr(message, "trace", "") or getattr(message, "routes", [])
        for cut in range(len(payload)):
            fast = outcome(decode_payload, payload[:cut])
            assert fast == outcome(_decode_general, payload[:cut])
            if not trailer:  # nothing optional to cut off: every prefix is damage
                assert fast is FrameError
        for at in range(len(payload)):
            damaged = bytearray(payload)
            damaged[at] ^= mask
            damaged = bytes(damaged)
            assert outcome(decode_payload, damaged) == outcome(_decode_general, damaged)


class TestFrameDecoder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(st.binary(max_size=300), st.just(b"\x07" * 65536)), max_size=6),
        st.lists(st.one_of(st.integers(0, 16), st.integers(1, 70000)), max_size=12),
    )
    def test_any_chunking_yields_the_same_payloads(self, payloads, cuts):
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder, got, at = FrameDecoder(), [], 0
        for size in cuts + [len(wire)]:
            decoder.feed(wire[at : at + size])
            at += size
            while True:
                payload = decoder.next_frame()
                if payload is None:
                    break
                got.append(payload)
        assert got == payloads
        assert decoder.buffered_bytes == 0


class TestPinnedFrames:
    """Served traffic's four frames, as the general encoder framed them
    before the fast paths existed (cf. ``TestRoutes.LOOPBACK_HELLO``)."""

    KEY = b"user000000000007"
    FRAMES = [
        (
            Request(op=Op.GET, request_id=300, shard=1, key=KEY),
            "16000000bf69adfa02ac0201001075736572303030303030303030303037",
        ),
        (
            Request(op=Op.PUT, request_id=301, shard=1, key=KEY, value=b"value-7"),
            "1d000000f67e9bf303ad020110757365723030303030303030303030370776616c75652d37",
        ),
        (
            Response(request_id=300, found=True, value=b"value-7"),
            "120000002a7f658380ac0200030776616c75652d370000000000",
        ),
        (Response(request_id=301), "0b0000002adefe1b80ad020002000000000000"),
    ]

    @pytest.mark.parametrize("message, frame", FRAMES, ids=["get", "put", "get-ok", "put-ok"])
    def test_frame_bytes(self, message, frame):
        assert encode_frame(message.encode()).hex() == frame
        decoder = FrameDecoder()
        decoder.feed(bytes.fromhex(frame))
        assert decode_payload(decoder.next_frame()) == message
