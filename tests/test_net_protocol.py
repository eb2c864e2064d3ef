"""Wire protocol: framing, CRC poisoning, payload round-trips, routing."""

import pytest

from repro.errors import InvalidArgumentError
from repro.net.errors import FrameError
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Op,
    Request,
    Response,
    Route,
    Status,
    decode_payload,
    encode_frame,
)
from repro.net.router import ShardRouter
from repro.util.keys import KIND_DELETE, KIND_PUT


class TestFraming:
    def test_roundtrip_single_frame(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"hello world"))
        assert decoder.next_frame() == b"hello world"
        assert decoder.next_frame() is None

    def test_multiple_frames_one_buffer(self):
        decoder = FrameDecoder()
        payloads = [b"a", b"bb" * 100, b"", b"\x00\xff" * 33]
        decoder.feed(b"".join(encode_frame(p) for p in payloads))
        assert [decoder.next_frame() for _ in payloads] == payloads
        assert decoder.next_frame() is None

    def test_byte_at_a_time_reassembly(self):
        decoder = FrameDecoder()
        wire = encode_frame(b"fragmented") + encode_frame(b"stream")
        got = []
        for i in range(len(wire)):
            decoder.feed(wire[i : i + 1])
            frame = decoder.next_frame()
            if frame is not None:
                got.append(frame)
        assert got == [b"fragmented", b"stream"]

    def test_corrupt_payload_poisons_decoder(self):
        wire = bytearray(encode_frame(b"precious payload"))
        wire[10] ^= 0x01  # a payload byte: the CRC must catch it
        decoder = FrameDecoder()
        decoder.feed(bytes(wire))
        with pytest.raises(FrameError):
            decoder.next_frame()
        # The stream cannot be resynced: the decoder refuses further use.
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(b"good"))
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_oversize_length_rejected(self):
        import struct

        decoder = FrameDecoder()
        decoder.feed(struct.pack("<II", MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_oversize_encode_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(b"\x00" * (MAX_FRAME_BYTES + 1))


REQUESTS = [
    Request(op=Op.HELLO, request_id=1, client_id=42),
    Request(op=Op.GET, request_id=2, shard=3, key=b"alpha"),
    Request(op=Op.GET, request_id=3, shard=0, key=b"beta", snapshot=9),
    Request(op=Op.PUT, request_id=4, shard=1, key=b"k", value=b"v" * 200),
    Request(op=Op.DELETE, request_id=5, shard=2, key=b"gone"),
    Request(
        op=Op.BATCH,
        request_id=6,
        shard=0,
        ops=[(KIND_PUT, b"a", b"1"), (KIND_DELETE, b"b", b"")],
    ),
    Request(op=Op.SCAN, request_id=7, shard=1, lo=b"a"),
    Request(op=Op.SCAN, request_id=8, shard=1, lo=b"a", hi=b"m", limit=10),
    Request(op=Op.SCAN, request_id=9, shard=0, lo=b"", hi=b"z", snapshot=4),
    Request(op=Op.SNAPSHOT, request_id=10, shard=2),
    Request(op=Op.RELEASE, request_id=11, shard=2, snapshot=7),
    Request(op=Op.PROPERTY, request_id=12, shard=0, name="repro.health"),
]


class TestRequestRoundtrip:
    @pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: f"op{r.op}")
    def test_roundtrip(self, request_):
        assert decode_payload(request_.encode()) == request_

    def test_huge_request_id(self):
        req = Request(op=Op.GET, request_id=(1 << 62) + 5, key=b"k")
        assert decode_payload(req.encode()).request_id == (1 << 62) + 5


RESPONSES = [
    Response(request_id=1, found=True, applied=True, value=b"payload"),
    Response(request_id=2, status=Status.NOT_FOUND),
    Response(request_id=3, applied=False),  # deduplicated retry
    Response(request_id=4, pairs=[(b"a", b"1"), (b"b", b"2")]),
    Response(request_id=5, snapshot=77),
    Response(
        request_id=6,
        client_id=9,
        shard_count=4,
        boundaries=[b"g", b"p", b"w"],
    ),
    Response(request_id=7, status=Status.DEGRADED, message="flush failed"),
    Response(request_id=8, status=Status.BAD_SHARD, message="no shard 9"),
    Response(request_id=9, status=Status.UNSUPPORTED, message="no snapshots"),
    Response(request_id=10, status=Status.SERVER_ERROR, message="boom"),
    Response(  # a process-mode parent's HELLO reply: one route per shard
        request_id=11,
        client_id=3,
        shard_count=3,
        boundaries=[b"g", b"p"],
        routes=[
            Route("active", "10.0.0.7", 40001),
            Route("active", "", 40002),  # wildcard bind: host left to the client
            Route("restarting"),
        ],
    ),
]


class TestResponseRoundtrip:
    @pytest.mark.parametrize(
        "response", RESPONSES, ids=lambda r: Status.NAMES[r.status]
    )
    def test_roundtrip(self, response):
        decoded = decode_payload(response.encode())
        if response.status in (Status.OK, Status.NOT_FOUND):
            assert decoded == response
        else:
            # Error responses carry only the status and message.
            assert decoded.status == response.status
            assert decoded.message == response.message
            assert decoded.request_id == response.request_id


class TestPayloadErrors:
    def test_empty_payload(self):
        with pytest.raises(FrameError):
            decode_payload(b"")

    def test_unknown_op(self):
        with pytest.raises(FrameError):
            decode_payload(bytes([0x55, 0x01, 0x00]))

    def test_truncated_payload(self):
        wire = Request(op=Op.PUT, request_id=3, key=b"k", value=b"v" * 50).encode()
        with pytest.raises(FrameError):
            decode_payload(wire[: len(wire) // 2])

    def test_cannot_encode_unknown_op(self):
        with pytest.raises(FrameError):
            Request(op=99).encode()


class TestShardRouter:
    def test_single_shard_routes_everything(self):
        router = ShardRouter.single()
        assert router.num_shards == 1
        assert router.shard_for(b"") == 0
        assert router.shard_for(b"\xff" * 8) == 0
        assert router.split_range(b"", None) == [(0, b"", None)]

    def test_bisection(self):
        router = ShardRouter([b"g", b"p"])
        assert router.num_shards == 3
        assert router.shard_for(b"a") == 0
        assert router.shard_for(b"g") == 1  # boundary belongs to the right
        assert router.shard_for(b"o") == 1
        assert router.shard_for(b"p") == 2
        assert router.shard_for(b"z") == 2

    def test_shard_range(self):
        router = ShardRouter([b"g", b"p"])
        assert router.shard_range(0) == (None, b"g")
        assert router.shard_range(1) == (b"g", b"p")
        assert router.shard_range(2) == (b"p", None)
        with pytest.raises(InvalidArgumentError):
            router.shard_range(3)

    def test_invalid_boundaries(self):
        for bad in ([b"b", b"a"], [b"a", b"a"], [b""]):
            with pytest.raises(InvalidArgumentError):
                ShardRouter(bad)

    def test_from_samples_balances(self):
        keys = [b"key%04d" % i for i in range(1000)]
        router = ShardRouter.from_samples(keys, 4)
        assert router.num_shards == 4
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[router.shard_for(key)] += 1
        assert min(counts) > 150  # roughly balanced quantile split

    def test_from_samples_degenerate(self):
        assert ShardRouter.from_samples([b"a", b"b"], 5).num_shards == 1
        assert ShardRouter.from_samples([], 3).num_shards == 1

    def test_split_batch_preserves_order(self):
        router = ShardRouter([b"m"])
        ops = [
            (KIND_PUT, b"a", b"1"),
            (KIND_PUT, b"z", b"2"),
            (KIND_DELETE, b"b", b""),
            (KIND_PUT, b"n", b"3"),
        ]
        pieces = router.split_batch(ops)
        assert pieces[0] == [ops[0], ops[2]]
        assert pieces[1] == [ops[1], ops[3]]

    def test_split_range_spans_shards(self):
        router = ShardRouter([b"g", b"p"])
        assert router.split_range(b"a", None) == [
            (0, b"a", b"g"),
            (1, b"g", b"p"),
            (2, b"p", None),
        ]
        assert router.split_range(b"h", b"q") == [
            (1, b"h", b"p"),
            (2, b"p", b"q"),
        ]

    def test_split_range_hi_on_boundary_excludes_right_shard(self):
        router = ShardRouter([b"g", b"p"])
        # hi is exclusive: a scan ending exactly at "p" never touches shard 2.
        assert router.split_range(b"a", b"p") == [
            (0, b"a", b"g"),
            (1, b"g", b"p"),
        ]

    def test_split_range_empty(self):
        router = ShardRouter([b"g"])
        assert router.split_range(b"x", b"x") == []
        assert router.split_range(b"x", b"a") == []

    def test_split_range_single_shard_slice(self):
        router = ShardRouter([b"g", b"p"])
        assert router.split_range(b"h", b"i") == [(1, b"h", b"i")]
