"""The connection semantics ``TestConnectionLoop`` checks on loopback,
re-checked over a real socket to ``serve_tcp``.

Over TCP a connection is a protocol object asyncio calls directly, on
both ends: no task per connection or per request, and a client's calls
resolve in the callback that delivered their bytes.
"""

import asyncio

import pytest

from repro.net.client import ClusterClient
from repro.net.errors import ServerUnavailableError, TransientNetError
from repro.net.protocol import Op, Request, Status, encode_frame
from repro.net.transport import StreamEndpoint
from tests.test_net_server import K, V, exchange, make_server, receive, send


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def tcp_server(shards=1):
    server = make_server(shards=shards)
    await server.serve_tcp(port=0)
    return server


def puts(ids):
    return [Request(op=Op.PUT, request_id=i, key=K(i), value=V(i)) for i in ids]


async def raw_connection(server):
    """A bare socket to the server: (endpoint, its StreamWriter)."""
    reader, writer = await asyncio.open_connection(*server.tcp_address)
    return StreamEndpoint(reader, writer), writer


class TestTcpConnection:
    def test_half_closed_connection_gets_every_parked_answer(self):
        async def main():
            server = await tcp_server()
            endpoint, writer = await raw_connection(server)
            await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            send(endpoint, puts(range(2, 22)))
            writer.write_eof()  # half-close: we still read
            responses = await receive(endpoint, 20)
            assert sorted(r.request_id for r in responses) == list(range(2, 22))
            assert all(r.status == Status.OK and r.applied for r in responses)
            assert await endpoint.read() == b""  # then the server closed
            assert server.shards[0].stats.coalesced_writes == 20
            for i in range(2, 22):
                assert server.shards[0].db.get(K(i)) == V(i)
            writer.close()
            await server.aclose()

        run(main())

    def test_engine_exception_answers_server_error_and_connection_lives(self):
        async def main():
            server = await tcp_server()
            db = server.shards[0].db
            db.put(K(1), b"v")
            real_get, calls = db.get, []

            def flaky_get(key, **kwargs):
                calls.append(key)
                if len(calls) == 1:
                    raise RuntimeError("boom")
                return real_get(key, **kwargs)

            db.get = flaky_get
            endpoint, writer = await raw_connection(server)
            get = lambda rid: Request(op=Op.GET, request_id=rid, key=K(1))
            first, second = await exchange(endpoint, [get(1), get(2)])
            assert first.status == Status.SERVER_ERROR
            assert "RuntimeError: boom" in first.message
            assert second.status == Status.OK and second.value == b"v"
            (third,) = await exchange(endpoint, [get(3)])
            assert third.status == Status.OK
            writer.close()
            await server.aclose()

        run(main())

    def test_corrupt_frame_drops_only_that_connection(self):
        async def main():
            server = await tcp_server()
            server.shards[0].db.put(K(1), b"v")
            bad, bad_writer = await raw_connection(server)
            good, good_writer = await raw_connection(server)
            frame = bytearray(encode_frame(Request(op=Op.GET, request_id=1, key=K(1)).encode()))
            frame[10] ^= 0xFF  # a payload byte: the frame CRC catches it
            bad.write(bytes(frame))
            assert await bad.read() == b""  # the server dropped it
            assert server.protocol_errors == 1
            (reply,) = await exchange(good, [Request(op=Op.GET, request_id=2, key=K(1))])
            assert reply.status == Status.OK and reply.value == b"v"
            assert server.protocol_errors == 1
            bad_writer.close()
            good_writer.close()
            await server.aclose()

        run(main())

    def test_no_task_per_request_or_connection(self):
        async def main():
            server = await tcp_server()
            db = server.shards[0].db
            idle = len(asyncio.all_tasks())  # this test, before any connection
            endpoint, writer = await raw_connection(server)
            await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            real_get, seen = db.get, []

            def counting_get(key, **kwargs):
                seen.append(len(asyncio.all_tasks()))
                return real_get(key, **kwargs)

            db.get = counting_get
            gets = [Request(op=Op.GET, request_id=i, key=K(i)) for i in range(2, 102)]
            assert len(await exchange(endpoint, gets)) == 100
            assert len(seen) == 100 and max(seen) == idle
            writer.close()
            await server.aclose()

        run(main())

    def test_server_drop_fails_pending_calls_and_next_call_reconnects(self):
        async def main():
            server = await tcp_server()
            server.shards[0].db.put(K(1), b"v")
            client = await ClusterClient.open_tcp(
                *server.tcp_address, pool_size=1, sleep=lambda s: asyncio.sleep(0)
            )
            conn = client._pool[0]
            pending = [
                conn.call(Request(op=Op.GET, request_id=client._alloc_id(), key=K(1)))
                for _ in range(5)
            ]
            for link in list(server._links):  # before the server read a byte of them
                link.close()
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(r, TransientNetError) for r in results), results
            assert not conn.is_alive
            assert await client.get(K(1)) == b"v"
            assert client.stats.connections_opened == 2
            assert client.stats.retries == 0
            await client.aclose()
            await server.aclose()

        run(main())

    def test_calls_wait_for_a_paused_transport_to_resume(self):
        async def main():
            server = await tcp_server()
            server.shards[0].db.put(K(1), b"v")
            client = await ClusterClient.open_tcp(*server.tcp_address, pool_size=1)
            conn = client._pool[0]
            conn.pause_writing()  # as the transport does past its high-water mark
            get = asyncio.ensure_future(client.get(K(1)))
            await asyncio.sleep(0)
            assert conn._pending  # the request went out ...
            while conn._pending:
                await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert not get.done()  # ... and was answered, but the caller waits
            conn.resume_writing()
            assert await get == b"v"
            conn.pause_writing()
            held = asyncio.ensure_future(
                conn.call(Request(op=Op.GET, request_id=client._alloc_id(), key=K(1)))
            )
            await asyncio.sleep(0)
            await conn.close()  # a connection that dies releases its waiters
            with pytest.raises(TransientNetError):
                await held
            await client.aclose()
            await server.aclose()

        run(main())

    def test_aclose_returns_with_connections_open(self):
        async def main():
            server = await tcp_server()
            client = await ClusterClient.open_tcp(
                *server.tcp_address, max_retries=1, sleep=lambda s: asyncio.sleep(0)
            )
            assert await client.put(K(1), b"v")
            endpoint, writer = await raw_connection(server)
            await exchange(endpoint, [Request(op=Op.HELLO, request_id=1)])
            await asyncio.wait_for(server.aclose(), timeout=10)
            assert await endpoint.read() == b""
            with pytest.raises(ServerUnavailableError):
                await client.get(K(1))
            writer.close()
            await client.aclose()

        run(main())
