"""Real-socket TCP transport tests (localhost only)."""

import threading

import pytest

from repro.transport import TCPTransport, TransportError


@pytest.fixture
def pair():
    transport = TCPTransport()
    accepted = []
    ready = threading.Event()

    def on_accept(stream):
        accepted.append(stream)
        ready.set()

    listener = transport.listen("127.0.0.1", 0, on_accept)
    client = transport.connect(listener.endpoint)
    assert ready.wait(5), "accept did not happen"
    yield client, accepted[0]
    client.close()
    accepted[0].close()
    listener.close()


class TestTCP:
    def test_send_recv(self, pair):
        client, server = pair
        client.send(b"over the wire")
        assert server.recv_exact(13).tobytes() == b"over the wire"

    def test_sendv_gather(self, pair):
        client, server = pair
        chunks = [bytes([i]) * 1000 for i in range(5)]
        client.sendv(chunks)
        got = server.recv_exact(5000).tobytes()
        assert got == b"".join(chunks)

    def test_sendv_many_chunks_beyond_iov_batch(self, pair):
        client, server = pair
        chunks = [bytes([i % 256]) * 10 for i in range(200)]
        client.sendv(chunks)
        assert server.recv_exact(2000).tobytes() == b"".join(chunks)

    def test_recv_into_aligned_buffer(self, pair):
        from repro.core import ZCBuffer
        client, server = pair
        payload = bytes(range(256)) * 64
        buf = ZCBuffer(len(payload))
        client.send(payload)
        server.recv_into(buf.view())
        assert buf.tobytes() == payload
        assert buf.is_page_aligned

    def test_large_transfer(self, pair):
        client, server = pair
        payload = b"\xAB" * (4 << 20)
        done = []

        def reader():
            done.append(server.recv_exact(len(payload)).tobytes())

        t = threading.Thread(target=reader)
        t.start()
        client.send(payload)
        t.join(30)
        assert done and done[0] == payload

    def test_eof_reports_outstanding_bytes(self, pair):
        client, server = pair
        client.send(b"abc")
        client.close()
        with pytest.raises(TransportError, match="outstanding"):
            server.recv_exact(10)

    def test_connect_refused(self):
        transport = TCPTransport()
        with pytest.raises(TransportError, match="cannot connect"):
            transport.connect(("tcp", "127.0.0.1", 1))  # port 1: closed

    def test_peer_name(self, pair):
        client, _ = pair
        assert client.peer.startswith("127.0.0.1:")


class TestAcceptLoopResilience:
    def test_raising_handler_does_not_kill_accept_loop(self):
        """A handler exception is recorded; the next connect succeeds."""
        transport = TCPTransport()
        accepted = []
        second = threading.Event()

        def on_accept(stream):
            if not accepted:
                accepted.append("boom")
                raise RuntimeError("handler exploded on first connection")
            accepted.append(stream)
            second.set()

        listener = transport.listen("127.0.0.1", 0, on_accept)
        try:
            first = transport.connect(listener.endpoint)
            first.close()
            client = transport.connect(listener.endpoint)
            assert second.wait(5), "accept loop died after handler raise"
            client.send(b"still alive")
            assert accepted[1].recv_exact(11).tobytes() == b"still alive"
            assert listener.accept_errors == 1
            client.close()
            accepted[1].close()
        finally:
            listener.close()


class TestPartialReceiveAccounting:
    def test_timeout_mid_read_counts_partial_bytes(self, pair):
        from repro.transport import TransportTimeout
        client, server = pair
        client.send(b"abc")  # 3 of the 10 bytes the server wants
        server.set_timeout(0.2)
        before = server.bytes_received
        buf = bytearray(10)
        with pytest.raises(TransportTimeout):
            server.recv_into(memoryview(buf))
        assert server.bytes_received - before == 3
        assert bytes(buf[:3]) == b"abc"

    def test_reset_mid_read_counts_partial_bytes(self, pair):
        client, server = pair
        client.send(b"hello")
        client.close()
        before = server.bytes_received
        buf = bytearray(64)
        with pytest.raises(TransportError):
            server.recv_into(memoryview(buf))
        assert server.bytes_received - before == 5
