"""Failure injection: the ORB must fail loudly and cleanly, not hang
or corrupt state, when the wire or the peer misbehaves."""

import threading

import pytest

from repro.core import OctetSequence
from repro.giop import (GIOP_HEADER_SIZE, GIOPError, GIOPHeader, MsgType,
                        encode_giop_header)
from repro.orb import COMM_FAILURE, ORB, TRANSIENT, ORBConfig, SystemException
from repro.orb.connection import GIOPConn
from repro.transport import LoopbackTransport, TCPTransport
from repro.transport.base import TransportError, TransportTimeout


@pytest.fixture
def raw_pair():
    """A raw loopback stream pair (no ORB on the server side)."""
    transport = LoopbackTransport()
    accepted = []
    listener = transport.listen("fault-host", 0, accepted.append)
    client = transport.connect(listener.endpoint)
    yield client, accepted[0]
    listener.close()


class TestMalformedWire:
    def test_garbage_magic_raises_gioperror(self, raw_pair):
        client, server = raw_pair
        conn = GIOPConn(server)
        client.send(b"EVIL" + bytes(8))
        with pytest.raises(GIOPError, match="magic"):
            conn.read_message()

    def test_truncated_header(self, raw_pair):
        client, server = raw_pair
        conn = GIOPConn(server)
        client.send(b"GIOP\x01")  # 5 of 12 bytes, then silence
        with pytest.raises(SystemException):
            conn.read_message()

    def test_size_larger_than_stream(self, raw_pair):
        client, server = raw_pair
        conn = GIOPConn(server)
        header = GIOPHeader(msg_type=MsgType.Request, size=1000)
        client.send(header.encode() + b"short")
        with pytest.raises(COMM_FAILURE):
            conn.read_message()

    def test_bad_body_rejected_not_crash(self, raw_pair):
        client, server = raw_pair
        conn = GIOPConn(server)
        body = b"\xff" * 32  # nonsense RequestHeader
        header = GIOPHeader(msg_type=MsgType.Request, size=len(body))
        client.send(header.encode() + body)
        with pytest.raises(GIOPError):
            conn.read_message()

    def test_deposit_payload_missing(self, raw_pair):
        """Control message promises a deposit; the data never comes."""
        from repro.core import DepositDescriptor
        from repro.giop import RequestHeader, ServiceContext, encode_message
        client, server = raw_pair
        conn = GIOPConn(server)
        req = RequestHeader(
            request_id=1, object_key=b"k", operation="op",
            service_contexts=[ServiceContext.for_deposit(
                DepositDescriptor(1, 4096))])
        client.send(encode_message(req))  # header only, no payload
        with pytest.raises(COMM_FAILURE):
            conn.read_message()


class TestServerRobustness:
    def test_garbage_does_not_kill_other_clients(self, test_api,
                                                 store_impl):
        """One client writing garbage must not take down the server for
        a well-behaved client."""
        server = ORB(ORBConfig(scheme="tcp"))
        good = ORB(ORBConfig(scheme="tcp"))
        try:
            ref = server.activate(store_impl)
            ior = server.object_to_string(ref)
            stub = good.string_to_object(ior)
            assert stub.put_std(OctetSequence(b"before")) == 6

            # rogue client: raw socket, garbage bytes; it is told so
            # and hung up on (a timeout here is neither)
            transport = TCPTransport()
            rogue = transport.connect(server.endpoint)
            rogue.set_timeout(5.0)
            rogue.send(b"totally not GIOP at all.....")
            assert bytes(rogue.recv_exact(GIOP_HEADER_SIZE)) == \
                encode_giop_header(MsgType.MessageError, 0)
            with pytest.raises(TransportError) as hung_up:
                rogue.recv_exact(1)
            assert not isinstance(hung_up.value, TransportTimeout)
            rogue.close()

            assert stub.put_std(OctetSequence(b"after!")) == 12
        finally:
            good.shutdown()
            server.shutdown()

    def test_server_shutdown_mid_session_raises_comm_failure(
            self, test_api, store_impl):
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(store_impl)))
            stub.put_std(OctetSequence(b"ok"))
            server.shutdown()
            with pytest.raises((COMM_FAILURE, TRANSIENT)):
                stub.put_std(OctetSequence(b"too late"))
        finally:
            client.shutdown()
            server.shutdown()

    def test_reconnect_after_failure(self, test_api):
        """A fresh proxy connection works after the old one died."""
        from tests.conftest import make_store_impl
        server1 = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"))
        impl1 = make_store_impl(test_api)
        try:
            stub = client.string_to_object(
                server1.object_to_string(server1.activate(impl1)))
            stub.put_std(OctetSequence(b"1"))
            server1.shutdown()
            with pytest.raises((COMM_FAILURE, TRANSIENT)):
                stub.put_std(OctetSequence(b"2"))
            # a brand-new server on a new port; new reference
            server2 = ORB(ORBConfig(scheme="tcp"))
            impl2 = make_store_impl(test_api)
            stub2 = client.string_to_object(
                server2.object_to_string(server2.activate(impl2)))
            assert stub2.put_std(OctetSequence(b"33")) == 2
            server2.shutdown()
        finally:
            client.shutdown()

    def test_concurrent_clients_over_tcp(self, test_api):
        """Several clients hammering one servant concurrently."""
        from tests.conftest import make_store_impl
        server = ORB(ORBConfig(scheme="tcp"))
        impl = make_store_impl(test_api)
        ior = server.object_to_string(server.activate(impl))
        errors = []

        def client_run(i):
            orb = ORB(ORBConfig(scheme="tcp"))
            try:
                stub = orb.string_to_object(ior)
                for j in range(20):
                    n = stub.put_std(OctetSequence(bytes([i]) * 100))
                    assert n > 0
            except Exception as e:  # noqa: BLE001 - recorded
                errors.append(e)
            finally:
                orb.shutdown()

        threads = [threading.Thread(target=client_run, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        server.shutdown()
        assert not errors
        assert impl._total == 4 * 20 * 100


class TestStreamChunking:
    def test_messages_survive_arbitrary_chunk_boundaries(self, raw_pair):
        """GIOP framing must not depend on send/recv boundary
        coincidence: deliver a valid message one byte at a time."""
        from repro.giop import RequestHeader, encode_message
        client, server = raw_pair
        conn = GIOPConn(server)
        msg = encode_message(RequestHeader(
            request_id=9, object_key=b"key", operation="frag_op"),
            params=b"PAYLOAD!")
        for i in range(len(msg)):
            client.send(msg[i:i + 1])
        rm = conn.read_message()
        assert rm.body_header.operation == "frag_op"
        assert rm.body.get_view(8).tobytes() == b"PAYLOAD!"

    def test_a_fault_plan_numbers_the_reads_a_pump_stages(self):
        """A pumped message may arrive in pieces, and a read that finds
        nothing queued consumes no recv number: one number per read the
        parse stages (header, body), whichever deliveries fill it."""
        from repro.giop import RequestHeader, encode_message
        from repro.transport import FaultPlan, FaultyTransport
        plan = FaultPlan().reset_on_recv(nth=3)
        transport = FaultyTransport(LoopbackTransport(), plan)
        accepted = []
        listener = transport.listen("numbering-host", 0, accepted.append)
        try:
            got, failed = [], []
            GIOPConn(transport.connect(listener.endpoint)).start_reading(
                got.append, failed.append)
            peer = accepted[0]
            msg = encode_message(RequestHeader(
                request_id=1, object_key=b"key", operation="op"))
            peer.send(msg[:GIOP_HEADER_SIZE + 4])  # the body's read waits
            peer.send(msg[GIOP_HEADER_SIZE + 4:])
            assert len(got) == 1 and not failed and not plan.events
            peer.send(msg)  # its header is recv #3
            assert isinstance(failed[0], COMM_FAILURE)
            assert [(e.op, e.nth, e.action) for e in plan.events] == \
                [("recv", 3, "reset")]
        finally:
            listener.close()
