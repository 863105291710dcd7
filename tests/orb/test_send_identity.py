"""Copy-free send identity: the payload the application owns is the
payload the transport sees.

Three layers of the same claim:

* the connection's gather-write hands ``sendv`` a memoryview into the
  application's buffer (mutation visibility proves sharing);
* over the shm transport, a ``ZCOctetSequence`` payload is staged into
  the arena at *marshal* time, so the deposit send is a pure slot
  reference (``ConnStats.shm_references``);
* ``ZCOctetSequence.in_arena`` builds the sequence inside a leased
  slot up front, eliminating even the staging copy.
"""

import pytest

from repro.cdr import get_marshaller
from repro.cdr.typecode import TC_SEQ_ZC_OCTET
from repro.core import ZCOctetSequence
from repro.giop import MsgType, RequestHeader
from repro.orb.connection import GIOPConn
from repro.transport.shm import ShmArena, shm_available

PAYLOAD = 64 * 1024


class _CaptureStream:
    """Stream double that records every sendv chunk list verbatim."""

    def __init__(self):
        self.batches = []

    def sendv(self, chunks):
        self.batches.append(list(chunks))

    def close(self):
        pass


class TestGatherWriteIdentity:
    def _send(self, conn, seq):
        ctx = conn.make_marshal_context()
        enc = conn.body_encoder()
        get_marshaller(TC_SEQ_ZC_OCTET).marshal(enc, seq, ctx)
        conn.send_message(
            RequestHeader(request_id=1, object_key=b"k", operation="op"),
            enc, ctx)

    def test_inline_zc_payload_shares_app_buffer(self):
        """With the registry off the payload travels inline — but as a
        *reference* into the application's sequence, never a copy."""
        stream = _CaptureStream()
        conn = GIOPConn(stream, zero_copy=False)
        seq = ZCOctetSequence.from_data(bytes(PAYLOAD))
        self._send(conn, seq)
        assert len(stream.batches) == 1
        shared = [c for c in stream.batches[0]
                  if isinstance(c, memoryview) and c.nbytes == PAYLOAD]
        assert len(shared) == 1
        seq.view()[0] = 0x5A  # mutate after "send": the chunk sees it
        assert shared[0][0] == 0x5A
        seq.view()[-1] = 0xA5
        assert shared[0][-1] == 0xA5

    def test_chunks_concatenate_to_a_parseable_message(self):
        """The gather batch joins to exactly one well-formed GIOP
        request (header sizes consistent, single fragment)."""
        from repro.giop import GIOP_HEADER_SIZE, GIOPHeader
        stream = _CaptureStream()
        conn = GIOPConn(stream, zero_copy=False)
        self._send(conn, ZCOctetSequence.from_data(bytes(PAYLOAD)))
        wire = b"".join(bytes(c) for c in stream.batches[0])
        header = GIOPHeader.decode(wire[:GIOP_HEADER_SIZE])
        assert header.msg_type is MsgType.Request
        assert header.size == len(wire) - GIOP_HEADER_SIZE

    def test_registry_path_keeps_payload_out_of_control_message(self):
        """With the registry on (no deposit channel on this stream) the
        control message excludes the payload; the trailing deposit view
        is the application buffer itself."""
        stream = _CaptureStream()
        conn = GIOPConn(stream)  # zero_copy on; plain stream, no arena
        seq = ZCOctetSequence.from_data(bytes(PAYLOAD))
        self._send(conn, seq)
        batch = stream.batches[0]
        control = sum(len(c) for c in batch) - PAYLOAD
        assert control < 4096  # header + descriptor only
        payload_views = [c for c in batch
                         if isinstance(c, memoryview)
                         and c.nbytes == PAYLOAD]
        assert len(payload_views) == 1
        seq.view()[0] = 0x77
        assert payload_views[0][0] == 0x77

    def test_8mib_zc_payload_is_still_the_callers_view(self):
        """The bulk point of the benchmark: the deposit chunk handed to
        ``sendv`` is a view of the sequence's own 8 MiB buffer, in the
        same gather write as the control message."""
        nbytes = 8 * 1024 * 1024
        seq = ZCOctetSequence.from_data(bytes(nbytes))
        stream = _CaptureStream()
        conn = GIOPConn(stream)
        self._send(conn, seq)
        assert len(stream.batches) == 1
        big = [c for c in stream.batches[0]
               if isinstance(c, memoryview) and c.nbytes == nbytes]
        assert len(big) == 1
        assert big[0].obj is seq.view().obj
        seq.view()[nbytes // 2] = 0x42
        assert big[0][nbytes // 2] == 0x42
        assert conn.stats.deposits_sent == 1
        assert conn.stats.deposit_bytes_sent == nbytes


class TestNullRequestGeometry:
    """A request that carries no deposit pays for none of the deposit
    machinery: one ``sendv``, control bytes only, the same bytes the
    message codec produces."""

    def _ping(self, conn, request_id=1):
        from repro.cdr.typecode import TC_ULONG
        ctx = conn.make_marshal_context()
        enc = conn.body_encoder()
        get_marshaller(TC_ULONG).marshal(enc, 7, ctx)
        conn.send_message(
            RequestHeader(request_id=request_id, object_key=b"POA1/01",
                          operation="ping"), enc, ctx)
        return enc

    @pytest.mark.parametrize("recorder", [False, True])
    def test_null_request_leaves_in_one_sendv(self, recorder):
        from repro.giop import encode_message
        from repro.obs.flightrec import FlightRecorder
        stream = _CaptureStream()
        # the default ORB attaches a flight recorder to every
        # connection; it must not change the geometry
        conn = GIOPConn(stream,
                        sink=FlightRecorder() if recorder else None)
        enc = self._ping(conn)
        assert len(stream.batches) == 1
        wire = b"".join(bytes(c) for c in stream.batches[0])
        assert wire == encode_message(
            RequestHeader(request_id=1, object_key=b"POA1/01",
                          operation="ping"), params=enc.getvalue())
        assert conn.stats.messages_sent == 1
        assert conn.stats.bytes_sent == len(wire)
        assert conn.stats.deposits_sent == 0

    def test_small_parameters_join_the_control_buffer(self):
        """GIOP header + one contiguous body: no iovec entry per
        parameter, and nothing but byte buffers for sendv to cast."""
        stream = _CaptureStream()
        conn = GIOPConn(stream)
        self._ping(conn)
        batch = stream.batches[0]
        assert len(batch) == 2
        assert all(isinstance(c, (bytes, bytearray)) for c in batch)

    def test_repeated_requests_differ_only_in_the_request_id(self):
        stream = _CaptureStream()
        conn = GIOPConn(stream)
        self._ping(conn, request_id=0x11111111)
        self._ping(conn, request_id=0x22222222)
        first, second = (b"".join(bytes(c) for c in batch)
                         for batch in stream.batches)
        assert len(first) == len(second)
        diff = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
        assert diff == [16, 17, 18, 19]  # GIOP header 12 + context count 4

    def test_a_sink_gets_both_send_stages_and_a_wire_event_from_one_write(
            self):
        """Whoever observes, the message is the same one write: its
        time is stamped as control-send and a zero-byte deposit-send,
        and the wire log's event is built after it."""
        from repro.obs import FlightRecorder, WireTracer
        stream = _CaptureStream()
        rec = FlightRecorder(slow_threshold=0.0)  # keeps every stage
        rec.wire = WireTracer()
        conn = GIOPConn(stream, sink=rec)
        active = rec.start_client_span("ping", rec.begin_invocation())
        self._ping(conn)
        span = rec.finish(active)
        assert [(e.stage, e.nbytes) for e in span.stages] == \
            [("control-send", sum(len(c) for c in stream.batches[0])),
             ("deposit-send", 0)]
        (event,) = rec.wire.records
        assert (event.direction, event.msg_type, event.request_id,
                event.deposits) == ("send", "Request", 1, ())
        assert len(stream.batches) == 1


class _RecordingSocket:
    """The real socket, remembering each ``sendmsg``: bytes, flags and
    the thread that made it."""

    def __init__(self, sock):
        self._sock, self.writes = sock, []

    def sendmsg(self, buffers, ancdata=(), flags=0):
        import threading
        self.writes.append((b"".join(bytes(b) for b in buffers), flags,
                            threading.current_thread()))
        return self._sock.sendmsg(buffers, ancdata, flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestAsyncDriverIdentity:
    """The awaiting driver writes in place, through the same
    ``send_message`` and ``sendv``: what reaches the socket is what the
    sync stub puts there, in one ``sendmsg``, only without waiting."""

    def test_awaited_ping_is_the_sync_pings_one_sendmsg(self):
        import asyncio
        import socket
        import threading

        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig, async_api
        api = compile_idl("interface Same { void ping(in unsigned long x); };",
                          module_name="_send_identity_idl")

        class Impl(api.Same_skel):
            def ping(self, x):
                return None

        server = ORB(ORBConfig(scheme="tcp"))
        ior = server.object_to_string(server.activate(Impl()))

        def second_ping(drive):
            client = ORB(ORBConfig(scheme="tcp"))
            try:
                stub = client.string_to_object(ior)
                stub.ping(7)  # dial; request id 1 on either client
                proxy = next(iter(client._proxies.values()))
                stream = proxy.conn.stream
                rec = stream._sock = _RecordingSocket(stream._sock)
                drive(stub)
                return rec.writes, proxy.stats.snapshot()
            finally:
                client.shutdown()

        try:
            sync, sync_stats = second_ping(lambda stub: stub.ping(7))
            awaited, awaited_stats = second_ping(
                lambda stub: asyncio.run(async_api(stub).ping(7)))
        finally:
            server.shutdown()
        (wire, flags, _), = sync
        (awaited_wire, awaited_flags, thread), = awaited
        assert awaited_wire == wire and wire.startswith(b"GIOP")
        assert (flags, awaited_flags) == (0, socket.MSG_DONTWAIT)
        assert thread is threading.current_thread()  # the loop's, not a pool's
        assert awaited_stats == sync_stats


@pytest.mark.skipif(not shm_available(), reason="no usable /dev/shm")
class TestShmReferenceSend:
    def test_marshal_stages_into_arena_send_is_reference(self):
        """End to end over shm: a plain ``from_data`` payload is staged
        into the arena while marshaling, so the wire-facing deposit is
        a slot reference, not a copy."""
        from repro.apps.ttcp import _TTCPServant, _ttcp_api
        from repro.orb import ORB, ORBConfig
        _ttcp_api()
        server = ORB(ORBConfig(scheme="shm"))
        client = ORB(ORBConfig(scheme="shm", collocated_calls=False))
        try:
            ref = server.activate(_TTCPServant())
            stub = client.string_to_object(server.object_to_string(ref))
            data = bytes(range(256)) * 1024  # 256 KiB
            assert stub.send_zc(ZCOctetSequence.from_data(data)) == len(data)
            proxy = next(iter(client._proxies.values()))
            channel = proxy.conn.stream.deposit_channel
            assert channel is not None
            stats = proxy.conn.stats
            assert (stats.shm_references, stats.shm_fallbacks) == (1, 0)
            # staging must not leak arena slots: repeated calls keep
            # taking the reference path (the receiver may still hold
            # the most recent slot, but never accumulates them)
            for _ in range(3):
                stub.send_zc(ZCOctetSequence.from_data(data))
            assert (stats.shm_references, stats.shm_fallbacks) == (4, 0)
            assert stats.shm_deposits == 4
            arena = channel.send_arena
            assert arena.free_slots >= arena.slot_count - 1
        finally:
            client.shutdown()
            server.shutdown()


class TestInArena:
    def test_in_arena_copy_once_then_reference(self, tmp_path):
        arena = ShmArena.create(str(tmp_path), slot_size=64 * 1024,
                                slot_count=4)
        try:
            data = bytes(range(256)) * 64  # 16 KiB
            seq = ZCOctetSequence.in_arena(arena, data)
            assert seq is not None
            assert seq.tobytes() == data
            assert arena.free_slots == 3  # the slot is leased
            # the sequence's storage IS the arena slot
            lo = arena.slot_address(0)
            hi = lo + arena.slot_size * arena.slot_count
            import ctypes
            addr = ctypes.addressof(
                (ctypes.c_char * 0).from_buffer(seq.view()))
            assert lo <= addr < hi
            seq.release()
            assert arena.free_slots == 4
        finally:
            arena.close()

    def test_in_arena_fill_in_place(self, tmp_path):
        arena = ShmArena.create(str(tmp_path), slot_size=64 * 1024,
                                slot_count=4)
        try:
            seq = ZCOctetSequence.in_arena(arena, n=4096)
            assert seq is not None and len(seq) == 4096
            seq.view()[:] = b"\x3c" * 4096  # producer writes in place
            assert seq.tobytes() == b"\x3c" * 4096
            seq.release()
        finally:
            arena.close()

    def test_in_arena_refuses_oversize_and_exhaustion(self, tmp_path):
        arena = ShmArena.create(str(tmp_path), slot_size=4096,
                                slot_count=1)
        try:
            assert ZCOctetSequence.in_arena(arena, bytes(8192)) is None
            held = ZCOctetSequence.in_arena(arena, bytes(16))
            assert held is not None
            assert ZCOctetSequence.in_arena(arena, bytes(16)) is None
            held.release()
            assert ZCOctetSequence.in_arena(arena, bytes(16)) is not None
        finally:
            arena.close()

    def test_in_arena_requires_an_arena(self):
        assert ZCOctetSequence.in_arena(object(), bytes(16)) is None
        assert ZCOctetSequence.in_arena(None, bytes(16)) is None
