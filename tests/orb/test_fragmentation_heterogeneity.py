"""GIOP 1.1 fragmentation and cross-endian interoperability tests.

Two CORBA-compliance properties the paper leans on:

* IIOP stays standard — including fragmented control messages;
* heterogeneity is negotiated per GIOP message byte-order flag, with
  receiver-makes-right conversion (§2.1); the homogeneous fast path
  merely *bypasses* conversion, it does not break mixed clusters.
"""

import itertools

import pytest

from repro.cdr.encoder import NATIVE_LITTLE
from repro.core import OctetSequence, ZCOctetSequence
from repro.orb import ORB, ORBConfig


class TestFragmentation:
    def _pair(self, test_api, store_impl, fragment_size):
        server = ORB(ORBConfig(scheme="loop",
                               fragment_size=fragment_size))
        client = ORB(ORBConfig(scheme="loop",
                               fragment_size=fragment_size,
                               collocated_calls=False))
        ref = server.activate(store_impl)
        stub = client.string_to_object(server.object_to_string(ref))
        return stub, client, server

    def test_large_request_fragmented_and_reassembled(self, test_api,
                                                      store_impl):
        stub, client, server = self._pair(test_api, store_impl,
                                          fragment_size=1024)
        try:
            data = bytes(range(256)) * 64  # 16 KiB inline payload
            assert stub.put_std(OctetSequence(data)) == len(data)
            assert store_impl.last.tobytes() == data
        finally:
            client.shutdown()
            server.shutdown()

    def test_fragmented_reply(self, test_api, store_impl):
        stub, client, server = self._pair(test_api, store_impl,
                                          fragment_size=512)
        try:
            seq = stub.get_std(8000)  # std sequence: inline reply body
            assert seq.tobytes() == bytes(i % 256 for i in range(8000))
        finally:
            client.shutdown()
            server.shutdown()

    def test_small_messages_not_fragmented(self, test_api, store_impl):
        stub, client, server = self._pair(test_api, store_impl,
                                          fragment_size=64 * 1024)
        try:
            assert stub.put_std(OctetSequence(b"tiny")) == 4
            conn = next(iter(client._proxies.values())).conn
            assert conn.stats.messages_sent == 1
        finally:
            client.shutdown()
            server.shutdown()

    def test_deposits_ride_after_final_fragment(self, test_api,
                                                store_impl):
        """Zero-copy payloads follow the last control fragment."""
        stub, client, server = self._pair(test_api, store_impl,
                                          fragment_size=128)
        try:
            data = b"Z" * 50_000
            assert stub.put(ZCOctetSequence.from_data(data)) == len(data)
            assert store_impl.last.tobytes() == data
            assert store_impl.last.is_page_aligned
        finally:
            client.shutdown()
            server.shutdown()

    def test_fragmentation_with_many_sizes(self, test_api, store_impl):
        stub, client, server = self._pair(test_api, store_impl,
                                          fragment_size=333)  # odd size
        try:
            for n in (1, 332, 333, 334, 999, 10_000):
                payload = bytes(i % 251 for i in range(n))
                stub.put_std(OctetSequence(payload))
                assert store_impl.last.tobytes() == payload
        finally:
            client.shutdown()
            server.shutdown()


class TestReassemblyLinearity:
    """Reassembling N fragments must cost O(N) copy work.

    The old loop rebuilt ``bytearray(body)`` from scratch per fragment
    — O(N^2) in the total size.  Timing the same reassembly at 64 and
    256 fragments (fixed fragment size) separates the regimes by a
    wide margin: linear predicts a ~4x wall-time ratio, quadratic
    (16x the copied bytes) predicts ~16x.
    """

    FRAG = 16 * 1024
    _ids = itertools.count(1)

    def _reassemble_seconds(self, fragments):
        import time

        from repro.cdr import get_marshaller
        from repro.cdr.typecode import TC_SEQ_OCTET
        from repro.giop import RequestHeader
        from repro.orb.connection import GIOPConn
        from repro.transport import LoopbackTransport

        transport = LoopbackTransport()
        accepted = []
        listener = transport.listen(
            f"reasm-{next(self._ids)}", 0, accepted.append)
        client_stream = transport.connect(listener.endpoint)
        listener.close()
        sender = GIOPConn(client_stream, fragment_size=self.FRAG)
        receiver = GIOPConn(accepted[0])
        try:
            # inline body large enough to split into ~`fragments` pieces
            data = bytes(self.FRAG) * (fragments - 1)
            ctx = sender.make_marshal_context()
            enc = sender.body_encoder()
            get_marshaller(TC_SEQ_OCTET).marshal(
                enc, OctetSequence(data), ctx)
            sender.send_message(
                RequestHeader(request_id=1, object_key=b"k",
                              operation="put"), enc.getvalue(), ctx)
            t0 = time.perf_counter()
            rm = receiver.read_message()
            elapsed = time.perf_counter() - t0
            assert rm.body.remaining >= len(data)
            return elapsed
        finally:
            client_stream.close()
            accepted[0].close()

    def test_256_fragments_reassemble_in_linear_time(self):
        small = min(self._reassemble_seconds(64) for _ in range(3))
        large = min(self._reassemble_seconds(256) for _ in range(3))
        # linear: ~4x; quadratic: ~16x.  8x splits the regimes with
        # margin for scheduler noise on either side.
        assert large < 8 * small, (
            f"256-fragment reassembly took {large:.4f}s vs {small:.4f}s "
            f"for 64 fragments ({large / small:.1f}x) — copy work is "
            f"superlinear in the fragment count")


class TestHeterogeneity:
    @pytest.mark.parametrize("client_little,server_little", [
        (True, False), (False, True), (False, False)])
    def test_cross_endian_pairs_interoperate(self, test_api, store_impl,
                                             client_little, server_little):
        """All byte-order pairings work: each side declares its order in
        the GIOP header, the receiver converts on mismatch."""
        server = ORB(ORBConfig(scheme="loop",
                               wire_little_endian=server_little))
        client = ORB(ORBConfig(scheme="loop",
                               wire_little_endian=client_little,
                               collocated_calls=False))
        try:
            ref = server.activate(store_impl)
            stub = client.string_to_object(server.object_to_string(ref))
            # typed data (string + struct + ulong) forces conversion
            h = test_api.Test_Header(name="héllo", size=0x01020304)
            assert stub.describe(h) == "héllo/16909060"
            # bulk octets: no conversion needed, any order
            data = bytes(range(256)) * 16
            assert stub.put_std(OctetSequence(data)) == len(data)
            assert store_impl.last.tobytes() == data
            # zero-copy path works cross-endian too (octets are
            # order-free; the descriptor rides in the declared order)
            assert stub.put(ZCOctetSequence.from_data(data)) == 2 * len(data)
        finally:
            client.shutdown()
            server.shutdown()

    def test_numeric_zc_cross_endian(self, test_api):
        """The §4.1 numeric extension fixes byte order in place."""
        import numpy as np
        from repro.idl import compile_idl
        api = compile_idl("""
        interface Het { sequence<zc_long> bump(in sequence<zc_long> v); };
        """, module_name="_test_het_idl")

        class Impl(api.Het_skel):
            def bump(self, v):
                return v + 1

        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            # a foreign-endian array from the application
            foreign_order = ">i4" if NATIVE_LITTLE else "<i4"
            x = np.arange(1000, dtype=foreign_order)
            out = stub.bump(x)
            assert np.array_equal(out, np.arange(1, 1001))
        finally:
            client.shutdown()
            server.shutdown()


class TestFrameZeroCopy:
    """The framing hot path must slice the chunk plan, never join it.

    An earlier framer flattened the scatter/gather plan into one
    ``bytes`` before cutting fragments — a full copy of every body on
    every fragmented send.  ``frame_message`` walks the plan and emits
    per-fragment chunk lists whose pieces are memoryview slices of the
    original chunks.
    """

    FRAG = 1000
    #: 4 body-header bytes, padded to 8 before the parameters
    HEAD = 8

    @staticmethod
    def _frame_plan(plan, fragment_size):
        from repro.giop import CancelRequestHeader, frame_message

        return frame_message(CancelRequestHeader(request_id=1), list(plan),
                             sum(len(c) for c in plan),
                             fragment_size=fragment_size)

    @staticmethod
    def _reassemble(chunks):
        """Strip the 12-byte GIOP headers; return the body bytes."""
        from repro.giop import GIOP_HEADER_SIZE, GIOPHeader

        wire = b"".join(bytes(c) for c in chunks)
        body = bytearray()
        pos = 0
        n_frags = 0
        while pos < len(wire):
            header = GIOPHeader.decode(
                memoryview(wire)[pos:pos + GIOP_HEADER_SIZE])
            pos += GIOP_HEADER_SIZE
            body += wire[pos:pos + header.size]
            pos += header.size
            n_frags += 1
        return bytes(body), n_frags

    def test_fragmented_wire_bytes_equal_unfragmented(self):
        plan = [bytes([i % 256]) * n
                for i, n in enumerate((100, 3000, 17, 4500, 1))]

        flat_chunks, n1, size1 = self._frame_plan(plan, 0)
        frag_chunks, n2, size2 = self._frame_plan(plan, self.FRAG)
        assert n1 == 1 and n2 == 8  # ceil((8 + 7618) / 1000)
        assert size1 == size2 == self.HEAD + 7618

        flat_body, _ = self._reassemble(flat_chunks)
        frag_body, n_headers = self._reassemble(frag_chunks)
        assert frag_body == flat_body
        assert frag_body[self.HEAD:] == b"".join(plan)
        assert n_headers == 8

    def test_fragment_pieces_alias_the_original_chunks(self):
        """No copy: every body piece is a view into the caller's plan."""
        big = bytearray(b"A" * 5000)
        plan = [b"hdr-bytes", memoryview(big)]
        chunks, n, _ = self._frame_plan(plan, self.FRAG)
        assert n > 1
        pieces = [c for c in chunks if isinstance(c, memoryview)]
        assert sum(p.nbytes for p in pieces) == self.HEAD + 9 + 5000
        aliased = [p for p in pieces if p.obj is big]
        assert sum(p.nbytes for p in aliased) == 5000

        # aliasing is observable: mutate the source, the plan follows
        big[0:3] = b"XYZ"
        first = next(p for p in aliased)
        assert bytes(first[:3]) == b"XYZ"

    def test_odd_fragment_boundaries_respect_chunk_seams(self):
        """Chunk seams and fragment boundaries interleave arbitrarily."""
        plan = [bytes([i % 256]) * n for i, n in enumerate(
            (1, 999, 1000, 1001, 5, 5, 5, 2500))]
        nbytes = self.HEAD + sum(len(c) for c in plan)
        chunks, n, _ = self._frame_plan(plan, self.FRAG)
        body, n_headers = self._reassemble(chunks)
        assert body[self.HEAD:] == b"".join(plan)
        assert n == n_headers == -(-nbytes // self.FRAG)
