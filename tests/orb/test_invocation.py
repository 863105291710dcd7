"""End-to-end ORB invocation tests over loopback and TCP."""

import pytest

from repro.core import OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.orb import BAD_OPERATION, OBJECT_NOT_EXIST, ORB, UNKNOWN, ORBConfig


class TestBasicInvocation:
    def test_string_result(self, loop_pair, test_api):
        stub, impl, *_ = loop_pair
        h = test_api.Test_Header(name="clip", size=9)
        assert stub.describe(h) == "clip/9"

    def test_attribute_getter(self, loop_pair):
        stub, impl, *_ = loop_pair
        assert stub.total == 0
        stub.put_std(OctetSequence(b"xy"))
        assert stub.total == 2

    def test_inout_parameter(self, loop_pair):
        stub, *_ = loop_pair
        assert stub.swap("abc") == ("ABC", "cba")

    def test_oneway_returns_immediately(self, loop_pair):
        stub, impl, *_ = loop_pair
        assert stub.reset() is None
        assert impl.resets == 1

    def test_user_exception_raised_at_client(self, loop_pair, test_api):
        stub, *_ = loop_pair
        with pytest.raises(test_api.Test_Failed) as exc_info:
            stub.put(ZCOctetSequence.from_data(b""))
        assert exc_info.value.reason == "empty"
        assert exc_info.value.code == 7

    def test_servant_bug_maps_to_unknown(self, loop_pair):
        stub, impl, *_ = loop_pair
        impl.describe = lambda h: 1 / 0
        with pytest.raises(UNKNOWN):
            stub.describe_via = None  # does not matter
            stub._invoke("describe", ({"name": "x", "size": 1},))

    def test_missing_operation_rejected(self, loop_pair):
        stub, *_ = loop_pair
        with pytest.raises(BAD_OPERATION):
            stub._invoke("no_such_op", ())

    def test_is_a_and_non_existent(self, loop_pair):
        stub, *_ = loop_pair
        assert stub._is_a("IDL:Test/Store:1.0")
        assert not stub._non_existent()

    def test_deactivated_object_not_exist(self, loop_pair):
        stub, impl, client, server = loop_pair
        server.deactivate(stub)
        with pytest.raises(OBJECT_NOT_EXIST):
            stub.put_std(OctetSequence(b"z"))


class TestZeroCopyPath:
    def test_zc_payload_integrity(self, loop_pair):
        stub, impl, *_ = loop_pair
        data = bytes(range(256)) * 500
        assert stub.put(ZCOctetSequence.from_data(data)) == len(data)
        assert impl.last.tobytes() == data

    def test_received_sequence_is_aligned_zero_copy(self, loop_pair):
        stub, impl, *_ = loop_pair
        stub.put(ZCOctetSequence.from_data(b"q" * 70000))
        assert impl.last.is_zero_copy
        assert impl.last.is_page_aligned

    def test_zc_return_value(self, loop_pair):
        stub, *_ = loop_pair
        seq = stub.get(10000)
        assert seq.is_zero_copy
        assert seq.tobytes() == bytes(i % 256 for i in range(10000))

    def test_deposit_used_for_zc_not_std(self, loop_pair):
        stub, impl, client, _ = loop_pair
        stub.put(ZCOctetSequence.from_data(b"a" * DEPOSIT_MIN_SIZE))
        stub.put_std(OctetSequence(b"b" * DEPOSIT_MIN_SIZE))
        conn = next(iter(client._proxies.values())).conn
        assert conn.stats.deposits_sent == 1
        assert conn.stats.deposit_bytes_sent == DEPOSIT_MIN_SIZE

    def test_zero_copy_disabled_falls_back_inline(self, test_api,
                                                  store_impl):
        server = ORB(ORBConfig(scheme="loop", zero_copy=False))
        client = ORB(ORBConfig(scheme="loop", zero_copy=False))
        try:
            ref = server.activate(store_impl)
            stub = client.string_to_object(server.object_to_string(ref))
            data = b"inline" * 1000
            assert stub.put(ZCOctetSequence.from_data(data)) == len(data)
            assert store_impl.last.tobytes() == data
            conn = next(iter(client._proxies.values())).conn
            assert conn.stats.deposits_sent == 0
        finally:
            client.shutdown()
            server.shutdown()

    def test_generic_loop_mode_still_correct(self, test_api, store_impl):
        """MICO's unoptimized loop is slow but must be byte-exact."""
        server = ORB(ORBConfig(scheme="loop", generic_loop=True))
        client = ORB(ORBConfig(scheme="loop", generic_loop=True))
        try:
            ref = server.activate(store_impl)
            stub = client.string_to_object(server.object_to_string(ref))
            data = bytes(range(256)) * 20
            assert stub.put_std(OctetSequence(data)) == len(data)
            assert store_impl.last.tobytes() == data
        finally:
            client.shutdown()
            server.shutdown()


class TestCollocation:
    def test_collocated_call_passes_reference(self, test_api, store_impl):
        """§2.1: local calls skip marshaling entirely — the servant sees
        the caller's very object."""
        orb = ORB(ORBConfig(scheme="loop"))
        try:
            stub = orb.activate(store_impl)
            seq = ZCOctetSequence.from_data(b"local")
            stub.put(seq)
            assert store_impl.last is seq
        finally:
            orb.shutdown()

    def test_collocation_disabled_goes_remote(self, test_api, store_impl):
        orb = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            stub = orb.activate(store_impl)
            seq = ZCOctetSequence.from_data(b"remote")
            stub.put(seq)
            assert store_impl.last is not seq
            assert store_impl.last.tobytes() == b"remote"
        finally:
            orb.shutdown()


class TestOverTCP:
    def test_full_surface_over_real_sockets(self, tcp_pair, test_api):
        stub, impl, *_ = tcp_pair
        data = bytes(range(256)) * 256
        assert stub.put(ZCOctetSequence.from_data(data)) == len(data)
        assert impl.last.tobytes() == data
        assert impl.last.is_page_aligned
        assert stub.get(4096).tobytes() == bytes(i % 256
                                                 for i in range(4096))
        assert stub.describe(test_api.Test_Header(name="t", size=1)) \
            == "t/1"
        with pytest.raises(test_api.Test_Failed):
            stub.put(ZCOctetSequence.from_data(b""))
        assert stub.total == len(data)

    def test_many_sequential_requests(self, tcp_pair):
        stub, *_ = tcp_pair
        for i in range(50):
            stub.put_std(OctetSequence(bytes([i % 256]) * 100))
        assert stub.total == 5000


class TestReferencePassing:
    def test_object_reference_parameter(self, test_api):
        """An interface-typed parameter crosses as an IOR and comes back
        as a live stub (needed by the transcoder farm)."""
        from repro.idl import compile_idl
        api2 = compile_idl("""
        interface Peer { string ping(); };
        interface Registry {
            string call_through(in Peer p);
            Peer identity(in Peer p);
        };
        """, module_name="_test_refs_idl")

        class PeerImpl(api2.Peer_skel):
            def ping(self):
                return "pong"

        class RegistryImpl(api2.Registry_skel):
            def call_through(self, p):
                return p.ping() + "!"

            def identity(self, p):
                return p

        orb_a = ORB(ORBConfig(scheme="loop"))
        orb_b = ORB(ORBConfig(scheme="loop"))
        try:
            peer_ref = orb_a.activate(PeerImpl())
            reg_ref = orb_b.activate(RegistryImpl())
            reg = orb_a.string_to_object(orb_b.object_to_string(reg_ref))
            peer_for_b = orb_a.string_to_object(
                orb_a.object_to_string(peer_ref))
            assert reg.call_through(peer_for_b) == "pong!"
            back = reg.identity(peer_for_b)
            assert back.ping() == "pong"
        finally:
            orb_a.shutdown()
            orb_b.shutdown()

    def test_nil_reference(self, test_api):
        from repro.idl import compile_idl
        api2 = compile_idl("""
        interface Sink2 { boolean is_nil(in Sink2 other); };
        """, module_name="_test_nil_idl")

        class Impl(api2.Sink2_skel):
            def is_nil(self, other):
                return other is None

        orb = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            stub = orb.activate(Impl())
            assert stub.is_nil(None) is True
        finally:
            orb.shutdown()

    def test_narrow_checks_type(self, loop_pair, test_api):
        stub, *_ = loop_pair
        again = stub._narrow(type(stub))
        assert again.ior.type_id == stub.ior.type_id
