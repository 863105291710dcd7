"""Zero-copy numeric sequences — the §4.1 generalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (CDRDecoder, CDREncoder, MarshalContext, MarshalError,
                       get_marshaller)
from repro.cdr.marshal import FLAG_PAYLOAD_LITTLE
from repro.cdr.typecode import (TC_DOUBLE, TC_LONG, TC_STRING, TCKind,
                                zc_sequence_tc)
from repro.core import BufferPool, DepositReceiver, DepositRegistry
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE

DOUBLES = zc_sequence_tc(TC_DOUBLE)
LONGS = zc_sequence_tc(TC_LONG)
#: elements of the smallest sequence<zc_double> that takes the deposit path
N_DEPOSIT = DEPOSIT_MIN_SIZE // 8


def land(tc, value, ctx_kwargs=None):
    """Full deposit round trip through registry/receiver by hand."""
    m = get_marshaller(tc)
    reg = DepositRegistry()
    out_ctx = MarshalContext(registry=reg)
    enc = CDREncoder()
    m.marshal(enc, value, out_ctx)
    recv = DepositReceiver(BufferPool())
    flags = {}
    for desc in out_ctx.descriptors:
        recv.prepare(desc)
        flags[desc.deposit_id] = desc.flags
    deposits = {}
    for (dep_id, view), (desc, buf) in zip(reg.drain(),
                                           recv.pending_in_order()):
        buf.view()[:] = view
        deposits[dep_id] = buf
    landed = dict(deposits)  # demarshal pops from `deposits`
    for dep_id in list(deposits):
        recv.complete(dep_id)
    in_ctx = MarshalContext(deposits=deposits, deposit_flags=flags,
                            **(ctx_kwargs or {}))
    return m.demarshal(CDRDecoder(enc.getvalue()), in_ctx), landed


class TestTypeCodes:
    def test_zc_sequence_tc_validates_element(self):
        with pytest.raises(ValueError):
            zc_sequence_tc(TC_STRING)

    def test_zc_numeric_is_zero_copy_kind(self):
        assert DOUBLES.kind is TCKind.tk_zc_sequence
        assert DOUBLES.content is TC_DOUBLE


class TestDepositPath:
    def test_doubles_round_trip_aliasing(self):
        x = np.linspace(-1, 1, N_DEPOSIT)
        out, deposits = land(DOUBLES, x)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert np.array_equal(out, x)
        # the array aliases the landed buffer: mutating one shows in
        # the other (zero middleware copies)
        (buf,) = deposits.values()
        buf.view()[0:8] = np.float64(42.0).tobytes()
        assert out[0] == 42.0

    def test_longs_round_trip(self):
        x = np.arange(-N_DEPOSIT, N_DEPOSIT, dtype=np.int32)
        out, deposits = land(LONGS, x)
        assert len(deposits) == 1
        assert out.dtype.itemsize == 4
        assert np.array_equal(out, x)

    def test_descriptor_records_byte_order(self):
        m = get_marshaller(DOUBLES)
        reg = DepositRegistry()
        ctx = MarshalContext(registry=reg)
        m.marshal(CDREncoder(), np.ones(N_DEPOSIT), ctx)
        import sys
        expect = FLAG_PAYLOAD_LITTLE if sys.byteorder == "little" else 0
        assert ctx.descriptors[0].flags == expect

    def test_big_endian_payload_fixed_in_place(self):
        """A big-endian sender's deposit is byteswapped once on landing
        — receiver-makes-right without abandoning zero-copy."""
        x = np.linspace(0, 9, N_DEPOSIT).astype(">f8")
        out, deposits = land(DOUBLES, x)
        assert len(deposits) == 1
        assert np.allclose(out, np.linspace(0, 9, N_DEPOSIT))

    def test_wrong_dtype_rejected(self):
        m = get_marshaller(DOUBLES)
        with pytest.raises(MarshalError, match="dtype"):
            m.marshal(CDREncoder(), np.ones(4, dtype=np.float32),
                      MarshalContext(registry=DepositRegistry()))

    def test_multidimensional_rejected(self):
        m = get_marshaller(DOUBLES)
        with pytest.raises(MarshalError, match="1-D"):
            m.marshal(CDREncoder(), np.ones((2, 2)), MarshalContext())

    def test_non_array_rejected_for_numeric(self):
        m = get_marshaller(DOUBLES)
        with pytest.raises(MarshalError, match="numpy array"):
            m.marshal(CDREncoder(), b"bytes", MarshalContext())

    def test_non_contiguous_array_handled(self):
        x = np.arange(2 * N_DEPOSIT, dtype=np.float64)[::2]
        out, deposits = land(DOUBLES, x)
        assert len(deposits) == 1
        assert np.array_equal(out, x)

    def test_bound_enforced(self):
        tc = zc_sequence_tc(TC_DOUBLE, bound=8)
        m = get_marshaller(tc)
        with pytest.raises(MarshalError, match="bound"):
            m.marshal(CDREncoder(), np.ones(9),
                      MarshalContext(registry=DepositRegistry()))


class TestInlineFallback:
    def test_inline_round_trip(self):
        m = get_marshaller(DOUBLES)
        enc = CDREncoder()
        x = np.linspace(0, 1, 64)
        m.marshal(enc, x, MarshalContext())  # no registry: inline
        out = m.demarshal(CDRDecoder(enc.getvalue()), MarshalContext())
        assert np.array_equal(out, x)

    def test_inline_converts_to_stream_order(self):
        m = get_marshaller(DOUBLES)
        enc = CDREncoder(little_endian=False)  # big-endian stream
        x = np.array([1.5, -2.25])
        m.marshal(enc, x, MarshalContext())
        dec = CDRDecoder(enc.getvalue(), little_endian=False)
        out = m.demarshal(dec, MarshalContext())
        assert np.array_equal(out, x)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), max_size=200),
       st.booleans())
def test_numeric_zc_round_trip_property(values, big_endian_payload):
    x = np.array(values, dtype=">f8" if big_endian_payload else "<f8")
    out, _ = land(DOUBLES, x) if len(values) else (x.astype("f8"), {})
    assert np.array_equal(out.astype("f8"), np.array(values, dtype="f8"))


class TestThroughORB:
    def test_idl_to_wire_round_trip(self):
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig
        api = compile_idl("""
        interface Math2 {
            sequence<zc_float> scale(in sequence<zc_float> v,
                                     in float factor);
        };
        """, module_name="_test_num_zc_idl")

        class Impl(api.Math2_skel):
            def scale(self, v, factor):
                return (v * factor).astype(np.float32)

        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            x = np.arange(1000, dtype=np.float32)
            out = stub.scale(x, 3.0)
            assert out.dtype == np.float32
            assert np.allclose(out, x * 3)
        finally:
            client.shutdown()
            server.shutdown()
