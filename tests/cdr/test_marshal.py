"""Marshaler tests: TypeCode-driven value round-trips including the
zero-copy sequence (TCSeqZCOctet) fast path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (TC_DOUBLE, TC_LONG, TC_OCTET, TC_SEQ_OCTET,
                       TC_SEQ_ZC_OCTET, TC_STRING, TC_ULONG, CDRDecoder,
                       CDREncoder, MarshalContext, MarshalError, StructValue,
                       array_tc, enum_tc, get_marshaller, sequence_tc,
                       string_tc, struct_tc)
from repro.core import (BufferPool, DepositReceiver, DepositRegistry,
                        OctetSequence, ZCOctetSequence)
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE


def round_trip(tc, value, ctx_out=None, ctx_in=None):
    m = get_marshaller(tc)
    enc = CDREncoder()
    m.marshal(enc, value, ctx_out or MarshalContext())
    dec = CDRDecoder(enc.getvalue())
    return m.demarshal(dec, ctx_in or MarshalContext())


class TestBasicMarshalers:
    def test_primitive(self):
        assert round_trip(TC_LONG, -7) == -7
        assert round_trip(TC_DOUBLE, 2.5) == 2.5
        assert round_trip(TC_OCTET, 200) == 200

    def test_primitive_type_error(self):
        with pytest.raises(MarshalError):
            round_trip(TC_LONG, "not an int")

    def test_string(self):
        assert round_trip(TC_STRING, "hello") == "hello"

    def test_bounded_string_enforced(self):
        tc = string_tc(3)
        with pytest.raises(MarshalError):
            round_trip(tc, "toolong")

    def test_generic_sequence_of_longs(self):
        tc = sequence_tc(TC_LONG)
        assert round_trip(tc, [1, -2, 3]) == [1, -2, 3]

    def test_bounded_sequence_enforced(self):
        tc = sequence_tc(TC_LONG, bound=2)
        with pytest.raises(MarshalError):
            round_trip(tc, [1, 2, 3])

    def test_array_exact_length(self):
        tc = array_tc(TC_ULONG, 3)
        assert round_trip(tc, [7, 8, 9]) == [7, 8, 9]
        with pytest.raises(MarshalError):
            round_trip(tc, [7, 8])

    def test_nested_sequence(self):
        tc = sequence_tc(sequence_tc(TC_LONG))
        assert round_trip(tc, [[1], [2, 3], []]) == [[1], [2, 3], []]


class TestStructEnum:
    def test_struct_round_trip_as_structvalue(self):
        tc = struct_tc("P", [("x", TC_DOUBLE), ("y", TC_DOUBLE)],
                       repo_id="IDL:test/P_unregistered:1.0")
        out = round_trip(tc, StructValue(x=1.0, y=-2.0))
        assert isinstance(out, StructValue)
        assert out.x == 1.0 and out.y == -2.0

    def test_struct_accepts_mapping(self):
        tc = struct_tc("Q", [("a", TC_LONG)],
                       repo_id="IDL:test/Q_unregistered:1.0")
        out = round_trip(tc, {"a": 5})
        assert out.a == 5

    def test_struct_missing_member(self):
        tc = struct_tc("R", [("a", TC_LONG)],
                       repo_id="IDL:test/R_unregistered:1.0")
        with pytest.raises(MarshalError, match="lacks member"):
            round_trip(tc, StructValue(b=1))

    def test_enum_round_trip(self):
        tc = enum_tc("Color", ["red", "green"],
                     repo_id="IDL:test/Color_unreg:1.0")
        assert round_trip(tc, 1) == 1

    def test_enum_range_checked(self):
        tc = enum_tc("Color2", ["red", "green"],
                     repo_id="IDL:test/Color2_unreg:1.0")
        with pytest.raises(MarshalError):
            round_trip(tc, 5)


class TestSeqOctet:
    def test_bulk_round_trip(self):
        data = bytes(range(256)) * 10
        out = round_trip(TC_SEQ_OCTET, OctetSequence(data))
        assert isinstance(out, OctetSequence)
        assert out.tobytes() == data

    def test_accepts_raw_bytes(self):
        assert round_trip(TC_SEQ_OCTET, b"raw").tobytes() == b"raw"

    def test_generic_loop_mode_equivalent(self):
        """MICO's per-element loop produces identical wire bytes for
        octets (it is only slower, §5.2)."""
        data = b"slowpath" * 100
        m = get_marshaller(TC_SEQ_OCTET)
        fast, slow = CDREncoder(), CDREncoder()
        m.marshal(fast, data, MarshalContext())
        m.marshal(slow, data, MarshalContext(generic_loop=True))
        assert fast.getvalue() == slow.getvalue()
        out = m.demarshal(CDRDecoder(slow.getvalue()),
                          MarshalContext(generic_loop=True))
        assert out.tobytes() == data

    def test_instrumentation_hook_sees_bytes(self):
        events = []
        ctx = MarshalContext(on_bytes=lambda kind, n: events.append(
            (kind, n)))
        m = get_marshaller(TC_SEQ_OCTET)
        enc = CDREncoder()
        m.marshal(enc, b"x" * 500, ctx)
        assert events == [("marshal-bulk", 500)]


class TestSeqZCOctet:
    def test_inline_fallback_without_registry(self):
        data = b"inline" * 50
        out = round_trip(TC_SEQ_ZC_OCTET, ZCOctetSequence.from_data(data))
        assert isinstance(out, ZCOctetSequence)
        assert out.tobytes() == data
        assert out.is_page_aligned

    def test_deposit_path_is_reference_only(self):
        """§4.4: with a registry, the message body carries only the
        deposit reference; the payload stays where it is."""
        data = b"big" * DEPOSIT_MIN_SIZE
        reg = DepositRegistry()
        ctx = MarshalContext(registry=reg)
        m = get_marshaller(TC_SEQ_ZC_OCTET)
        enc = CDREncoder()
        m.marshal(enc, ZCOctetSequence.from_data(data), ctx)
        assert len(enc) <= 8  # magic + id, no payload
        assert len(ctx.descriptors) == 1
        assert ctx.descriptors[0].size == len(data)
        assert len(reg) == 1

    def test_deposit_demarshal_adopts_landed_buffer(self):
        data = bytes(range(256)) * (DEPOSIT_MIN_SIZE // 256)
        reg = DepositRegistry()
        out_ctx = MarshalContext(registry=reg)
        m = get_marshaller(TC_SEQ_ZC_OCTET)
        enc = CDREncoder()
        m.marshal(enc, ZCOctetSequence.from_data(data), out_ctx)
        desc = out_ctx.descriptors[0]
        recv = DepositReceiver(BufferPool())
        buf = recv.prepare(desc)
        (_, view), = reg.drain()
        buf.view()[:] = view  # the wire
        landed = recv.complete(desc.deposit_id)
        in_ctx = MarshalContext(deposits={desc.deposit_id: landed})
        out = m.demarshal(CDRDecoder(enc.getvalue()), in_ctx)
        assert out.buffer is landed  # zero ORB copies: same storage
        assert out.tobytes() == data

    def test_missing_deposit_is_marshal_error(self):
        reg = DepositRegistry()
        ctx = MarshalContext(registry=reg)
        m = get_marshaller(TC_SEQ_ZC_OCTET)
        enc = CDREncoder()
        m.marshal(enc, ZCOctetSequence.from_data(b"x" * DEPOSIT_MIN_SIZE),
                  ctx)
        with pytest.raises(MarshalError, match="never landed"):
            m.demarshal(CDRDecoder(enc.getvalue()), MarshalContext())

    def test_bad_marker_rejected(self):
        enc = CDREncoder()
        enc.put_ulong(0xDEAD)
        with pytest.raises(MarshalError, match="marker"):
            get_marshaller(TC_SEQ_ZC_OCTET).demarshal(
                CDRDecoder(enc.getvalue()))

    def test_accepts_plain_bytes(self):
        out = round_trip(TC_SEQ_ZC_OCTET, b"plain bytes")
        assert out.tobytes() == b"plain bytes"


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=30000), st.booleans())
def test_octet_stream_round_trip_property(data, zero_copy):
    """Property: any payload survives either octet-stream type."""
    tc = TC_SEQ_ZC_OCTET if zero_copy else TC_SEQ_OCTET
    out = round_trip(tc, data)
    assert out.tobytes() == data


@given(st.lists(st.tuples(st.text(
    alphabet=st.characters(codec="utf-8"), max_size=16),
    st.integers(-2**31, 2**31 - 1)), max_size=8))
def test_struct_sequence_round_trip_property(pairs):
    """Property: sequence<struct{string,long}> round-trips exactly."""
    tc = sequence_tc(struct_tc(
        "KV", [("k", TC_STRING), ("v", TC_LONG)],
        repo_id="IDL:test/KV_prop:1.0"))
    values = [StructValue(k=k, v=v) for k, v in pairs]
    out = round_trip(tc, values)
    assert [(o.k, o.v) for o in out] == pairs
