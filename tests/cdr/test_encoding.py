"""CDR encoder/decoder unit and property tests."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdr import CDRDecoder, CDREncoder, CDRError


class TestAlignment:
    def test_primitives_align_naturally(self):
        enc = CDREncoder()
        enc.put_octet(1)
        enc.put_long(2)  # needs 3 pad bytes
        data = enc.getvalue()
        assert len(data) == 8
        assert data[1:4] == b"\x00\x00\x00"

    def test_double_aligns_to_eight(self):
        enc = CDREncoder()
        enc.put_octet(1)
        enc.put_double(2.0)
        assert len(enc) == 16

    def test_offset_shifts_alignment(self):
        enc = CDREncoder(offset=2)
        enc.put_long(7)  # 2 -> pad 2 -> write 4
        assert len(enc) == 6

    def test_no_padding_when_aligned(self):
        enc = CDREncoder()
        enc.put_long(1)
        enc.put_long(2)
        assert len(enc) == 8

    def test_decoder_mirrors_encoder_alignment(self):
        enc = CDREncoder()
        enc.put_octet(9)
        enc.put_short(-3)
        enc.put_double(1.5)
        enc.put_octet(255)
        enc.put_ulonglong(2**60)
        dec = CDRDecoder(enc.getvalue())
        assert dec.get_octet() == 9
        assert dec.get_short() == -3
        assert dec.get_double() == 1.5
        assert dec.get_octet() == 255
        assert dec.get_ulonglong() == 2**60
        assert dec.remaining == 0


class TestPrimitives:
    def test_boolean(self):
        enc = CDREncoder()
        enc.put_boolean(True)
        enc.put_boolean(False)
        dec = CDRDecoder(enc.getvalue())
        assert dec.get_boolean() is True
        assert dec.get_boolean() is False

    def test_char_round_trip(self):
        enc = CDREncoder()
        enc.put_char("A")
        assert CDRDecoder(enc.getvalue()).get_char() == "A"

    def test_char_must_be_single_byte(self):
        enc = CDREncoder()
        with pytest.raises(ValueError):
            enc.put_char("ab")
        with pytest.raises(ValueError):
            enc.put_char("€")

    def test_signed_ranges(self):
        enc = CDREncoder()
        enc.put_short(-32768)
        enc.put_long(-2**31)
        enc.put_longlong(-2**63)
        dec = CDRDecoder(enc.getvalue())
        assert dec.get_short() == -32768
        assert dec.get_long() == -2**31
        assert dec.get_longlong() == -2**63

    def test_overflow_rejected(self):
        enc = CDREncoder()
        with pytest.raises(struct.error):
            enc.put_ushort(70000)


class TestByteOrder:
    def test_big_endian_wire_format(self):
        enc = CDREncoder(little_endian=False)
        enc.put_ulong(0x01020304)
        assert enc.getvalue() == b"\x01\x02\x03\x04"

    def test_little_endian_wire_format(self):
        enc = CDREncoder(little_endian=True)
        enc.put_ulong(0x01020304)
        assert enc.getvalue() == b"\x04\x03\x02\x01"

    def test_receiver_makes_right(self):
        """Both byte orders decode correctly when declared (§2.1)."""
        for little in (True, False):
            enc = CDREncoder(little_endian=little)
            enc.put_long(-123456)
            enc.put_double(3.14159)
            dec = CDRDecoder(enc.getvalue(), little_endian=little)
            assert dec.get_long() == -123456
            assert dec.get_double() == 3.14159


class TestStrings:
    def test_string_nul_terminated_with_length(self):
        enc = CDREncoder()
        enc.put_string("hi")
        data = enc.getvalue()
        assert data[:4] == struct.pack("=I" if enc.little_endian
                                       else ">I", 3)
        assert data[4:7] == b"hi\x00"

    def test_empty_string(self):
        enc = CDREncoder()
        enc.put_string("")
        assert CDRDecoder(enc.getvalue()).get_string() == ""

    def test_utf8_payload(self):
        enc = CDREncoder()
        enc.put_string("héllo wörld")
        assert CDRDecoder(enc.getvalue()).get_string() == "héllo wörld"

    def test_missing_nul_rejected(self):
        enc = CDREncoder()
        enc.put_ulong(2)
        enc.write_raw(b"ab")  # no NUL
        with pytest.raises(CDRError):
            CDRDecoder(enc.getvalue()).get_string()

    def test_zero_length_rejected(self):
        enc = CDREncoder()
        enc.put_ulong(0)
        with pytest.raises(CDRError):
            CDRDecoder(enc.getvalue()).get_string()


class TestOctetsAndViews:
    def test_put_get_octets(self):
        enc = CDREncoder()
        enc.put_octets(b"abc123")
        assert CDRDecoder(enc.getvalue()).get_octets() == b"abc123"

    def test_get_view_is_zero_copy(self):
        storage = bytearray()
        enc = CDREncoder()
        enc.put_ulong(4)
        enc.write_raw(b"WXYZ")
        backing = bytearray(enc.getvalue())
        dec = CDRDecoder(backing)
        n = dec.get_ulong()
        view = dec.get_view(n)
        backing[-1] = ord("!")  # mutate underlying storage
        assert view.tobytes() == b"WXY!"  # view aliases, no copy

    def test_underrun_reported_with_position(self):
        dec = CDRDecoder(b"\x01")
        dec.get_octet()
        with pytest.raises(CDRError, match="underrun"):
            dec.get_ulong()


class TestEncapsulation:
    def test_nested_encapsulation_round_trip(self):
        # aligned from the encapsulation's byte-order octet
        inner = CDREncoder(little_endian=True, offset=1)
        inner.put_string("nested")
        inner.put_ulong(42)
        outer = CDREncoder(little_endian=False)
        outer.put_octet(7)
        outer.put_encapsulation(inner)
        dec = CDRDecoder(outer.getvalue(), little_endian=False)
        assert dec.get_octet() == 7
        sub = dec.get_encapsulation()
        assert sub.little_endian is True
        assert sub.get_string() == "nested"
        assert sub.get_ulong() == 42

    def test_empty_encapsulation_rejected(self):
        enc = CDREncoder()
        enc.put_ulong(0)
        with pytest.raises(CDRError):
            CDRDecoder(enc.getvalue()).get_encapsulation()


class TestTellSeek:
    def test_seek_restores_position(self):
        enc = CDREncoder()
        enc.put_string("repeat")
        dec = CDRDecoder(enc.getvalue())
        mark = dec.tell()
        assert dec.get_string() == "repeat"
        dec.seek(mark)
        assert dec.get_string() == "repeat"

    def test_seek_out_of_range(self):
        dec = CDRDecoder(b"abc")
        with pytest.raises(CDRError):
            dec.seek(10)


_primitive_cases = st.one_of(
    st.tuples(st.just("octet"), st.integers(0, 255)),
    st.tuples(st.just("boolean"), st.booleans()),
    st.tuples(st.just("short"), st.integers(-2**15, 2**15 - 1)),
    st.tuples(st.just("ushort"), st.integers(0, 2**16 - 1)),
    st.tuples(st.just("long"), st.integers(-2**31, 2**31 - 1)),
    st.tuples(st.just("ulong"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("longlong"), st.integers(-2**63, 2**63 - 1)),
    st.tuples(st.just("ulonglong"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("double"), st.floats(allow_nan=False,
                                           allow_infinity=False)),
    st.tuples(st.just("string"), st.text(max_size=64)),
)


@given(st.lists(_primitive_cases, max_size=25), st.booleans())
def test_mixed_stream_round_trip(items, little):
    """Property: any interleaving of primitives round-trips exactly,
    in either byte order (the CDR core invariant)."""
    enc = CDREncoder(little_endian=little)
    for kind, value in items:
        getattr(enc, f"put_{kind}")(value)
    dec = CDRDecoder(enc.getvalue(), little_endian=little)
    for kind, value in items:
        got = getattr(dec, f"get_{kind}")()
        assert got == value
    assert dec.remaining == 0
