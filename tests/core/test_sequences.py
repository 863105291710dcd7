"""Tests for the isomorphic octet-sequence datatypes (§4.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (BufferPool, OctetSequence, ZCOctetSequence,
                        as_octets)


class TestOctetSequence:
    def test_construct_from_bytes(self):
        seq = OctetSequence(b"abc")
        assert seq.length() == 3
        assert seq.tobytes() == b"abc"

    def test_adopts_bytearray_without_copy(self):
        storage = bytearray(b"xyz")
        seq = OctetSequence(storage)
        seq[0] = ord("X")
        assert storage == b"Xyz"  # shared storage

    def test_length_grow_zero_fills(self):
        seq = OctetSequence(b"ab")
        seq.length(5)
        assert seq.tobytes() == b"ab\0\0\0"

    def test_length_shrink_truncates(self):
        seq = OctetSequence(b"abcdef")
        seq.length(2)
        assert seq.tobytes() == b"ab"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            OctetSequence().length(-1)

    def test_indexing_and_slicing(self):
        seq = OctetSequence(bytes(range(10)))
        assert seq[3] == 3
        assert seq[2:5] == bytes([2, 3, 4])
        seq[0] = 99
        assert seq[0] == 99

    def test_iteration(self):
        assert list(OctetSequence(b"\x01\x02")) == [1, 2]

    def test_append(self):
        seq = OctetSequence(b"ab")
        seq.append(b"cd")
        assert seq.tobytes() == b"abcd"

    def test_equality_with_bytes_and_sequences(self):
        assert OctetSequence(b"ab") == b"ab"
        assert OctetSequence(b"ab") == OctetSequence(b"ab")
        assert OctetSequence(b"ab") != OctetSequence(b"ac")

    def test_not_zero_copy(self):
        assert not OctetSequence().is_zero_copy

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(OctetSequence(b"a"))


class TestZCOctetSequence:
    def test_from_data_is_aligned(self):
        seq = ZCOctetSequence.from_data(b"payload")
        assert seq.is_zero_copy
        assert seq.is_page_aligned
        assert seq.tobytes() == b"payload"

    def test_adopt_preserves_buffer_identity(self):
        pool = BufferPool()
        buf = pool.acquire(100)
        buf.view()[:] = b"q" * 100
        seq = ZCOctetSequence.adopt(buf)
        assert seq.buffer is buf
        assert seq.tobytes() == b"q" * 100

    def test_length_constructor_allocates(self):
        seq = ZCOctetSequence(1000)
        assert seq.length() == 1000
        assert seq.buffer is not None

    def test_empty_sequence(self):
        seq = ZCOctetSequence()
        assert seq.length() == 0
        assert seq.tobytes() == b""
        assert seq.is_page_aligned  # vacuously

    def test_length_grow_reallocates_preserving_data(self):
        pool = BufferPool()
        seq = ZCOctetSequence(10, pool=pool)
        seq.view()[:] = b"0123456789"
        seq.length(3 * 4096 + 5)
        assert seq.tobytes()[:10] == b"0123456789"
        assert seq.length() == 3 * 4096 + 5

    def test_length_shrink_keeps_buffer(self):
        seq = ZCOctetSequence(100)
        buf = seq.buffer
        seq.length(10)
        assert seq.buffer is buf

    def test_release_returns_to_pool(self):
        pool = BufferPool()
        seq = ZCOctetSequence.from_data(b"x" * 100, pool=pool)
        seq.release()
        assert seq.length() == 0
        assert pool.cached_count == 1

    def test_isomorphic_api_with_standard(self):
        """§4.3: representation and API isomorphic to the standard."""
        data = bytes(range(200))
        std, zc = OctetSequence(data), ZCOctetSequence.from_data(data)
        assert std.length() == zc.length()
        assert std[17] == zc[17]
        assert std[5:9] == zc[5:9]
        assert std.tobytes() == zc.tobytes()
        assert std == zc

    @given(st.binary(max_size=20000))
    def test_round_trip_any_payload(self, data):
        seq = ZCOctetSequence.from_data(data)
        assert seq.tobytes() == data
        assert seq.length() == len(data)


@pytest.mark.parametrize("cls", [OctetSequence, ZCOctetSequence])
def test_bytes_takes_the_view_whole(cls, monkeypatch):
    """``bytes(seq)`` is one copy of the view, never a walk of
    ``__iter__`` one octet at a time (8 MiB took ~150 ms that way)."""
    data = bytes(range(256)) * 16
    seq = OctetSequence(data) if cls is OctetSequence \
        else ZCOctetSequence.from_data(data)

    def walked(self):
        raise AssertionError("bytes() iterated the sequence")

    monkeypatch.setattr(cls, "__iter__", walked)
    assert bytes(seq) == data
    assert bytes(cls()) == b""


class TestAsOctets:
    def test_passthrough(self):
        seq = OctetSequence(b"a")
        assert as_octets(seq) is seq
        zc = ZCOctetSequence.from_data(b"b")
        assert as_octets(zc) is zc

    def test_wraps_bytes(self):
        seq = as_octets(b"data")
        assert isinstance(seq, OctetSequence)
        assert seq.tobytes() == b"data"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_octets(12345)
