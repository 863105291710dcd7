"""The golden GIOP vectors hold the bytes the ORB writes.

``tests/giop/golden.py`` pins ``encode_message``; here every vector, in
the byte order it was captured in, goes out through
``GIOPConn.send_message`` onto a stream that records its writes, and
must come out as those bytes in one gather write.  A ``fragment_size``
that splits the body frames what ``frame_message`` frames, and the
read side's parse reassembles the fragments into the record the whole
message reads as.
"""

import pytest

from repro.giop import encode_message, frame_message
from repro.orb.connection import GIOPConn
from tests.giop.golden import PARAMS, make_header, vectors

_VECTORS = list(vectors())
_WITH_PARAMS = [v for v in _VECTORS if v[3]]

#: splits every ``+params`` vector's body (14 bytes and up) in two or more
FRAGMENT_SIZE = 8


class _Recorder:
    """A stream that keeps each gather write as a list of bytes."""

    peer = "recorder"

    def __init__(self):
        self.writes = []

    def sendv(self, chunks, block=True):
        self.writes.append([bytes(c) for c in chunks])

    def wire(self) -> bytes:
        return b"".join(b"".join(w) for w in self.writes)


def _sent(name, little, params, fragment_size=0) -> _Recorder:
    stream = _Recorder()
    GIOPConn(stream, little_endian=little, fragment_size=fragment_size
             ).send_message(make_header(name), params)
    return stream


def _parse(wire: bytes):
    """Run the read side's parse over ``wire`` -> (record, bytes used).
    A deposit the message names is landed unfilled: its payload is no
    part of the control message."""
    gen, pos, value = GIOPConn(None)._read_message_gen(), 0, None
    try:
        while True:
            kind, want = gen.send(value)
            if kind == "into":
                value = None
                continue
            value = memoryview(bytearray(wire[pos:pos + want]))
            pos += want
    except StopIteration as stop:
        stop.value.release()
        return stop.value, pos


@pytest.mark.parametrize("key,name,little,params,raw", _VECTORS,
                         ids=[v[0] for v in _VECTORS])
def test_send_message_writes_the_golden_bytes(key, name, little, params,
                                              raw):
    stream = _sent(name, little, params)
    assert len(stream.writes) == 1  # one gather write
    assert stream.wire() == raw == encode_message(
        make_header(name), params, little)


@pytest.mark.parametrize("key,name,little,params,raw", _WITH_PARAMS,
                         ids=[v[0] for v in _WITH_PARAMS])
def test_a_fragmented_send_reads_back_as_the_whole_message(
        key, name, little, params, raw):
    chunks, n_fragments, body_nbytes = frame_message(
        make_header(name), [PARAMS], len(PARAMS), little, FRAGMENT_SIZE)
    assert n_fragments == -(-body_nbytes // FRAGMENT_SIZE) > 1
    stream = _sent(name, little, params, FRAGMENT_SIZE)
    assert len(stream.writes) == 1
    wire = stream.wire()
    assert wire == b"".join(chunks)

    whole, used = _parse(raw)
    assert used == len(raw)
    pieces, used = _parse(wire)
    assert used == len(wire)
    assert (pieces.msg_type, pieces.little_endian, pieces.body_header) == \
        (whole.msg_type, whole.little_endian, whole.body_header) == \
        (make_header(name).MSG_TYPE, little, make_header(name))
    assert bytes(pieces.body.get_view(pieces.body.remaining)) == \
        bytes(whole.body.get_view(whole.body.remaining)) == PARAMS
    assert (whole.fragments, pieces.fragments) == (1, n_fragments)
