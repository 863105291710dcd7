"""Adversarial-input properties: random bytes must produce typed
errors (CDRError/GIOPError/DepositError), never arbitrary crashes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import CDRDecoder, CDRError
from repro.core import DepositDescriptor, DepositError
from repro.giop import (GIOP_HEADER_SIZE, GIOPError, GIOPHeader, decode_body,
                        decode_header)

from .golden import vectors

_VECTORS = [raw for *_, raw in vectors()]


@given(st.binary(max_size=64))
def test_header_decode_never_crashes(data):
    try:
        header = decode_header(data)
    except GIOPError:
        return
    # a successful parse implies the magic and bounds were right
    assert data[:4] == b"GIOP"
    assert header.size >= 0


@given(st.binary(min_size=12, max_size=256))
def test_body_decode_never_crashes(data):
    """Force a valid header, then feed random body bytes."""
    try:
        header = decode_header(
            GIOPHeader(msg_type=__import__("repro.giop", fromlist=["MsgType"])
                       .MsgType.Request, size=len(data)).encode())
        decode_body(header, data)
    except (GIOPError, CDRError):
        pass


@given(st.sampled_from(_VECTORS), st.data())
def test_mutated_golden_vectors_raise_only_giop_errors(raw, data):
    """Start from a well-formed message, so the mutation lands deep in
    the header walk (context lengths, key length, operation bytes)
    instead of dying at the first ulong: a flipped byte and a cut must
    surface as GIOPError, whatever they hit."""
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(buf) - 1))
        buf[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(GIOP_HEADER_SIZE, len(buf)))
    try:
        header = decode_header(buf[:GIOP_HEADER_SIZE])
        msg = decode_body(header, buf[GIOP_HEADER_SIZE:cut])
    except GIOPError:
        return
    # a parse that succeeded stayed inside the body it was given
    assert header.size <= cut - GIOP_HEADER_SIZE
    if msg.body is not None:
        assert 0 <= msg.body.tell() <= header.size


@given(st.binary(max_size=128), st.booleans())
def test_cdr_decoder_random_reads(data, little):
    dec = CDRDecoder(data, little_endian=little)
    for op in ("get_string", "get_octets", "get_encapsulation"):
        fresh = CDRDecoder(data, little_endian=little)
        try:
            getattr(fresh, op)()
        except CDRError:
            pass


@given(st.binary(max_size=64))
def test_deposit_descriptor_decode_never_crashes(data):
    try:
        desc = DepositDescriptor.decode(data)
    except DepositError:
        return
    assert desc.size >= 0


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=200), min_size=1,
                max_size=5))
def test_conn_rejects_garbage_streams(chunks):
    """A GIOPConn fed arbitrary bytes raises a typed error or reports
    the connection dead — it never hangs or corrupts."""
    from repro.orb import SystemException
    from repro.orb.connection import GIOPConn
    from repro.transport import LoopbackTransport

    transport = LoopbackTransport()
    accepted = []
    listener = transport.listen(f"fuzz-{id(chunks)}", 0, accepted.append)
    try:
        client = transport.connect(listener.endpoint)
        conn = GIOPConn(accepted[0])
        for chunk in chunks:
            client.send(chunk) if chunk else None
        payload = b"".join(chunks)
        if not payload:
            return
        try:
            rm = conn.read_message()
            # parsing succeeded: the fuzz input happened to be valid GIOP
            assert payload[:4] == b"GIOP"
        except (GIOPError, SystemException):
            pass
    finally:
        listener.close()
