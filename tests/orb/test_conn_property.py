"""Property test: arbitrary message mixes survive the connection layer
intact, at any fragmentation threshold."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import get_marshaller
from repro.cdr.typecode import TC_SEQ_OCTET, TC_SEQ_ZC_OCTET
from repro.core import OctetSequence, ZCOctetSequence
from repro.giop import MsgType, RequestHeader
from repro.orb.connection import GIOPConn
from repro.orb.signatures import demarshal_context
from repro.transport import LoopbackTransport

_payload = st.tuples(st.booleans(), st.binary(min_size=0, max_size=30000))


@settings(max_examples=40, deadline=None)
@given(st.lists(_payload, min_size=1, max_size=6),
       st.sampled_from([0, 100, 4096]))
def test_message_mix_round_trip(payloads, fragment_size):
    """Send a random mix of standard and zero-copy payloads as GIOP
    requests; every one must arrive byte-identical and in order."""
    transport = LoopbackTransport()
    accepted = []
    listener = transport.listen(f"prop-{id(payloads)}", 0, accepted.append)
    try:
        client_stream = transport.connect(listener.endpoint)
        sender = GIOPConn(client_stream, fragment_size=fragment_size)
        receiver = GIOPConn(accepted[0])

        for i, (zero_copy, data) in enumerate(payloads):
            tc = TC_SEQ_ZC_OCTET if zero_copy else TC_SEQ_OCTET
            value = (ZCOctetSequence.from_data(data) if zero_copy
                     else OctetSequence(data))
            ctx = sender.make_marshal_context()
            enc = sender.body_encoder()
            get_marshaller(tc).marshal(enc, value, ctx)
            sender.send_message(
                RequestHeader(request_id=i, object_key=b"obj",
                              operation=f"op{i}"),
                enc.getvalue(), ctx)

        for i, (zero_copy, data) in enumerate(payloads):
            rm = receiver.read_message()
            assert rm.msg_type is MsgType.Request
            req = rm.body_header
            assert req.request_id == i
            assert req.operation == f"op{i}"
            tc = TC_SEQ_ZC_OCTET if zero_copy else TC_SEQ_OCTET
            dctx = demarshal_context(rm, receiver)
            out = get_marshaller(tc).demarshal(rm.body, dctx)
            assert out.tobytes() == data
            if zero_copy and data:
                assert out.is_page_aligned
    finally:
        listener.close()
