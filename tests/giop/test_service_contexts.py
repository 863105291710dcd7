"""Trace-context codec and service-context transparency.

Two wire-level contracts of the tracing PR:

* the :data:`SVC_CTX_TRACE` payload (version + 128-bit trace id +
  64-bit span id + flags) round-trips and rejects malformed input;
* service contexts are *transparent*: tags this ORB does not know
  survive a Request/Reply codec round-trip byte-for-byte, in order —
  a foreign ORB's private contexts must never be dropped or reordered.
"""

import pytest

from repro.giop import (GIOP_HEADER_SIZE, SVC_CTX_DEPOSIT, SVC_CTX_TRACE,
                        TRACE_CTX_SIZE, GIOPError, ReplyHeader, ReplyStatus,
                        RequestHeader, ServiceContext, decode_body,
                        decode_header, decode_trace_context, encode_message,
                        encode_trace_context)

TRACE = bytes(range(16))
SPAN = bytes(range(16, 24))


def _round_trip(header_obj):
    msg = encode_message(header_obj)
    h = decode_header(msg[:GIOP_HEADER_SIZE])
    return decode_body(h, msg[GIOP_HEADER_SIZE:])[0]


class TestTraceContextCodec:
    def test_round_trip(self):
        raw = encode_trace_context(TRACE, SPAN, sampled=True)
        assert len(raw) == TRACE_CTX_SIZE
        trace_id, span_id, sampled = decode_trace_context(raw)
        assert (trace_id, span_id, sampled) == (TRACE, SPAN, True)

    def test_unsampled_flag(self):
        raw = encode_trace_context(TRACE, SPAN, sampled=False)
        assert decode_trace_context(raw)[2] is False

    def test_version_octet_leads(self):
        assert encode_trace_context(TRACE, SPAN)[0] == 0

    @pytest.mark.parametrize("trace,span", [
        (TRACE[:8], SPAN), (TRACE + TRACE, SPAN),
        (TRACE, SPAN[:4]), (TRACE, SPAN + SPAN),
    ])
    def test_wrong_id_sizes_rejected(self, trace, span):
        with pytest.raises(GIOPError):
            encode_trace_context(trace, span)

    def test_short_payload_rejected(self):
        with pytest.raises(GIOPError, match="short"):
            decode_trace_context(b"\x00" * (TRACE_CTX_SIZE - 1))

    def test_unknown_version_rejected(self):
        raw = bytearray(encode_trace_context(TRACE, SPAN))
        raw[0] = 9
        with pytest.raises(GIOPError, match="version"):
            decode_trace_context(bytes(raw))

    def test_trailing_bytes_tolerated(self):
        """A longer future payload decodes its known prefix (forward
        compatibility, like W3C tracestate extensions)."""
        raw = encode_trace_context(TRACE, SPAN) + b"future-extension"
        assert decode_trace_context(raw)[0] == TRACE

    def test_tag_is_vendor_adjacent_to_deposit(self):
        assert SVC_CTX_TRACE == SVC_CTX_DEPOSIT + 1


class TestUnknownContextTransparency:
    UNKNOWN = [ServiceContext(0x4242, b"opaque-blob"),
               ServiceContext(0x7F00_0001, bytes(range(64)))]

    def test_request_preserves_unknown_tags(self):
        req = RequestHeader(request_id=7, object_key=b"K",
                            operation="op",
                            service_contexts=list(self.UNKNOWN))
        out = _round_trip(req)
        assert out.service_contexts == self.UNKNOWN

    def test_reply_preserves_unknown_tags(self):
        rep = ReplyHeader(request_id=7,
                          reply_status=ReplyStatus.NO_EXCEPTION,
                          service_contexts=list(self.UNKNOWN))
        out = _round_trip(rep)
        assert out.service_contexts == self.UNKNOWN

    def test_order_preserved_among_mixed_tags(self):
        """Unknown tags keep their position relative to the trace
        context — transparency means no reordering either."""
        trace_sc = ServiceContext(
            SVC_CTX_TRACE, encode_trace_context(TRACE, SPAN))
        contexts = [self.UNKNOWN[0], trace_sc, self.UNKNOWN[1]]
        req = RequestHeader(request_id=1, object_key=b"K", operation="op",
                            service_contexts=list(contexts))
        out = _round_trip(req)
        assert out.service_contexts == contexts
        assert [sc.context_id for sc in out.service_contexts] == \
            [0x4242, SVC_CTX_TRACE, 0x7F00_0001]
