"""GIOP message format tests, including deposit service contexts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DepositDescriptor
from repro.giop import (GIOP_HEADER_SIZE, CancelRequestHeader, GIOPError,
                        GIOPHeader, LocateReplyHeader, LocateRequestHeader,
                        LocateStatus, MsgType, ReplyHeader, ReplyStatus,
                        RequestHeader, ServiceContext, decode_body,
                        decode_header, encode_message)

from .golden import GOLDEN, make_header, vectors


class TestGIOPHeader:
    def test_fixed_size_and_magic(self):
        h = GIOPHeader(msg_type=MsgType.Request, size=100)
        raw = h.encode()
        assert len(raw) == GIOP_HEADER_SIZE
        assert raw[:4] == b"GIOP"

    def test_round_trip_both_orders(self):
        for little in (True, False):
            h = GIOPHeader(msg_type=MsgType.Reply, size=12345,
                           little_endian=little)
            out = GIOPHeader.decode(h.encode())
            assert out.msg_type is MsgType.Reply
            assert out.size == 12345
            assert out.little_endian is little

    def test_fragment_flag(self):
        h = GIOPHeader(msg_type=MsgType.Request, size=0,
                       more_fragments=True)
        assert GIOPHeader.decode(h.encode()).more_fragments

    def test_bad_magic_rejected(self):
        with pytest.raises(GIOPError, match="magic"):
            GIOPHeader.decode(b"JUNK" + bytes(8))

    def test_bad_version_rejected(self):
        raw = bytearray(GIOPHeader(msg_type=MsgType.Request, size=0).encode())
        raw[4] = 9
        with pytest.raises(GIOPError, match="version"):
            GIOPHeader.decode(bytes(raw))

    def test_unknown_type_rejected(self):
        raw = bytearray(GIOPHeader(msg_type=MsgType.Request, size=0).encode())
        raw[7] = 200
        with pytest.raises(GIOPError, match="message type"):
            GIOPHeader.decode(bytes(raw))

    def test_short_header_rejected(self):
        with pytest.raises(GIOPError, match="short"):
            GIOPHeader.decode(b"GIOP")


def _round_trip_body(header_obj):
    msg = encode_message(header_obj)
    h = decode_header(msg[:GIOP_HEADER_SIZE])
    return decode_body(h, msg[GIOP_HEADER_SIZE:]).body_header


class TestBodyHeaders:
    def test_request_header_round_trip(self):
        req = RequestHeader(request_id=42, object_key=b"POA1/0001",
                            operation="do_it", response_expected=True,
                            principal=b"me")
        out = _round_trip_body(req)
        assert out.request_id == 42
        assert out.object_key == b"POA1/0001"
        assert out.operation == "do_it"
        assert out.response_expected
        assert out.principal == b"me"

    def test_oneway_request(self):
        req = RequestHeader(request_id=1, object_key=b"k",
                            operation="fire", response_expected=False)
        assert not _round_trip_body(req).response_expected

    def test_reply_header_statuses(self):
        for status in ReplyStatus:
            out = _round_trip_body(ReplyHeader(request_id=9,
                                               reply_status=status))
            assert out.reply_status is status

    def test_cancel_request(self):
        assert _round_trip_body(CancelRequestHeader(request_id=5)
                                ).request_id == 5

    def test_locate_request_reply(self):
        out = _round_trip_body(LocateRequestHeader(request_id=2,
                                                   object_key=b"xyz"))
        assert out.object_key == b"xyz"
        for status in LocateStatus:
            out = _round_trip_body(LocateReplyHeader(request_id=3,
                                                     locate_status=status))
            assert out.locate_status is status

    def test_close_connection_has_no_body(self):
        msg = encode_message(MsgType.CloseConnection)
        h = decode_header(msg[:GIOP_HEADER_SIZE])
        assert h.size == 0
        assert decode_body(h, b"").body_header is None


class TestServiceContexts:
    def test_deposit_descriptor_rides_service_context(self):
        desc = DepositDescriptor(deposit_id=3, size=65536)
        req = RequestHeader(
            request_id=1, object_key=b"k", operation="put",
            service_contexts=[ServiceContext.for_deposit(desc)])
        out = _round_trip_body(req)
        assert out.deposit_descriptors() == [desc]

    def test_foreign_contexts_ignored_by_deposit_scan(self):
        req = RequestHeader(
            request_id=1, object_key=b"k", operation="op",
            service_contexts=[ServiceContext(context_id=1, data=b"codeset"),
                              ServiceContext.for_deposit(
                                  DepositDescriptor(1, 10))])
        out = _round_trip_body(req)
        assert len(out.service_contexts) == 2
        assert len(out.deposit_descriptors()) == 1

    def test_multiple_deposits_preserve_order(self):
        descs = [DepositDescriptor(i, i * 100) for i in (5, 2, 9)]
        req = RequestHeader(
            request_id=1, object_key=b"k", operation="op",
            service_contexts=[ServiceContext.for_deposit(d)
                              for d in descs])
        assert _round_trip_body(req).deposit_descriptors() == descs


class TestWholeMessages:
    def test_params_follow_header_8_aligned(self):
        req = RequestHeader(request_id=1, object_key=b"key", operation="f")
        params = b"PARAMDATA"
        msg = encode_message(req, params=params)
        h = decode_header(msg[:GIOP_HEADER_SIZE])
        assert h.size == len(msg) - GIOP_HEADER_SIZE
        assert msg.endswith(params)
        body_len = h.size - len(params)
        assert body_len % 8 == 0  # 1.2-style body alignment

    def test_truncated_body_rejected(self):
        req = RequestHeader(request_id=1, object_key=b"key", operation="f")
        msg = encode_message(req)
        h = decode_header(msg[:GIOP_HEADER_SIZE])
        with pytest.raises(GIOPError, match="truncated"):
            decode_body(h, msg[GIOP_HEADER_SIZE:-2])

    @given(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=64),
           st.text(alphabet=st.characters(codec="ascii",
                                          exclude_characters="\x00"),
                   min_size=1, max_size=32),
           st.booleans(), st.booleans())
    def test_request_round_trip_property(self, req_id, key, op, expected,
                                         little):
        req = RequestHeader(request_id=req_id, object_key=key,
                            operation=op, response_expected=expected)
        msg = encode_message(req, little_endian=little)
        h = decode_header(msg[:GIOP_HEADER_SIZE])
        out = decode_body(h, msg[GIOP_HEADER_SIZE:]).body_header
        assert (out.request_id, out.object_key, out.operation,
                out.response_expected) == (req_id, key, op, expected)


def _split(raw):
    return raw[:GIOP_HEADER_SIZE], raw[GIOP_HEADER_SIZE:]


@pytest.mark.parametrize("key,name,little,params,raw", list(vectors()),
                         ids=[v[0] for v in vectors()])
class TestGoldenVectors:
    """Wire identity with the codec this one replaced (see golden.py)."""

    def test_encodes_byte_identically(self, key, name, little, params, raw):
        assert encode_message(make_header(name), params=params,
                              little_endian=little) == raw

    def test_decodes_field_identically(self, key, name, little, params,
                                       raw):
        head, body = _split(raw)
        header = decode_header(head)
        assert header.little_endian is little
        assert header.size == len(body)
        msg = decode_body(header, body)
        assert msg.body_header == make_header(name)
        # the decoder is left at the parameters
        dec = msg.body
        if params:
            dec.align(8)
            assert bytes(dec.get_view(len(params))) == params
        assert dec.remaining == 0

    def test_decodes_from_a_longer_buffer(self, key, name, little, params,
                                          raw):
        """``header.size`` bounds the parse, not the buffer handed in."""
        head, body = _split(raw)
        msg = decode_body(decode_header(head), body + b"\xff" * 9)
        assert msg.body_header == make_header(name)


_WHOLE_HEADERS = [v for v in vectors() if not v[3]]


@pytest.mark.parametrize("key,name,little,params,raw", _WHOLE_HEADERS,
                         ids=[v[0] for v in _WHOLE_HEADERS])
def test_every_truncation_point_is_a_giop_error(key, name, little, params,
                                                raw):
    """The vectors without parameter bytes end with their header, so
    any cut loses part of it."""
    head, body = _split(raw)
    header = decode_header(head)
    for cut in range(len(body)):
        # a body the header promised but the stream did not deliver
        with pytest.raises(GIOPError, match="truncated"):
            decode_body(header, body[:cut])
        # a header whose size field itself cuts the body header
        short = GIOPHeader(msg_type=header.msg_type, size=cut,
                           little_endian=little)
        with pytest.raises(GIOPError):
            decode_body(short, body[:cut])
    for cut in range(GIOP_HEADER_SIZE):
        with pytest.raises(GIOPError, match="short"):
            decode_header(head[:cut])


class TestMalformedHeaders:
    """The checks of the old decoder, each still a GIOPError."""

    def _reply(self, little=True):
        raw = bytes.fromhex(GOLDEN[
            f"Reply/plain/{'le' if little else 'be'}"])
        return raw[:GIOP_HEADER_SIZE], bytearray(raw[GIOP_HEADER_SIZE:])

    def test_bad_magic(self):
        raw = bytearray.fromhex(GOLDEN["Request/plain/le"])
        raw[0:4] = b"GIOQ"
        with pytest.raises(GIOPError, match="magic"):
            decode_header(raw[:GIOP_HEADER_SIZE])

    def test_header_decodes_from_a_memoryview_without_copy(self):
        raw = bytearray.fromhex(GOLDEN["Request/plain/be"])
        header = decode_header(memoryview(raw)[:GIOP_HEADER_SIZE])
        assert header.msg_type is MsgType.Request
        assert not header.little_endian
        assert header.size == len(raw) - GIOP_HEADER_SIZE

    @pytest.mark.parametrize("little", [True, False])
    def test_unknown_message_type(self, little):
        raw = bytearray.fromhex(
            GOLDEN[f"Request/plain/{'le' if little else 'be'}"])
        raw[7] = 8  # one past Fragment
        with pytest.raises(GIOPError, match="message type"):
            decode_header(raw[:GIOP_HEADER_SIZE])

    @pytest.mark.parametrize("little", [True, False])
    def test_unknown_reply_status(self, little):
        head, body = self._reply(little)
        body[8:12] = (4).to_bytes(4, "little" if little else "big")
        with pytest.raises(GIOPError, match="reply status"):
            decode_body(decode_header(head), body)

    @pytest.mark.parametrize("little", [True, False])
    def test_unknown_locate_status(self, little):
        raw = bytearray.fromhex(
            GOLDEN[f"LocateReply/plain/{'le' if little else 'be'}"])
        raw[-4:] = (3).to_bytes(4, "little" if little else "big")
        head, body = _split(raw)
        with pytest.raises(GIOPError, match="locate status"):
            decode_body(decode_header(head), body)

    @pytest.mark.parametrize("family", ["Request", "Reply"])
    @pytest.mark.parametrize("little", [True, False])
    def test_context_count_4097_rejected_4096_is_an_underrun(self, family,
                                                             little):
        raw = bytearray.fromhex(
            GOLDEN[f"{family}/plain/{'le' if little else 'be'}"])
        head, body = _split(raw)
        order = "little" if little else "big"
        body[0:4] = (4097).to_bytes(4, order)
        with pytest.raises(GIOPError, match="implausible"):
            decode_body(decode_header(head), body)
        # the largest plausible count passes that check and then runs
        # out of bytes: still a GIOPError, never a struct.error
        body[0:4] = (4096).to_bytes(4, order)
        with pytest.raises(GIOPError):
            decode_body(decode_header(head), body)

    def test_context_length_past_the_body(self):
        raw = bytearray.fromhex(GOLDEN["Request/deposit/le"])
        head, body = _split(raw)
        body[8:12] = (10_000).to_bytes(4, "little")  # first context length
        with pytest.raises(GIOPError, match="underrun"):
            decode_body(decode_header(head), body)

    def test_operation_must_be_nul_terminated(self):
        raw = bytearray.fromhex(GOLDEN["Request/plain/le"])
        head, body = _split(raw)
        at = bytes(body).index(b"send_zc\x00")
        body[at + 7] = ord("!")
        with pytest.raises(GIOPError, match="NUL"):
            decode_body(decode_header(head), body)

    def test_zero_length_operation(self):
        raw = bytearray.fromhex(GOLDEN["Request/plain/le"])
        head, body = _split(raw)
        at = bytes(body).index(b"send_zc\x00") - 4
        body[at:at + 4] = (0).to_bytes(4, "little")
        with pytest.raises(GIOPError, match="zero length"):
            decode_body(decode_header(head), body)

    def test_operation_that_is_not_utf8(self):
        raw = bytearray.fromhex(GOLDEN["Request/plain/le"])
        head, body = _split(raw)
        at = bytes(body).index(b"send_zc\x00")
        body[at] = 0xFF
        with pytest.raises(GIOPError):
            decode_body(decode_header(head), body)


class TestRequestTemplateTable:
    """The context-less Request header is cached per (byte order, key,
    operation, response_expected) and patched with the request id."""

    def test_cached_header_takes_each_request_id(self):
        for little in (True, False):
            seen = set()
            for request_id in (0, 1, 0xDEADBEEF, 0xFFFFFFFF, 1):
                req = RequestHeader(request_id=request_id,
                                    object_key=b"POA1/0001",
                                    operation="ping")
                raw = encode_message(req, little_endian=little)
                h = decode_header(raw[:GIOP_HEADER_SIZE])
                out = decode_body(h, raw[GIOP_HEADER_SIZE:]).body_header
                assert out == req
                seen.add(bytes(raw))
            assert len(seen) == 4

    def test_encode_hands_out_a_private_buffer(self):
        req = RequestHeader(request_id=5, object_key=b"k", operation="op")
        first = req.encode()
        first += b"scribble"
        first[0:4] = b"\xff" * 4
        assert RequestHeader(request_id=5, object_key=b"k",
                             operation="op").encode() == req.encode()
        assert req.encode()[0:4] == b"\x00" * 4

    def test_table_is_bounded(self):
        from repro.giop.messages import _request_template
        limit = _request_template.cache_info().maxsize
        assert limit is not None and limit <= 4096
        for i in range(limit + 50):
            RequestHeader(request_id=i, object_key=b"key-%d" % i,
                          operation="op").encode()
        assert _request_template.cache_info().currsize <= limit

    def test_contexts_and_principal_bypass_the_table(self):
        from repro.giop.messages import _request_template
        before = _request_template.cache_info()
        RequestHeader(request_id=1, object_key=b"bypass-key",
                      operation="op", principal=b"p").encode()
        RequestHeader(request_id=1, object_key=b"bypass-key",
                      operation="op",
                      service_contexts=[ServiceContext(1, b"x")]).encode()
        after = _request_template.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
