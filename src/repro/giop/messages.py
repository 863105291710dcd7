"""GIOP message formats (General Inter-ORB Protocol).

Implements the GIOP 1.0/1.1 message set used by IIOP: the 12-byte
message header and the Request / Reply / CancelRequest / LocateRequest
/ LocateReply / CloseConnection / MessageError / Fragment bodies, all
encoded in CDR.

The paper's optimization stays wire-compatible ("the ORB-to-ORB
communication remains fully CORBA compliant", §2): deposit descriptors
ride in the standard *service context* of Request/Reply headers under a
private context id, which compliant peers may ignore.  The GIOP flags
octet carries the sender's byte order — the architecture negotiation
(§2.1) the marshaling bypass relies on.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from ..cdr import NATIVE_LITTLE, CDRDecoder
from ..cdr.encoder import SG_MIN_CHUNK
from ..core.direct_deposit import DEPOSIT_MAGIC, DepositDescriptor

__all__ = [
    "GIOP_MAGIC", "GIOP_HEADER_SIZE", "MsgType", "ReplyStatus",
    "LocateStatus", "GIOPHeader", "ServiceContext",
    "SVC_CTX_DEPOSIT", "SVC_CTX_TRACE", "TRACE_CTX_SIZE",
    "encode_trace_context", "decode_trace_context",
    "RequestHeader", "ReplyHeader", "CancelRequestHeader",
    "LocateRequestHeader", "LocateReplyHeader",
    "frame_message", "encode_message", "encode_giop_header",
    "decode_header", "decode_body",
    "GIOPError",
]

GIOP_MAGIC = b"GIOP"
GIOP_HEADER_SIZE = 12

#: service-context id carrying direct-deposit descriptors (vendor range)
SVC_CTX_DEPOSIT = DEPOSIT_MAGIC

#: service-context id carrying the distributed-tracing context, in the
#: same private vendor range as the deposit tag.  Compliant peers that
#: do not understand it simply ignore (and, as interop demands,
#: preserve) the entry.
SVC_CTX_TRACE = DEPOSIT_MAGIC + 1

#: W3C-traceparent-style binary layout: version octet, 16-byte trace
#: id, 8-byte span id, flags octet (bit 0 = sampled)
TRACE_CTX_SIZE = 26


def encode_trace_context(trace_id: bytes, span_id: bytes,
                         sampled: bool = True) -> bytes:
    """Pack a trace context into its service-context payload."""
    if len(trace_id) != 16:
        raise GIOPError(f"trace id must be 16 bytes, got {len(trace_id)}")
    if len(span_id) != 8:
        raise GIOPError(f"span id must be 8 bytes, got {len(span_id)}")
    return b"\x00" + trace_id + span_id + (b"\x01" if sampled else b"\x00")


def decode_trace_context(data) -> tuple:
    """Unpack a trace-context payload -> (trace_id, span_id, sampled).

    Future versions may append fields, so trailing bytes are tolerated;
    a higher version octet is not.
    """
    raw = bytes(data)
    if len(raw) < TRACE_CTX_SIZE:
        raise GIOPError(f"short trace context: {len(raw)} bytes")
    if raw[0] != 0:
        raise GIOPError(f"unsupported trace context version {raw[0]}")
    return raw[1:17], raw[17:25], bool(raw[25] & 0x01)

#: GIOP flags bit 1: more fragments follow (GIOP 1.1)
FLAG_MORE_FRAGMENTS = 0x02


class GIOPError(ValueError):
    """Malformed GIOP message."""


class MsgType(enum.IntEnum):
    Request = 0
    Reply = 1
    CancelRequest = 2
    LocateRequest = 3
    LocateReply = 4
    CloseConnection = 5
    MessageError = 6
    Fragment = 7


class ReplyStatus(enum.IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


class LocateStatus(enum.IntEnum):
    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


class _Order:
    """The compiled header layouts of one wire byte order."""

    __slots__ = ("giop", "u32", "u32x2", "request_fixed", "reply_plain")

    def __init__(self, prefix: str):
        #: magic, major, minor, flags, type, size
        self.giop = struct.Struct(prefix + "4sBBBBI")
        self.u32 = struct.Struct(prefix + "I")
        #: (context id, length) of a service context; (id, status) of
        #: Reply / LocateReply; (id, key length) of LocateRequest
        self.u32x2 = struct.Struct(prefix + "II")
        #: request id, response_expected + 3 pad, object-key length
        self.request_fixed = struct.Struct(prefix + "IB3xI")
        #: a Reply with no service context: count 0, request id, status
        self.reply_plain = struct.Struct(prefix + "III")


#: keyed by ``little_endian``
_ORDERS = {True: _Order("<"), False: _Order(">")}

#: parameter data starts on a multiple of this, counted from the start
#: of the body: GIOP 1.2's rule, kept for 1.0 / 1.1 too (DESIGN.md §6)
_BODY_ALIGN = 8
_PAD = b"\x00" * _BODY_ALIGN

# value -> member: a dict probe instead of ``Enum.__call__`` per message
_MSG_TYPES = {int(m): m for m in MsgType}
_REPLY_STATUSES = {int(s): s for s in ReplyStatus}
_LOCATE_STATUSES = {int(s): s for s in LocateStatus}

#: a service-context list longer than this is a framing error, not a
#: message (the count is attacker-controlled)
_MAX_CONTEXTS = 4096

#: the largest control message a peer may send: a GIOP header's size,
#: and a reassembled fragment chain's.  Four times the largest one sent
#: here (a 16 MiB inline ``repro-ttcp --mode real`` block); a peer that
#: claims more is refused before a byte of its body is asked for
MAX_MESSAGE_SIZE = 64 * 1024 * 1024

#: the most one message's deposit descriptors may add up to: four times
#: the largest deposit sent here (the 64 MiB upload of
#: ``examples/quickstart.py``); checked before a landing buffer exists
MAX_DEPOSIT_NBYTES = 256 * 1024 * 1024


def encode_giop_header(msg_type: MsgType, size: int,
                       little_endian: bool = NATIVE_LITTLE,
                       more_fragments: bool = False,
                       major: int = 1, minor: int = 1) -> bytes:
    """The 12 header bytes framing a ``size``-byte body (what
    :meth:`GIOPHeader.encode` emits, without building the object)."""
    flags = (0x01 if little_endian else 0x00) | (
        FLAG_MORE_FRAGMENTS if more_fragments else 0x00)
    return _ORDERS[little_endian].giop.pack(
        GIOP_MAGIC, major, minor, flags, msg_type, size)


@dataclass(frozen=True)
class GIOPHeader:
    """The fixed 12-byte GIOP message header."""

    msg_type: MsgType
    size: int
    little_endian: bool = NATIVE_LITTLE
    major: int = 1
    minor: int = 1
    more_fragments: bool = False

    def encode(self) -> bytes:
        return encode_giop_header(self.msg_type, self.size,
                                  self.little_endian, self.more_fragments,
                                  self.major, self.minor)

    @classmethod
    def decode(cls, data) -> "GIOPHeader":
        """Parse the first 12 bytes of ``data`` (any byte buffer)."""
        try:
            magic, major, minor, flags, mtype, size = \
                _ORDERS[True].giop.unpack_from(data)
        except struct.error:
            raise GIOPError(
                f"short GIOP header: {len(data)} bytes") from None
        if magic != GIOP_MAGIC:
            raise GIOPError(f"bad GIOP magic {magic!r}")
        if major != 1:
            raise GIOPError(f"unsupported GIOP major version {major}")
        little = bool(flags & 0x01)
        if not little:
            (size,) = _ORDERS[False].u32.unpack_from(data, 8)
        msg_type = _MSG_TYPES.get(mtype)
        if msg_type is None:
            raise GIOPError(f"unknown GIOP message type {mtype}")
        if size > MAX_MESSAGE_SIZE:
            raise GIOPError(f"message of {size} bytes is over the "
                            f"{MAX_MESSAGE_SIZE}-byte bound")
        return cls(msg_type, size, little, major, minor,
                   bool(flags & FLAG_MORE_FRAGMENTS))


@dataclass
class ServiceContext:
    """One (context-id, data) entry of a service context list."""

    context_id: int
    data: bytes

    @classmethod
    def for_deposit(cls, desc: DepositDescriptor) -> "ServiceContext":
        return cls(context_id=SVC_CTX_DEPOSIT, data=desc.encode())

    def as_deposit(self) -> Optional[DepositDescriptor]:
        if self.context_id != SVC_CTX_DEPOSIT:
            return None
        return DepositDescriptor.decode(self.data)


# -- the header codec ---------------------------------------------------------
#
# Body headers are CDR-encoded relative to the start of the message
# body (offset 0 just after the 12-byte GIOP header), so every field
# offset below is an absolute body offset and ulongs sit on multiples
# of 4.  ``encode`` returns the header as a fresh ``bytearray`` the
# connection extends in place; ``decode`` takes the body as a
# byte-format ``memoryview`` and returns ``(header, params_offset)``.
# A field running past the body surfaces as ``struct.error`` (fixed
# fields) or :func:`_underrun` (variable ones); :func:`decode_body`
# maps both to :class:`GIOPError`.

def _underrun(end: int, size: int) -> GIOPError:
    return GIOPError(f"underrun: field ends at {end}, body has {size}")


def _put_contexts(order: _Order,
                  contexts: List[ServiceContext]) -> bytearray:
    """Count plus entries, padded for the ulong that follows."""
    out = bytearray(order.u32.pack(len(contexts)))
    for sc in contexts:
        data = sc.data
        if not isinstance(data, (bytes, bytearray)):
            data = bytes(data)
        out += order.u32x2.pack(sc.context_id, len(data))
        out += data
        out += _PAD[:-len(out) & 3]
    return out


#: body offset of the field after an empty service-context list
_AFTER_NO_CONTEXTS = 4


def _get_contexts(order: _Order, view: memoryview, n: int
                  ) -> Tuple[List[ServiceContext], int]:
    """The ``n`` service contexts that follow the count at body offset
    0 -> (list, offset of the ulong after them)."""
    if n > _MAX_CONTEXTS:
        raise GIOPError(f"implausible service context count {n}")
    contexts = []
    pos = _AFTER_NO_CONTEXTS
    size = len(view)
    for _ in range(n):
        context_id, length = order.u32x2.unpack_from(view, pos)
        pos += 8
        end = pos + length
        if end > size:
            raise _underrun(end, size)
        contexts.append(ServiceContext(context_id, bytes(view[pos:end])))
        pos = (end + 3) & ~3
    return contexts, pos


def _deposit_descriptors(contexts: List[ServiceContext]
                         ) -> List[DepositDescriptor]:
    return [desc for desc in map(ServiceContext.as_deposit, contexts)
            if desc is not None]


@lru_cache(maxsize=1024)
def _request_template(little_endian: bool, object_key: bytes,
                      operation: str, response_expected: bool) -> bytes:
    """The context-less Request header of one operation on one object,
    request id zeroed.  Two calls differ only in that id, so the stub
    path copies this and patches four bytes.  Bounded: an application
    cycling through more (object, operation) pairs than the table
    holds re-encodes the evicted ones, nothing else."""
    return bytes(RequestHeader(0, object_key, operation, response_expected)
                 ._encode_full(_ORDERS[little_endian]))




@dataclass
class RequestHeader:
    """GIOP 1.0 RequestHeader."""

    request_id: int
    object_key: bytes
    operation: str
    response_expected: bool = True
    service_contexts: List[ServiceContext] = field(default_factory=list)
    principal: bytes = b""

    MSG_TYPE = MsgType.Request

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytearray:
        order = _ORDERS[little_endian]
        if self.service_contexts or self.principal:
            return self._encode_full(order)
        out = bytearray(_request_template(
            little_endian, self.object_key, self.operation,
            self.response_expected))
        order.u32.pack_into(out, _AFTER_NO_CONTEXTS, self.request_id)
        return out

    def _encode_full(self, order: _Order) -> bytearray:
        out = _put_contexts(order, self.service_contexts)
        key = self.object_key
        out += order.request_fixed.pack(
            self.request_id, 1 if self.response_expected else 0, len(key))
        out += key
        out += _PAD[:-len(out) & 3]
        operation = self.operation.encode("utf-8")
        out += order.u32.pack(len(operation) + 1)
        out += operation
        out += b"\x00"
        out += _PAD[:-len(out) & 3]
        out += order.u32.pack(len(self.principal))
        out += self.principal
        return out

    @classmethod
    def decode(cls, view: memoryview, little_endian: bool
               ) -> Tuple["RequestHeader", int]:
        order = _ORDERS[little_endian]
        size = len(view)
        (n,) = order.u32.unpack_from(view, 0)
        contexts, pos = _get_contexts(order, view, n) if n \
            else ([], _AFTER_NO_CONTEXTS)
        request_id, response_expected, key_len = \
            order.request_fixed.unpack_from(view, pos)
        pos += 12
        end = pos + key_len
        if end > size:
            raise _underrun(end, size)
        object_key = bytes(view[pos:end])
        pos = (end + 3) & ~3
        (op_len,) = order.u32.unpack_from(view, pos)
        pos += 4
        end = pos + op_len
        if op_len == 0:
            raise GIOPError("operation name with zero length (missing NUL)")
        if end > size:
            raise _underrun(end, size)
        if view[end - 1] != 0:
            raise GIOPError("operation name not NUL-terminated")
        operation = str(view[pos:end - 1], "utf-8")
        pos = (end + 3) & ~3
        (principal_len,) = order.u32.unpack_from(view, pos)
        pos += 4
        end = pos + principal_len
        if end > size:
            raise _underrun(end, size)
        return cls(request_id, object_key, operation,
                   bool(response_expected), contexts,
                   bytes(view[pos:end])), end

    def deposit_descriptors(self) -> List[DepositDescriptor]:
        return _deposit_descriptors(self.service_contexts)


@dataclass
class ReplyHeader:
    request_id: int
    reply_status: ReplyStatus
    service_contexts: List[ServiceContext] = field(default_factory=list)

    MSG_TYPE = MsgType.Reply

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytearray:
        order = _ORDERS[little_endian]
        if not self.service_contexts:
            return bytearray(order.reply_plain.pack(
                0, self.request_id, self.reply_status))
        out = _put_contexts(order, self.service_contexts)
        out += order.u32x2.pack(self.request_id, self.reply_status)
        return out

    @classmethod
    def decode(cls, view: memoryview, little_endian: bool
               ) -> Tuple["ReplyHeader", int]:
        order = _ORDERS[little_endian]
        (n,) = order.u32.unpack_from(view, 0)
        contexts, pos = _get_contexts(order, view, n) if n \
            else ([], _AFTER_NO_CONTEXTS)
        request_id, status = order.u32x2.unpack_from(view, pos)
        reply_status = _REPLY_STATUSES.get(status)
        if reply_status is None:
            raise GIOPError(f"unknown reply status {status}")
        return cls(request_id, reply_status, contexts), pos + 8

    def deposit_descriptors(self) -> List[DepositDescriptor]:
        return _deposit_descriptors(self.service_contexts)


@dataclass
class CancelRequestHeader:
    request_id: int

    MSG_TYPE = MsgType.CancelRequest

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytearray:
        return bytearray(_ORDERS[little_endian].u32.pack(self.request_id))

    @classmethod
    def decode(cls, view: memoryview, little_endian: bool
               ) -> Tuple["CancelRequestHeader", int]:
        (request_id,) = _ORDERS[little_endian].u32.unpack_from(view, 0)
        return cls(request_id), 4


@dataclass
class LocateRequestHeader:
    request_id: int
    object_key: bytes

    MSG_TYPE = MsgType.LocateRequest

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytearray:
        out = bytearray(_ORDERS[little_endian].u32x2.pack(
            self.request_id, len(self.object_key)))
        out += self.object_key
        return out

    @classmethod
    def decode(cls, view: memoryview, little_endian: bool
               ) -> Tuple["LocateRequestHeader", int]:
        request_id, key_len = \
            _ORDERS[little_endian].u32x2.unpack_from(view, 0)
        end = 8 + key_len
        if end > len(view):
            raise _underrun(end, len(view))
        return cls(request_id, bytes(view[8:end])), end


@dataclass
class LocateReplyHeader:
    request_id: int
    locate_status: LocateStatus

    MSG_TYPE = MsgType.LocateReply

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytearray:
        return bytearray(_ORDERS[little_endian].u32x2.pack(
            self.request_id, self.locate_status))

    @classmethod
    def decode(cls, view: memoryview, little_endian: bool
               ) -> Tuple["LocateReplyHeader", int]:
        request_id, status = \
            _ORDERS[little_endian].u32x2.unpack_from(view, 0)
        locate_status = _LOCATE_STATUSES.get(status)
        if locate_status is None:
            raise GIOPError(f"unknown locate status {status}")
        return cls(request_id, locate_status), 8


_HEADER_CLASSES = {
    MsgType.Request: RequestHeader,
    MsgType.Reply: ReplyHeader,
    MsgType.CancelRequest: CancelRequestHeader,
    MsgType.LocateRequest: LocateRequestHeader,
    MsgType.LocateReply: LocateReplyHeader,
}


# -- the message codec --------------------------------------------------------
#
# The one statement of how a body header and its parameters become a
# message, and back.  The parameters start 8-aligned relative to the body
# (``_BODY_ALIGN``), and only when there are any: a message without
# parameters ends with its body header.

def frame_message(body_header, param_chunks: list, params_nbytes: int,
                  little_endian: bool = NATIVE_LITTLE,
                  fragment_size: int = 0) -> Tuple[list, int, int]:
    """GIOP-frame ``body_header`` and its marshaled parameters ->
    ``(chunks, n_fragments, body_nbytes)``: the gather list a stream
    writes as is, how many GIOP messages it holds (GIOP 1.1 fragments
    past ``fragment_size`` body bytes; 0 never fragments), and the body
    size they carry in all.

    ``param_chunks`` is a chunk plan (:meth:`CDREncoder.chunks`) of
    ``params_nbytes`` bytes in all.  Parameters smaller than
    ``SG_MIN_CHUNK`` in one piece are copied behind the body header, one
    contiguous control buffer instead of an iovec entry; anything else
    rides by reference.  Fragmentation *walks* the plan, slicing
    ``memoryview`` windows at the fragment boundaries: the pieces alias
    the caller's chunks, so no body is joined into a staging blob.
    """
    head = body_header.encode(little_endian)
    if params_nbytes:
        head += _PAD[:-len(head) & (_BODY_ALIGN - 1)]
        body_nbytes = len(head) + params_nbytes
        if len(param_chunks) == 1 and params_nbytes < SG_MIN_CHUNK:
            head += param_chunks[0]
            param_chunks = []
    else:
        body_nbytes = len(head)
    msg_type = body_header.MSG_TYPE
    if not fragment_size or body_nbytes <= fragment_size:
        return [encode_giop_header(msg_type, body_nbytes, little_endian),
                head, *param_chunks], 1, body_nbytes
    views = [c if isinstance(c, memoryview) else memoryview(c)
             for c in (head, *param_chunks)]
    views = [v.cast("B") if (v.format != "B" or v.ndim != 1) else v
             for v in views]
    # per-fragment chunk lists: each fragment takes up to
    # fragment_size bytes, cutting chunks with zero-copy slices
    fragments: List[list] = [[]]
    room = fragment_size
    for v in views:
        while v.nbytes:
            if room == 0:
                fragments.append([])
                room = fragment_size
            take = min(room, v.nbytes)
            fragments[-1].append(v[:take])
            v = v[take:]
            room -= take
    chunks: list = []
    for i, pieces in enumerate(fragments):
        chunks.append(encode_giop_header(
            msg_type if i == 0 else MsgType.Fragment,
            sum(p.nbytes for p in pieces), little_endian,
            more_fragments=i < len(fragments) - 1))
        chunks.extend(pieces)
    return chunks, len(fragments), body_nbytes


def encode_message(body_header, params: bytes = b"",
                   little_endian: bool = NATIVE_LITTLE) -> bytes:
    """One complete GIOP message, as :func:`frame_message` frames it
    (and so as ``GIOPConn.send_message`` writes it).

    ``body_header`` is a typed header object (or a bare
    :class:`MsgType` for header-less messages like CloseConnection);
    ``params`` is the parameter data, CDR-encoded from an 8-aligned
    offset 0.
    """
    if isinstance(body_header, MsgType):
        return encode_giop_header(body_header, 0, little_endian)
    chunks, _, _ = frame_message(body_header, [params] if params else [],
                                 len(params), little_endian)
    return b"".join(chunks)


def decode_header(data) -> GIOPHeader:
    return GIOPHeader.decode(data)


def decode_body(header: GIOPHeader, body) -> tuple:
    """Decode the typed body header -> ``(body_header, decoder)``, the
    decoder aligned at the parameters; ``(None, None)`` for a message
    type without a body header.

    ``header.size`` bounds the parse, not the buffer handed in, unless
    more fragments follow ``header``: then ``body`` is the reassembled
    chain, and all of it is the body.
    """
    view = memoryview(body)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    if len(view) < header.size:
        raise GIOPError(
            f"truncated GIOP body: {len(view)} < {header.size}")
    cls = _HEADER_CLASSES.get(header.msg_type)
    if cls is None:
        return None, None
    if len(view) > header.size and not header.more_fragments:
        view = view[:header.size]
    try:
        body_header, params_at = cls.decode(view, header.little_endian)
    except GIOPError as e:
        raise GIOPError(f"bad {header.msg_type.name} header: {e}") from e
    except (struct.error, UnicodeDecodeError) as e:
        raise GIOPError(
            f"bad {header.msg_type.name} header: underrun or bad "
            f"operation name ({e})") from e
    dec = CDRDecoder(view, little_endian=header.little_endian)
    if params_at < len(view):
        # a pad cut short leaves the decoder at the end, for the
        # parameters' demarshal to find nothing there
        params_at = min(len(view),
                        (params_at + _BODY_ALIGN - 1) & -_BODY_ALIGN)
    dec.seek(params_at)
    return body_header, dec
