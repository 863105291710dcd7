"""GIOP/IIOP protocol: message formats, service contexts carrying
deposit descriptors, and Interoperable Object References."""

from .ior import IOR, TAG_INTERNET_IOP, IIOPProfile, IORError
from .messages import (GIOP_HEADER_SIZE, GIOP_MAGIC, SVC_CTX_DEPOSIT,
                       SVC_CTX_TRACE, TRACE_CTX_SIZE, CancelRequestHeader,
                       GIOPError, GIOPHeader, GIOPMessage, LocateReplyHeader,
                       LocateRequestHeader, LocateStatus, MsgType,
                       ReplyHeader, ReplyStatus, RequestHeader,
                       ServiceContext, body_offset_for, decode_body,
                       decode_header, decode_trace_context,
                       encode_giop_header, encode_message,
                       encode_trace_context)

__all__ = [
    "GIOP_MAGIC", "GIOP_HEADER_SIZE", "SVC_CTX_DEPOSIT", "SVC_CTX_TRACE",
    "TRACE_CTX_SIZE", "encode_trace_context", "decode_trace_context",
    "MsgType", "ReplyStatus", "LocateStatus",
    "GIOPHeader", "GIOPMessage", "GIOPError", "ServiceContext",
    "RequestHeader", "ReplyHeader", "CancelRequestHeader",
    "LocateRequestHeader", "LocateReplyHeader",
    "encode_message", "encode_giop_header", "decode_header", "decode_body",
    "body_offset_for",
    "IOR", "IIOPProfile", "IORError", "TAG_INTERNET_IOP",
]
