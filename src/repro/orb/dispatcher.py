"""MethodDispatcher: request demultiplexing and servant upcalls.

The server-side path of Fig. 3/4: a received GIOP Request is
demultiplexed (object key -> servant, operation name -> signature), its
parameters demarshaled — by reference for direct-deposited zero-copy
sequences — the servant method invoked through the skeleton, and the
reply marshaled back, with user and system exceptions mapped onto the
GIOP reply status.
"""

from __future__ import annotations

from typing import Optional

from ..cdr import get_marshaller
from ..giop import (SVC_CTX_DEPOSIT, SVC_CTX_TRACE, ReplyHeader, ReplyStatus,
                    RequestHeader)
from ..obs.dtrace import extract_trace_context
from ..obs.stages import (STAGE_DEMARSHAL, STAGE_DEPOSIT_RECV,
                          STAGE_MARSHAL, STAGE_RECV_WAIT)
from .connection import GIOPConn, ReceivedMessage
from .exceptions import (BAD_OPERATION, OBJECT_NOT_EXIST, UNKNOWN,
                         CompletionStatus, SystemException, UserException,
                         encode_system_exception)
from .interceptors import RequestInfo
from .object_adapter import POA, Servant
from .signatures import OperationSignature, Param, ParamMode

__all__ = ["MethodDispatcher"]

from ..cdr.typecode import TC_BOOLEAN, TC_STRING

#: implicit operations every object answers (CORBA::Object pseudo-ops)
_IS_A = OperationSignature(name="_is_a",
                           params=(Param("logical_type_id", ParamMode.IN,
                                         TC_STRING),),
                           result_tc=TC_BOOLEAN)
_NON_EXISTENT = OperationSignature(name="_non_existent",
                                   result_tc=TC_BOOLEAN)
_IMPLICIT = {"_is_a": _IS_A, "_non_existent": _NON_EXISTENT}

#: service-context tags this ORB consumes; anything else in a Request
#: is an unknown (foreign) tag and is echoed on the Reply unmodified
_KNOWN_CTX_TAGS = (SVC_CTX_DEPOSIT, SVC_CTX_TRACE)


def _echo_contexts(req: RequestHeader) -> list:
    """Unknown-tag service contexts to re-emit on every reply."""
    return [sc for sc in req.service_contexts
            if sc.context_id not in _KNOWN_CTX_TAGS]


class MethodDispatcher:
    """Routes requests from connections into servants of one POA."""

    def __init__(self, poa: POA):
        self.poa = poa

    # -- signature lookup ---------------------------------------------------
    def _resolve(self, servant: Servant,
                 operation: str) -> OperationSignature:
        sig = _IMPLICIT.get(operation)
        if sig is None:
            sig = servant._interface().find_operation(operation)
        if sig is None:
            raise BAD_OPERATION(message=(
                f"{servant._interface().name} has no operation "
                f"{operation!r}"))
        return sig

    # -- the upcall ------------------------------------------------------------
    def dispatch(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Handle one Request message end-to-end (including the reply)."""
        req = rm.msg.body_header
        assert isinstance(req, RequestHeader)
        chain = getattr(conn.orb, "interceptors", None) if conn.orb \
            else None
        info = None
        if chain is not None and len(chain):
            info = RequestInfo(operation=req.operation,
                               object_key=req.object_key,
                               request_id=req.request_id,
                               response_expected=req.response_expected)
            chain.run("receive_request", info)
        rec = getattr(conn.orb, "span_producer", None) if conn.orb \
            else None
        span = None
        if rec is not None and rec.enabled:
            # a trace context on the request is joined, whoever sent it
            # (a request without one looks nothing up); the span stays on
            # this thread's stack through the upcall, so the servant's
            # nested outbound calls parent under it.  It owns the
            # request, so it begins with its read and stamps it, from
            # the numbers the read left on the message (a connection
            # without the producer, made before it, has none)
            sink = conn.sink
            span = rec.start_server_span(
                req.operation,
                extract_trace_context(req.service_contexts)
                if req.service_contexts else None, req.request_id,
                None if sink is None else rm.began)
            if sink is not None:
                sink.stamp(STAGE_RECV_WAIT, rm.arrived - rm.began,
                           rm.wire_nbytes)
                sink.stamp(STAGE_DEPOSIT_RECV, rm.landing_s,
                           rm.landed_nbytes)
        try:
            self._dispatch_once(conn, rm, req, chain, info, span)
        finally:
            if span is not None:
                rec.finish(span)

    def _dispatch_once(self, conn: GIOPConn, rm: ReceivedMessage,
                       req: RequestHeader, chain, info, span) -> None:
        echo = _echo_contexts(req) if req.service_contexts else ()
        sig = None
        try:
            servant = self.poa.find_servant(req.object_key)
            if servant is None:
                raise OBJECT_NOT_EXIST(
                    message=f"no servant for key {req.object_key!r}")
            sig = self._resolve(servant, req.operation)
            sink = conn.sink
            dec = rm.params_decoder()
            t0 = sink.clock() if sink is not None else 0.0
            try:
                args = sig.demarshal_request(dec, rm, conn) \
                    if dec is not None else []
            finally:
                if sink is not None:
                    sink.stamp(STAGE_DEMARSHAL, sink.clock() - t0,
                               dec.tell() if dec is not None else 0)
            method = getattr(servant, req.operation, None)
            if method is None or not callable(method):
                raise BAD_OPERATION(message=(
                    f"servant {type(servant).__name__} does not implement "
                    f"{req.operation!r}"))
            value = method(*args)
        except UserException as exc:
            self._notify_reply(chain, info, span, "USER_EXCEPTION")
            self._reply_user_exception(conn, req, exc, sig, echo=echo)
            return
        except SystemException as exc:
            self._notify_reply(chain, info, span, "SYSTEM_EXCEPTION")
            self._reply_system_exception(conn, req, exc, echo=echo)
            return
        except Exception as exc:  # servant bug -> CORBA::UNKNOWN
            self._notify_reply(chain, info, span, "SYSTEM_EXCEPTION")
            self._reply_system_exception(
                conn, req,
                UNKNOWN(completed=CompletionStatus.COMPLETED_MAYBE,
                        message=f"{type(exc).__name__}: {exc}"),
                echo=echo)
            return

        self._notify_reply(chain, info, span, "NO_EXCEPTION")
        if not req.response_expected:
            return
        try:
            t0 = sink.clock() if sink is not None else 0.0
            enc = b""
            try:
                enc, reply_ctx = sig.marshal_reply(conn, value)
            finally:
                if sink is not None:
                    sink.stamp(STAGE_MARSHAL, sink.clock() - t0, len(enc))
            reply = ReplyHeader(request_id=req.request_id,
                                reply_status=ReplyStatus.NO_EXCEPTION,
                                service_contexts=list(echo))
            conn.send_message(reply, enc, reply_ctx)
        except SystemException as exc:
            self._reply_system_exception(conn, req, exc, echo=echo)

    @staticmethod
    def _notify_reply(chain, info, span, status: str) -> None:
        if span is not None:
            span.status = status
        if chain is not None and info is not None:
            info.reply_status = status
            chain.run("send_reply", info)

    # -- exceptional replies ------------------------------------------------------
    def _reply_user_exception(self, conn: GIOPConn, req: RequestHeader,
                              exc: UserException,
                              sig: Optional[OperationSignature],
                              echo=()) -> None:
        if not req.response_expected:
            return
        tc = sig.exception_tc_for(exc) if sig is not None else None
        if tc is None:
            # undeclared user exception: contractually a system UNKNOWN
            self._reply_system_exception(
                conn, req,
                UNKNOWN(completed=CompletionStatus.COMPLETED_YES,
                        message=f"undeclared exception {type(exc).__name__}"),
                echo=echo)
            return
        enc = conn.body_encoder()
        get_marshaller(tc).marshal(enc, exc, conn.make_marshal_context())
        reply = ReplyHeader(request_id=req.request_id,
                            reply_status=ReplyStatus.USER_EXCEPTION,
                            service_contexts=list(echo))
        conn.send_message(reply, enc)

    def _reply_system_exception(self, conn: GIOPConn, req: RequestHeader,
                                exc: SystemException, echo=()) -> None:
        if not req.response_expected:
            return
        enc = conn.body_encoder()
        encode_system_exception(enc, exc)
        reply = ReplyHeader(request_id=req.request_id,
                            reply_status=ReplyStatus.SYSTEM_EXCEPTION,
                            service_contexts=list(echo))
        conn.send_message(reply, enc)
