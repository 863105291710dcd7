"""IIOPProxy: the client-side invocation path.

The class mirrors MICO's ``IIOPProxy`` (Fig. 3): a static invocation
arrives from the stub, parameters are marshaled — or, for zero-copy
sequences, registered for deposit (§4.4) — a GIOP Request is written,
and the matching Reply demarshaled into results or raised exceptions.

On top of that sits the resilience layer (:mod:`repro.orb.policy`): the
proxy owns one logical connection to its endpoint, reconnecting the
underlying ``GIOPConn`` when the stream dies, retrying failed attempts
within the policy's budget (backoff + seeded jitter), and enforcing the
request deadline — which surfaces as the ``TIMEOUT`` system exception
with a completion status the client can trust.  Each retry re-marshals
from the original arguments, which re-registers any pending
direct-deposit payloads on the fresh connection; after an attempt whose
deposit payload was interrupted mid-stream, the retry falls back to the
copy path so zero-copy never compromises delivery (§4.4's regime is an
optimisation, not a correctness requirement).

Concurrency model: invocations are **pipelined**.  GIOP matches replies
to requests by ``request_id``, so any number of threads (and
``AsyncInvoker`` workers) share this proxy's single connection with
overlapped in-flight requests.  Each call registers a
:class:`~repro.orb.demux.ReplyFuture` with the connection's
:class:`~repro.orb.demux.ReplyDemux` before sending; only the socket
write itself is serialized (``GIOPConn._send_lock`` keeps the
control/deposit split atomic per message).  A deadline expiry abandons
only its own future — the connection stays up and a late reply is
dropped as stale — while a connection-fatal error fails every in-flight
future with the appropriate CORBA system exception.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from ..giop import ReplyHeader, ReplyStatus, RequestHeader
from ..obs.events import stage_span
from ..obs.stages import STAGE_DEMARSHAL, STAGE_MARSHAL
from ..transport.base import TransportError, TransportTimeout
from .connection import ConnStats, GIOPConn, ReceivedMessage
from .demux import ReplyDemux, ReplyFuture
from .exceptions import (COMM_FAILURE, INTERNAL, MARSHAL, TIMEOUT, TRANSIENT,
                         CompletionStatus, UserException,
                         decode_system_exception)
from .policy import NO_RETRY, Deadline, InvocationPolicy
from .signatures import OperationSignature

__all__ = ["IIOPProxy"]

#: a zero-arg factory producing a fresh, connected GIOPConn
Connector = Callable[[], GIOPConn]


def _abandon_sent(send_fut) -> None:
    """Done-callback for a send whose awaiter was cancelled mid-hop:
    retire whatever registration the executor made (demux.abandon is
    idempotent, so racing the executor's own state.abandoned check is
    harmless)."""
    if send_fut.cancelled() or send_fut.exception() is not None:
        return
    _conn, demux, future = send_fut.result()
    if future is not None:
        demux.abandon(future)


class _Attempt:
    """Per-attempt state.  One invoke() may run several attempts, and
    several invokes run concurrently, so this cannot live on the proxy."""

    __slots__ = ("had_deposits", "abandoned")

    def __init__(self):
        self.had_deposits = False
        self.abandoned = False


class IIOPProxy:
    """Pipelined request/reply engine over one (logical) GIOPConn."""

    def __init__(self, conn: Union[GIOPConn, Connector],
                 policy: Optional[InvocationPolicy] = None,
                 orb=None, reactor=None):
        if isinstance(conn, GIOPConn):
            self._conn: Optional[GIOPConn] = conn
            self._connector: Optional[Connector] = None
            self._stats = conn.stats
        else:
            self._conn = None
            self._connector = conn
            self._stats = ConnStats()
        self.policy = policy
        #: the event-loop reactor handed to each ReplyDemux: adoptable
        #: connections get no reader thread.  None = threaded demux.
        self._reactor = reactor
        #: the owning ORB (for tracers/interceptors); falls back to the
        #: connection's ORB when constructed around a live GIOPConn
        self._orb = orb
        #: guards the conn/demux *lifecycle* (dial, reconnect) — never
        #: held across a send or a reply wait
        self._conn_lock = threading.Lock()
        self._demux: Optional[ReplyDemux] = None

    # -- connection management -----------------------------------------------
    @property
    def conn(self) -> GIOPConn:
        """The live connection, dialing lazily on first use."""
        return self._ensure_conn()[0]

    @property
    def stats(self) -> ConnStats:
        """Cumulative stats across every connection this proxy used."""
        return self._stats

    @property
    def calls(self) -> int:
        """Invocation attempts that reached the wire (plus LocateRequest
        probes): the messages this proxy sent.  Read off the shared
        :class:`ConnStats`, which counts under the connection's send
        lock — a counter of its own, bumped by pipelining callers
        without one, lost increments."""
        return self._stats.messages_sent

    def _ensure_conn(self) -> Tuple[GIOPConn, ReplyDemux]:
        """The live (conn, demux) pair, dialing or replacing a dead
        connection.  Concurrent callers race benignly: whoever gets the
        lock first dials; the rest reuse the result."""
        with self._conn_lock:
            conn = self._conn
            if conn is not None and not conn.closed:
                if self._demux is None:
                    # proxy constructed around a live GIOPConn: adopt it
                    self._demux = ReplyDemux(conn, reactor=self._reactor)
                    self._demux.start()
                return conn, self._demux
            replacing = conn is not None
            if conn is not None:
                conn.close()
                self._conn = None
                self._demux = None
            conn = self._dial()
            demux = ReplyDemux(conn, reactor=self._reactor)
            self._conn = conn
            self._demux = demux
            if replacing:
                self._stats.reconnects += 1
            demux.start()
            return conn, demux

    def _dial(self) -> GIOPConn:
        if self._connector is None:
            raise COMM_FAILURE(
                completed=CompletionStatus.COMPLETED_NO,
                message="connection closed and proxy has no connector")
        try:
            conn = self._connector()
        except TransportTimeout as e:
            # the dial deadline (ORBConfig.connect_timeout) expired: no
            # request was ever sent, so COMPLETED_NO is honest and the
            # call is safely retryable — TRANSIENT, like any other
            # failure to establish the connection
            self._stats.timeouts += 1
            raise TRANSIENT(completed=CompletionStatus.COMPLETED_NO,
                            message=f"connect timed out: {e}") from e
        except TransportError as e:
            raise TRANSIENT(completed=CompletionStatus.COMPLETED_NO,
                            message=f"connect failed: {e}") from e
        conn.adopt_stats(self._stats)
        return conn

    def reconnect(self) -> GIOPConn:
        """Tear down the current connection and dial a replacement; the
        shared ConnStats rides along."""
        with self._conn_lock:
            if self._conn is not None:
                self._conn.close()
        # _ensure_conn sees the dead conn and replaces it (counting the
        # reconnect); with no conn at all this is just the first dial
        return self._ensure_conn()[0]

    def close(self, timeout: float = 1.0) -> None:
        """Close the connection politely and join the demux reader
        thread (bounded) — ``ORB.shutdown`` calls this so the thread
        count returns to baseline."""
        with self._conn_lock:
            conn, demux = self._conn, self._demux
            self._conn = None
            self._demux = None
        if conn is not None:
            conn.send_close()
        if demux is not None:
            demux.close(timeout)
        elif conn is not None:
            conn.close()

    def _orb_hooks(self) -> tuple:
        """``(tracer, flight recorder, interceptor chain)`` of the
        owning ORB, each ``None`` when absent, switched off or empty —
        one resolution per invocation, and never a dial."""
        orb = self._orb
        if orb is None and self._conn is not None:
            orb = self._conn.orb
        if orb is None:
            return None, None, None
        rec = getattr(orb, "flightrec", None)
        if rec is not None and not rec.enabled:
            rec = None
        chain = getattr(orb, "interceptors", None)
        if chain is not None and not len(chain):
            chain = None
        return getattr(orb, "dtracer", None), rec, chain

    # -- invocation ----------------------------------------------------------
    def invoke(self, object_key: bytes, sig: OperationSignature,
               args: Sequence[Any],
               policy: Optional[InvocationPolicy] = None) -> Any:
        """One static invocation under the effective policy: marshal,
        send, await reply, demarshal — with deadline, retry budget and
        deposit fallback applied around the attempt.  Any number of
        threads may invoke through one proxy concurrently; their
        requests pipeline on the shared connection."""
        policy = policy or self.policy or NO_RETRY
        deadline = policy.start_deadline()
        attempt = 0
        force_copy = False
        tracer, rec, chain = self._orb_hooks()
        # the trace identity of this logical call is fixed here, before
        # the retry loop: every attempt below shares the trace id but
        # opens a fresh span, so retries are distinguishable on the wire
        scope = tracer.begin_invocation() if tracer is not None else None
        # the flight recorder mirrors the tracer's lifecycle but stays
        # process-local: its spans never touch the wire
        rec_scope = rec.begin_invocation() if rec is not None else None
        while True:
            if deadline is not None and deadline.expired:
                self._stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_NO,
                    message=(f"deadline of {policy.timeout}s expired "
                             f"before the request was sent"))
            state = _Attempt()
            try:
                return self._invoke_once(object_key, sig, args,
                                         deadline, force_copy, state,
                                         tracer, scope, rec, rec_scope,
                                         chain)
            except (TRANSIENT, COMM_FAILURE) as exc:
                if attempt >= policy.max_retries or \
                        not policy.retryable(exc, sig.idempotent):
                    raise
                if deadline is not None and deadline.expired:
                    # retry would be futile; report the deadline,
                    # carrying the completion status we actually know
                    self._stats.timeouts += 1
                    raise TIMEOUT(
                        completed=exc.completed,
                        message=(f"deadline of {policy.timeout}s "
                                 f"expired after "
                                 f"{attempt + 1} attempt(s): "
                                 f"{exc.message}")) from exc
                if state.had_deposits and not force_copy:
                    # a deposit payload died mid-stream: degrade to
                    # the copy path so the retry cannot be bitten by
                    # the same data-path failure
                    force_copy = True
                    self._stats.deposit_fallbacks += 1
                delay = policy.backoff(attempt)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline.remaining))
                if delay > 0:
                    policy.sleep(delay)
                attempt += 1
                self._stats.retries += 1

    # -- async invocation ----------------------------------------------------
    async def invoke_async(self, object_key: bytes, sig: OperationSignature,
                           args: Sequence[Any],
                           policy: Optional[InvocationPolicy] = None) -> Any:
        """Coroutine twin of :meth:`invoke`: the same deadline, retry
        budget, and deposit-fallback semantics, but the reply wait is an
        asyncio future — thousands of calls can be in flight on one
        awaiting task with no thread per call.

        Runs on *any* running event loop (the caller's ``asyncio.run``
        loop or a reactor shard).  Blocking pieces — the dial, the
        marshal+send, an injectable ``policy.sleep`` — hop through the
        loop's default executor so the loop itself never blocks.
        Interceptor chains and distributed-tracer spans are a sync-path
        feature; the async path skips them (DESIGN.md §15).
        """
        policy = policy or self.policy or NO_RETRY
        deadline = policy.start_deadline()
        attempt = 0
        force_copy = False
        loop = asyncio.get_running_loop()
        while True:
            if deadline is not None and deadline.expired:
                self._stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_NO,
                    message=(f"deadline of {policy.timeout}s expired "
                             f"before the request was sent"))
            state = _Attempt()
            try:
                return await self._invoke_once_async(
                    loop, object_key, sig, args, deadline, force_copy,
                    state)
            except (TRANSIENT, COMM_FAILURE) as exc:
                if attempt >= policy.max_retries or \
                        not policy.retryable(exc, sig.idempotent):
                    raise
                if deadline is not None and deadline.expired:
                    self._stats.timeouts += 1
                    raise TIMEOUT(
                        completed=exc.completed,
                        message=(f"deadline of {policy.timeout}s "
                                 f"expired after "
                                 f"{attempt + 1} attempt(s): "
                                 f"{exc.message}")) from exc
                if state.had_deposits and not force_copy:
                    force_copy = True
                    self._stats.deposit_fallbacks += 1
                delay = policy.backoff(attempt)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline.remaining))
                if delay > 0:
                    # the policy's sleep is injectable (tests replace
                    # it); honor the injection without stalling the loop
                    await loop.run_in_executor(None, policy.sleep, delay)
                attempt += 1
                self._stats.retries += 1

    async def _invoke_once_async(self, loop, object_key: bytes,
                                 sig: OperationSignature,
                                 args: Sequence[Any],
                                 deadline: Optional[Deadline],
                                 force_copy: bool, state: _Attempt) -> Any:
        send_fut = loop.run_in_executor(
            None, self._send_attempt_sync, object_key, sig, args,
            force_copy, state)
        try:
            conn, demux, future = await asyncio.shield(send_fut)
        except asyncio.CancelledError:
            # the executor send outlives the cancellation — it may
            # already have registered (or even received) the reply.
            # Mark the attempt abandoned so the executor thread cleans
            # up after itself, and hook the wrapper future for the case
            # where the send finished before the flag was visible;
            # demux.abandon is idempotent, so both firing is fine.
            state.abandoned = True
            send_fut.add_done_callback(_abandon_sent)
            raise
        if future is None:  # oneway: the send is the whole call
            return None
        rm = await self._await_reply_async(loop, conn, demux, future,
                                           deadline)
        return self._process_reply(conn, sig, rm)

    def _send_attempt_sync(self, object_key: bytes,
                           sig: OperationSignature, args: Sequence[Any],
                           force_copy: bool, state: _Attempt):
        """Dial-marshal-register-send, on an executor thread: every
        piece that may block (connect, socket write) or hold the send
        lock stays off the event loop."""
        conn, demux = self._ensure_conn()
        with stage_span(conn.sink, STAGE_MARSHAL) as span:
            ctx = conn.make_marshal_context(force_copy=force_copy)
            enc = conn.body_encoder()
            sig.marshal_request(enc, args, ctx)
            span.add_bytes(enc.nbytes)
        state.had_deposits = bool(ctx.descriptors)
        request = RequestHeader(
            request_id=conn.next_request_id(),
            object_key=object_key,
            operation=sig.name,
            response_expected=not sig.oneway,
        )
        future = demux.register(request.request_id) \
            if not sig.oneway else None
        try:
            conn.send_message(request, enc, ctx)
        except BaseException:
            if future is not None:
                demux.discard(request.request_id)
            raise
        if future is not None and state.abandoned:
            # the awaiting task was cancelled while we were sending:
            # nobody will ever collect this reply, so retire it here,
            # on a thread that needs no event loop
            demux.abandon(future)
        return conn, demux, future

    async def _await_reply_async(self, loop, conn: GIOPConn,
                                 demux: ReplyDemux, future: ReplyFuture,
                                 deadline: Optional[Deadline]
                                 ) -> ReceivedMessage:
        """Await this call's future without a thread: the demux (reader
        thread or reactor) completes it, a done-callback wakes us via
        ``call_soon_threadsafe``."""
        afut = loop.create_future()

        def _wake(_fut) -> None:
            def _set() -> None:
                if not afut.done():
                    afut.set_result(None)
            try:
                loop.call_soon_threadsafe(_set)
            except RuntimeError:
                pass  # caller's loop already closed; nobody is waiting

        future.add_done_callback(_wake)
        timeout = None if deadline is None \
            else max(deadline.remaining, 1e-4)
        try:
            await asyncio.wait_for(afut, timeout)
        except asyncio.TimeoutError:
            demux.discard(future.request_id)
            # same squeak-in re-check as the sync path
            if not future.done:
                self._stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_MAYBE,
                    message=(f"reply to request {future.request_id} did "
                             f"not arrive within the deadline")) from None
        except asyncio.CancelledError:
            # a cancelled stub call must not leak: forget the pending
            # registration, and release the reply's deposit buffers
            # whether it landed already or lands later
            demux.abandon(future)
            raise
        if future.exception is not None:
            raise future.exception
        rm = future.message
        assert rm is not None
        if conn.sink is not None:
            # captured reply stage events re-emit on the awaiting
            # task's thread, exactly like the sync path
            for event in future.stages:
                conn.sink.emit(event)
        reply = rm.msg.body_header
        if not isinstance(reply, ReplyHeader):
            raise INTERNAL(message=(
                f"request {future.request_id} answered by "
                f"{type(reply).__name__}"))
        return rm

    def _invoke_once(self, object_key: bytes, sig: OperationSignature,
                     args: Sequence[Any], deadline: Optional[Deadline],
                     force_copy: bool, state: _Attempt, tracer=None,
                     scope=None, rec=None, rec_scope=None,
                     chain=None) -> Any:
        conn, demux = self._ensure_conn()
        active = tracer.start_client_span(sig.name, scope) \
            if tracer is not None else None
        r_active = rec.start_client_span(sig.name, rec_scope) \
            if rec is not None else None
        try:
            return self._attempt(conn, demux, object_key, sig, args,
                                 deadline, force_copy, state, active,
                                 r_active, chain)
        except BaseException as exc:
            for a in (active, r_active):
                if a is not None:
                    a.record_status(type(exc).__name__)
            raise
        finally:
            # recorder first: its span is the inner of the two stacks
            if r_active is not None:
                rec.finish(r_active)
            if active is not None:
                tracer.finish(active)

    def _attempt(self, conn: GIOPConn, demux: ReplyDemux,
                 object_key: bytes, sig: OperationSignature,
                 args: Sequence[Any], deadline: Optional[Deadline],
                 force_copy: bool, state: _Attempt, active,
                 r_active=None, chain=None) -> Any:
        info = None
        if chain is not None:
            from .interceptors import RequestInfo
            info = RequestInfo(operation=sig.name, object_key=object_key,
                               response_expected=not sig.oneway)
            chain.run("send_request", info)
        with stage_span(conn.sink, STAGE_MARSHAL) as span:
            ctx = conn.make_marshal_context(force_copy=force_copy)
            enc = conn.body_encoder()
            sig.marshal_request(enc, args, ctx)
            # the encoder goes to send_message as a chunk plan — no
            # join; its nbytes is the same body length the old blob had
            span.add_bytes(enc.nbytes)
        state.had_deposits = bool(ctx.descriptors)
        request = RequestHeader(
            request_id=conn.next_request_id(),
            object_key=object_key,
            operation=sig.name,
            response_expected=not sig.oneway,
        )
        if info is not None:
            info.request_id = request.request_id
        if active is not None:
            active.set_request_id(request.request_id)
            request.service_contexts.append(
                active.context.to_service_context())
        if r_active is not None:
            r_active.set_request_id(request.request_id)
        # register BEFORE sending: on synchronous-delivery transports
        # the reply can arrive inside send_message itself
        future = demux.register(request.request_id) \
            if not sig.oneway else None
        try:
            conn.send_message(request, enc, ctx)
        except BaseException:
            if future is not None:
                demux.discard(request.request_id)
            raise
        if sig.oneway:
            return None
        rm = self._await_reply(conn, demux, future, deadline)
        try:
            result = self._process_reply(conn, sig, rm)
            status = rm.msg.body_header.reply_status.name
            for a in (active, r_active):
                if a is not None:
                    a.record_status(status)
            return result
        finally:
            # the reply points run after demarshaling so tracing
            # interceptors see the complete stage record (and honest
            # wall time) of the invocation
            if info is not None:
                info.reply_status = rm.msg.body_header.reply_status.name
                chain.run("receive_reply", info)

    # -- reply handling ---------------------------------------------------------
    def _await_reply(self, conn: GIOPConn, demux: ReplyDemux,
                     future: ReplyFuture,
                     deadline: Optional[Deadline] = None) -> ReceivedMessage:
        """Block on this call's own future; other in-flight calls on the
        connection proceed independently."""
        timeout = None if deadline is None \
            else max(deadline.remaining, 1e-4)
        if not future.wait(timeout):
            demux.discard(future.request_id)
            # re-check: the reply may have squeaked in between the wait
            # expiring and the discard — a completed future is a reply,
            # not a timeout (and dropping it would leak its deposits)
            if not future.done:
                self._stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_MAYBE,
                    message=(f"reply to request {future.request_id} did "
                             f"not arrive within the deadline"))
        if future.exception is not None:
            raise future.exception
        rm = future.message
        assert rm is not None
        if conn.sink is not None:
            # the demux read this reply with its stage events captured;
            # re-emit them here, on the invoking thread, so the active
            # client span and stage timers attribute them to THIS call
            for event in future.stages:
                conn.sink.emit(event)
        reply = rm.msg.body_header
        if not isinstance(reply, ReplyHeader):
            raise INTERNAL(message=(
                f"request {future.request_id} answered by "
                f"{type(reply).__name__}"))
        return rm

    def _process_reply(self, conn: GIOPConn, sig: OperationSignature,
                       rm: ReceivedMessage) -> Any:
        reply = rm.msg.body_header
        assert isinstance(reply, ReplyHeader)
        ctx = rm.make_demarshal_context(on_bytes=conn.bytes_hook(),
                                        generic_loop=conn.generic_loop,
                                        orb=conn.orb)
        dec = rm.params_decoder()
        status = reply.reply_status
        if status is ReplyStatus.NO_EXCEPTION:
            if dec is None:
                raise MARSHAL(message="reply without body")
            with stage_span(conn.sink, STAGE_DEMARSHAL) as span:
                result = sig.demarshal_reply(dec, ctx)
                span.add_bytes(dec.tell())
            return result
        if status is ReplyStatus.USER_EXCEPTION:
            from ..cdr import get_marshaller
            mark = dec.tell()
            repo_id = dec.get_string()
            tc = sig.exception_tc_by_id(repo_id)
            if tc is None:
                raise INTERNAL(message=(
                    f"server raised undeclared exception {repo_id}"))
            dec.seek(mark)
            exc = get_marshaller(tc).demarshal(dec, ctx)
            if not isinstance(exc, UserException):
                raise INTERNAL(message=(
                    f"exception {repo_id} demarshaled as "
                    f"{type(exc).__name__}; register its class"))
            raise exc
        if status is ReplyStatus.SYSTEM_EXCEPTION:
            raise decode_system_exception(dec)
        if status is ReplyStatus.LOCATION_FORWARD:
            raise TRANSIENT(message="LOCATION_FORWARD not supported; "
                                    "re-resolve the object reference")
        raise INTERNAL(message=f"unhandled reply status {status}")
