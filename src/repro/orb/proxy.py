"""IIOPProxy: the client-side invocation path.

The class mirrors MICO's ``IIOPProxy`` (Fig. 3): a static invocation
arrives from the stub, parameters are marshaled — or, for zero-copy
sequences, registered for deposit (§4.4) — a GIOP Request is written,
and the matching Reply demarshaled into results or raised exceptions.

On top of that sits the resilience layer (:mod:`repro.orb.policy`,
DESIGN.md §7): one logical connection per endpoint, redialed when the
stream dies; failed attempts retried within the policy's budget; the
request deadline enforced as ``TIMEOUT`` with a completion status the
client can trust.  Each retry re-marshals from the original arguments,
re-registering pending direct-deposit payloads on the fresh connection;
after a deposit interrupted mid-stream it falls back to the copy path
(§4.4's regime is an optimisation, not a correctness requirement).

All of it is **one machine with two drivers** (DESIGN.md §15):
``_machine`` is a generator yielding what can block — send, reply wait,
backoff sleep; ``invoke`` performs that on the calling thread,
``invoke_async`` awaits it.  Invocations are **pipelined** (§10): any
number of threads and tasks share the connection, each call registers
its own :class:`~repro.orb.demux.ReplyFuture` before sending; a deadline
abandons only that future, a connection-fatal error fails all in flight.
"""

from __future__ import annotations

import asyncio
import threading
from functools import partial
from typing import Any, Callable, Optional, Sequence

from ..cdr import get_marshaller
from ..giop import (LocateReplyHeader, LocateRequestHeader, LocateStatus,
                    ReplyHeader, ReplyStatus, RequestHeader)
from ..obs.stages import (STAGE_DEMARSHAL, STAGE_DEPOSIT_RECV, STAGE_MARSHAL,
                          STAGE_SERVER_WAIT)
from ..transport.base import TransportError, TransportTimeout
from .connection import ConnStats, GIOPConn
from .demux import ReplyDemux
from .exceptions import (COMM_FAILURE, INTERNAL, MARSHAL, TIMEOUT, TRANSIENT,
                         CompletionStatus, UserException,
                         decode_system_exception)
from .interceptors import RequestInfo
from .policy import NO_RETRY, InvocationPolicy
from .signatures import OperationSignature, demarshal_context

__all__ = ["IIOPProxy"]

#: a zero-arg factory producing a fresh, connected GIOPConn
Connector = Callable[[], GIOPConn]

#: what ``IIOPProxy._machine`` yields to its driver: ``(_CALL, thunk,
#: nowait)`` — call ``thunk()`` where blocking is allowed (if ``nowait``:
#: or ``thunk(False)`` anywhere, then the rest it returns, if any) — and
#: ``(_WAIT, reply_future, timeout)`` — send back whether it completed
#: (blocking, the wait may be the read, ReplyDemux.wait)
_CALL, _WAIT = range(2)

#: what the async driver and the locate probe pass for ``_orb_hooks()``
_NO_HOOKS = (None, None)

#: invoked like an operation, travels as a GIOP LocateRequest and
#: returns whether the server knows the key (``ORB.locate``); idempotent,
#: so an answer lost with its connection is asked for again
_LOCATE = OperationSignature("_locate", idempotent=True)


class _Attempt:
    """What one attempt has on the wire: written by ``_transmit`` (under
    the async driver, maybe on an executor thread), read by the machine.
    One invoke() may run several attempts, and several invokes run
    concurrently, so this cannot live on the proxy."""

    had_deposits = abandoned = False
    #: ``span`` is this attempt's one record (DESIGN.md §8), opened by
    #: ``_transmit`` and finished by the machine on the same thread
    conn = demux = future = span = info = None
    #: the span producer's clock when the request had left
    sent = 0.0


async def _arrival(loop, future, timeout: Optional[float]) -> bool:
    """``ReplyFuture.wait`` without a thread: the demux's drive (the
    loop, or a pump) completes the future, a done-callback wakes the
    awaiting task via ``call_soon_threadsafe``.  A drive must read for
    it: the first on a connection its callers read hands it over."""
    future.demux.hand_over()
    afut = loop.create_future()

    def _wake(_fut) -> None:
        try:  # afut is already done when the wait timed out or was cancelled
            loop.call_soon_threadsafe(lambda: afut.done() or afut.set_result(None))
        except RuntimeError:
            pass  # caller's loop already closed; nobody is waiting

    future.add_done_callback(_wake)
    try:
        await asyncio.wait_for(afut, timeout)
    except asyncio.TimeoutError:
        return False
    return True


class IIOPProxy:
    """Pipelined request/reply engine over one (logical) GIOPConn."""

    def __init__(self, connector: Connector,
                 policy: Optional[InvocationPolicy] = None,
                 orb=None):
        self._connector = connector
        self._conn: Optional[GIOPConn] = None
        self._stats = ConnStats()
        self.policy = policy
        #: the owning ORB (for tracers/interceptors, and its loop)
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

    def _ensure_conn(self, block: bool = True):
        """The live (conn, demux) pair, dialing or replacing a dead
        connection.  Concurrent callers race benignly: whoever gets the
        lock first dials; the rest reuse the result.  ``block=False``:
        None unless the lock is free, the pair live, its stream not
        pumped (the pump would run the peer's upcall on this thread)."""
        if not self._conn_lock.acquire(block):
            return None
        try:
            conn = self._conn
            if self._demux is not None:
                self._demux.check_idle()  # what arrived while nobody read
            if not block and (
                    conn is None or conn.closed or self._demux is None
                    or hasattr(conn.stream, "set_data_handler")):
                return None
            if conn is None or conn.closed:
                if conn is not None:
                    conn.close()
                    self._conn = self._demux = None
                self._conn = self._dial()
                if conn is not None:
                    self._stats.reconnects += 1
            if self._demux is None:  # a fresh dial
                self._demux = ReplyDemux(self._conn, orb=self._orb)
                self._demux.start()
            return self._conn, self._demux
        finally:
            self._conn_lock.release()

    def _dial(self) -> GIOPConn:
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

    def close(self) -> None:
        """Close the connection politely; the calls still waiting for
        a reply on it fail (``ReplyDemux.close``)."""
        with self._conn_lock:
            conn, demux = self._conn, self._demux
            self._conn = self._demux = None
        if conn is not None:
            conn.send_close()
        if demux is not None:
            demux.close()
        elif conn is not None:
            conn.close()

    def _orb_hooks(self) -> tuple:
        """``(span producer, interceptor chain)`` of the owning ORB,
        each ``None`` when absent, switched off or empty — one
        resolution per invocation, and never a dial."""
        orb = self._orb
        if orb is None:
            return _NO_HOOKS
        rec = getattr(orb, "span_producer", None)
        if rec is not None and not rec.enabled:
            rec = None
        chain = getattr(orb, "interceptors", None)
        if chain is not None and not len(chain):
            chain = None
        return rec, chain

    # -- invocation ----------------------------------------------------------
    def invoke(self, object_key: bytes, sig: OperationSignature,
               args: Sequence[Any],
               policy: Optional[InvocationPolicy] = None) -> Any:
        """One static invocation under the effective policy: marshal,
        send, await reply, demarshal — with deadline, retry budget and
        deposit fallback applied around the attempt.  Any number of
        threads may invoke through one proxy concurrently; their
        requests pipeline on the shared connection.  This is the
        blocking driver of :meth:`_machine`: every effect runs here,
        on the calling thread."""
        # a LocateRequest has no service contexts for a trace to ride
        # in, and its reply no reply status for an interceptor to read
        machine = self._machine(
            object_key, sig, args, policy,
            _NO_HOOKS if sig is _LOCATE else self._orb_hooks())
        try:
            kind, a, b = machine.send(None)
            while True:
                try:
                    result = a() if kind == _CALL else a.wait(b)
                except BaseException as exc:
                    kind, a, b = machine.throw(exc)
                else:
                    kind, a, b = machine.send(result)
        except StopIteration as stop:
            return stop.value

    async def invoke_async(self, object_key: bytes, sig: OperationSignature,
                           args: Sequence[Any],
                           policy: Optional[InvocationPolicy] = None) -> Any:
        """The awaiting driver of the same machine: thousands of calls
        can be in flight on one task with no thread per call.  Runs on
        *any* running event loop (the caller's ``asyncio.run`` loop or
        the reactor's).  No hooks: interceptors and the span producer
        assume a call that stays on one thread (DESIGN.md §15 rule 4)."""
        loop = asyncio.get_running_loop()
        machine = self._machine(object_key, sig, args, policy, _NO_HOOKS)
        try:
            kind, a, b = machine.send(None)
            while True:
                try:
                    if kind == _WAIT:
                        result = await _arrival(loop, a, b)
                    else:
                        # a send marshals and writes here, on the loop,
                        # while nothing would block; what would hops
                        # through the default executor, shielded (a
                        # cancelled await must not tear a message): it
                        # runs on and, abandoned, retires what it registered
                        rest = a(False) if b else a
                        result = rest and await asyncio.shield(
                            loop.run_in_executor(None, rest))
                except BaseException as exc:
                    kind, a, b = machine.throw(exc)
                else:
                    kind, a, b = machine.send(result)
        except StopIteration as stop:
            return stop.value

    def _machine(self, object_key, sig, args, policy, hooks):
        """One invocation as a resumable generator, in the style of
        ``GIOPConn._read_message_gen``: deadline, attempt, reply
        handling and the retry / backoff / deposit-fallback decision
        exist here once; what can block — the send, the reply wait, the
        backoff sleep — is yielded to the driver (see ``_CALL`` /
        ``_WAIT``).  An exception out of an effect is thrown back in at
        the yield; the return value is the invocation's result."""
        policy = policy or self.policy or NO_RETRY
        rec, chain = hooks
        stats = self._stats
        # start_deadline() makes the same test; made here, an untimed
        # call saves the frame that the caller's budget of 72 calls per
        # sync ping needs (tests/orb/test_call_budget.py)
        deadline = None if policy.timeout is None \
            else policy.start_deadline()
        # the trace identity of this logical call is fixed here, before
        # the retry loop: every attempt below shares the trace id but
        # opens a fresh span, so retries are distinguishable on the wire
        scope = rec.begin_invocation() if rec is not None else None
        attempt, force_copy = 0, False
        while True:
            if deadline is not None and deadline.expired:
                stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_NO,
                    message=(f"deadline of {policy.timeout}s expired "
                             f"before the request was sent"))
            att = _Attempt()
            try:
                try:
                    yield _CALL, partial(
                        self._transmit, att, object_key, sig, args,
                        force_copy, hooks, scope), True
                    future = att.future
                    if future is None:
                        return None  # oneway: the send is the whole call
                    # this call's own future: other in-flight calls on
                    # the connection proceed independently
                    arrived = yield (
                        _WAIT, future, None if deadline is None
                        else max(deadline.remaining, 1e-4))
                except BaseException:
                    # the send failed, or the awaiter will never collect
                    # (CancelledError, KeyboardInterrupt, a dropped
                    # generator): forget the registration and release the
                    # reply's deposit buffers whether it landed already
                    # or lands later.  A send still running on an executor
                    # thread sees the flag and retires what it registers
                    att.abandoned = True
                    if att.future is not None:
                        att.demux.abandon(att.future)
                    raise
                if not arrived:
                    att.demux.discard(future.request_id)
                    # re-check: the reply may have squeaked in between
                    # the wait expiring and the discard — a completed
                    # future is a reply, not a timeout (and dropping it
                    # would leak its deposits)
                    if not future.done:
                        stats.timeouts += 1
                        raise TIMEOUT(
                            completed=CompletionStatus.COMPLETED_MAYBE,
                            message=(f"reply to request {future.request_id}"
                                     f" did not arrive within the deadline"))
                if future.exception is not None:
                    raise future.exception
                return self._process_reply(att, sig, future, chain)
            except BaseException as exc:
                if att.span is not None:
                    att.span.status = type(exc).__name__
                if not isinstance(exc, (TRANSIENT, COMM_FAILURE)) or \
                        attempt >= policy.max_retries or \
                        not policy.retryable(exc, sig.idempotent):
                    raise
                failure = exc
            finally:
                if att.span is not None:
                    rec.finish(att.span)
            if deadline is not None and deadline.expired:
                # retry would be futile; report the deadline, carrying
                # the completion status we actually know
                stats.timeouts += 1
                raise TIMEOUT(
                    completed=failure.completed,
                    message=(f"deadline of {policy.timeout}s expired "
                             f"after {attempt + 1} attempt(s): "
                             f"{failure.message}")) from failure
            if att.had_deposits and not force_copy:
                # a deposit payload died mid-stream: degrade to the
                # copy path so the retry cannot be bitten by the same
                # data-path failure
                force_copy = True
                stats.deposit_fallbacks += 1
            delay = policy.backoff(attempt)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline.remaining))
            if delay > 0:
                # the policy's sleep is injectable (tests replace it)
                yield _CALL, partial(policy.sleep, delay), None
            attempt += 1
            stats.retries += 1

    def _transmit(self, att, object_key, sig, args, force_copy, hooks,
                  scope, block: bool = True):
        """One attempt's way out — dial, marshal, register, send — on
        whichever thread the driver chose: every piece that may block
        (connect, socket write) or hold the send lock is in here.
        ``block=False`` does what takes no waiting; returns the rest."""
        rec, chain = hooks
        pair = self._ensure_conn(block)
        if pair is None:  # a dial, a lock, a stream that can only block
            return partial(self._transmit, att, object_key, sig, args,
                           force_copy, hooks, scope)
        conn, demux = att.conn, att.demux = pair
        if rec is not None:
            att.span = rec.start_client_span(sig.name, scope)
        if chain is not None:
            att.info = RequestInfo(operation=sig.name, object_key=object_key,
                                   response_expected=not sig.oneway)
            chain.run("send_request", att.info)
        if sig is _LOCATE:
            enc, ctx = b"", None
            request = LocateRequestHeader(
                request_id=conn.next_request_id(), object_key=object_key)
        else:
            sink = conn.sink
            t0 = sink.clock() if sink is not None else 0.0
            enc = b""
            try:
                # a fixed request packs into bytes with no context; an
                # encoder goes to send_message as a chunk plan, no join
                enc, ctx = sig.marshal_request(conn, args, force_copy)
            finally:
                if sink is not None:
                    sink.stamp(STAGE_MARSHAL, sink.clock() - t0, len(enc))
            att.had_deposits = ctx is not None and bool(ctx.descriptors)
            request = RequestHeader(
                request_id=conn.next_request_id(), object_key=object_key,
                operation=sig.name, response_expected=not sig.oneway)
        request_id = request.request_id
        if att.info is not None:
            att.info.request_id = request_id
        span = att.span
        if span is not None:
            span.request_id = request_id
            if rec.tracer is not None:
                # only a distributed tracer puts anything on the wire
                request.service_contexts.append(
                    span.context.to_service_context())
        # register BEFORE sending: on synchronous-delivery transports
        # the reply can arrive inside send_message itself
        future = None if sig.oneway else demux.register(request_id)
        return self._send(att, future, partial(
            conn.send_message, request, enc, ctx, block))

    def _send(self, att, future, write):
        """``_transmit`` from the write on; ``write()`` returns what it
        left for a thread that may block (then so do we) or None."""
        try:
            rest = write()
        except BaseException:
            if future is not None:  # a failed write owes no reply
                att.demux.discard(future.request_id, owed=False)
            raise
        if rest is not None:
            return partial(self._send, att, future, rest)
        att.future = future
        if att.conn.sink is not None:
            att.sent = att.conn.sink.clock()
        if future is not None and att.abandoned:
            # the awaiter gave up while we were sending: nobody will
            # ever collect this reply, so retire it here, on a thread
            # that needs no event loop
            att.demux.abandon(future)

    # -- reply handling ---------------------------------------------------------
    def _process_reply(self, att, sig, future, chain) -> Any:
        conn, rm = att.conn, future.message
        assert rm is not None
        sink = conn.sink
        reply = rm.msg.body_header
        if sink is not None:
            # the demux left the numbers of its read on the message; on
            # this thread, where the span of THIS call is open, they
            # become its stages: sent here, arrived there
            sink.stamp(STAGE_SERVER_WAIT, max(0.0, rm.arrived - att.sent),
                       rm.wire_nbytes)
            if isinstance(reply, ReplyHeader):
                sink.stamp(STAGE_DEPOSIT_RECV, rm.landing_s,
                           rm.landed_nbytes)
        if not isinstance(reply, LocateReplyHeader if sig is _LOCATE
                          else ReplyHeader):
            raise INTERNAL(message=(
                f"request {future.request_id} answered by "
                f"{type(reply).__name__}"))
        if sig is _LOCATE:
            return reply.locate_status is LocateStatus.OBJECT_HERE
        status = reply.reply_status
        try:
            dec = rm.params_decoder()
            if status is ReplyStatus.NO_EXCEPTION:
                if dec is None:
                    raise MARSHAL(message="reply without body")
                t0 = sink.clock() if sink is not None else 0.0
                try:
                    result = sig.demarshal_reply(dec, rm, conn)
                finally:
                    if sink is not None:
                        sink.stamp(STAGE_DEMARSHAL, sink.clock() - t0,
                                   dec.tell())
                if att.span is not None:
                    att.span.status = "NO_EXCEPTION"
                return result
            if status is ReplyStatus.USER_EXCEPTION:
                mark = dec.tell()
                repo_id = dec.get_string()
                tc = sig.exception_tc_by_id(repo_id)
                if tc is None:
                    raise INTERNAL(message=(
                        f"server raised undeclared exception {repo_id}"))
                dec.seek(mark)
                exc = get_marshaller(tc).demarshal(
                    dec, demarshal_context(rm, conn))
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
        finally:
            # a span that saw a reply says which kind (what its readers
            # keep a breakdown of); the reply points run after
            # demarshaling so interceptors see honest wall time
            if att.span is not None:
                att.span.reply_status = status
            if att.info is not None:
                att.info.reply_status = status.name
                chain.run("receive_reply", att.info)
