"""Reply demultiplexing: concurrent in-flight requests per connection.

GIOP explicitly permits multiple outstanding requests on one connection
with out-of-order replies, matched by ``request_id``.  The seed ORB did
not exploit that: the proxy serialized every call behind a per-proxy
lock, so one slow request stalled every other caller sharing the
connection.  This module removes that bottleneck.

A :class:`ReplyDemux` owns the *receive side* of one client
:class:`~repro.orb.connection.GIOPConn`.  Callers register a
:class:`ReplyFuture` keyed by request id *before* sending; the demux
reads every inbound message and completes the matching future — in
whatever order the replies arrive.  Two read-drive modes mirror
``IIOPServer``:

* streams with a ``set_data_handler`` hook (loopback) are pumped
  synchronously from whichever thread delivered the bytes;
* blocking streams (TCP) get one dedicated daemon reader thread.

Failure semantics: a connection-fatal event — stream reset, GIOP
framing error, ``CloseConnection``, ``MessageError`` — fails **all**
in-flight futures, each with its own CORBA system exception instance
carrying ``COMPLETED_MAYBE`` (every registered request had left in
full; the peer's progress is unknowable).  A per-request deadline, by
contrast, cancels only its own future via :meth:`discard`; the
connection stays healthy and the late reply, when it eventually
arrives, is dropped as stale (its deposit buffers go back to the pool).

Stage attribution: the demux reads with ``wait_stage=None``, so the
reader thread reports no stage for a reply (it would go to the wrong —
or no — span, and measure how long the connection was idle, not how
long a call waited).  The read's numbers ride on the
:class:`ReceivedMessage` and the awaiting caller turns them into its
``server-wait`` / ``deposit-recv`` stages, against its own send stamp.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..giop import GIOPError, MsgType
from .connection import GIOPConn, ReceivedMessage, _PumpGuard
from .exceptions import (COMM_FAILURE, INTERNAL, TRANSIENT,
                         CompletionStatus, SystemException)

__all__ = ["ReplyFuture", "ReplyDemux"]


class ReplyFuture:
    """Completion of one in-flight request: a reply or a failure.

    Exactly one of :attr:`message` / :attr:`exception` is set when
    :meth:`wait` returns True.

    Waiting is one lock, taken at construction and released by the
    completer: a waiter blocks in ``acquire`` and passes the lock on,
    so any number of waiters get through.
    """

    __slots__ = ("request_id", "message", "exception", "done",
                 "_gate", "_cb_lock", "_callbacks")

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.message: Optional[ReceivedMessage] = None
        self.exception: Optional[SystemException] = None
        #: True once completed or failed (set before waiters wake)
        self.done = False
        self._gate = threading.Lock()
        self._gate.acquire()
        self._cb_lock = threading.Lock()
        self._callbacks: List = []

    def complete(self, rm: ReceivedMessage) -> None:
        self._finish(rm, None)

    def fail(self, exc: SystemException) -> None:
        self._finish(None, exc)

    def _finish(self, rm, exc) -> None:
        with self._cb_lock:
            if self.done:
                return  # the first outcome stands
            self.message = rm
            self.exception = exc
            self.done = True
            callbacks, self._callbacks = self._callbacks, []
        self._gate.release()
        for fn in callbacks:
            fn(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until completed; False when ``timeout`` expired first."""
        gate = self._gate
        if timeout is None:
            gate.acquire()
        elif not gate.acquire(timeout=max(timeout, 0.0)):
            return False
        gate.release()  # the next waiter's turn
        return True

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` on completion — immediately if already
        done, else from whichever thread completes the future.  The
        async invocation path bridges this to an asyncio future via
        ``call_soon_threadsafe``."""
        with self._cb_lock:
            if not self.done:
                self._callbacks.append(fn)
                return
        fn(self)


#: message types that complete a pending future by request id
_MATCHED = (MsgType.Reply, MsgType.LocateReply)


class ReplyDemux:
    """Per-connection reader matching inbound replies to futures."""

    def __init__(self, conn: GIOPConn, reactor=None):
        self.conn = conn
        #: the event-loop reactor (repro.orb.reactor) to adopt the read
        #: side into; None (or a non-adoptable stream) keeps the
        #: dedicated reader thread with identical semantics
        self.reactor = reactor
        self._pending: Dict[int, ReplyFuture] = {}
        self._lock = threading.Lock()
        #: the connection-fatal failure, once one happened
        self._failed: Optional[SystemException] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin demultiplexing (idempotent)."""
        if self._started:
            return
        self._started = True
        set_handler = getattr(self.conn.stream, "set_data_handler", None)
        if set_handler is not None:
            # synchronous delivery (loopback): drain on data arrival.
            # Several threads can deliver data (server workers sending
            # replies, a peer closing): the guard lets one drain at a
            # time and turns a notification arriving meanwhile into a
            # re-run instead of a concurrent or recursive pump
            set_handler(_PumpGuard(self._drain))
        elif self.reactor is not None \
                and self.reactor.adoptable(self.conn.stream):
            # event-loop mode: no reader thread — the reactor feeds the
            # same GIOP parser from readiness callbacks and routes
            # finished messages through the same _route
            self.reactor.adopt(
                self.conn, self._route, self._read_failed, wait_stage=None)
        else:
            self._thread = threading.Thread(
                target=self._read_loop,
                name=f"giop-demux-{getattr(self.conn.stream, 'name', '?')}",
                daemon=True)
            self._thread.start()

    def close(self, timeout: float = 1.0) -> None:
        """Close the connection and join the reader thread (bounded).

        Reactor-adopted connections detach through the conn close hook;
        thread mode unblocks the reader by closing the stream under it.
        """
        self.conn.close()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- registration ------------------------------------------------------
    def register(self, request_id: int) -> ReplyFuture:
        """A future for ``request_id``; register BEFORE sending, so the
        reply cannot race the registration."""
        fut = ReplyFuture(request_id)
        with self._lock:
            if self._failed is not None:
                # the conn is already dead; the caller's send will fail
                # with its own (COMPLETED_NO) error — but if it somehow
                # does not, the future must not hang
                fut.fail(self._copy_exc(self._failed))
                return fut
            self._pending[request_id] = fut
        return fut

    def discard(self, request_id: int) -> None:
        """Forget a future (deadline expiry / failed send).  A reply
        arriving later is dropped as stale."""
        with self._lock:
            self._pending.pop(request_id, None)

    def abandon(self, future: ReplyFuture) -> None:
        """A cancelled awaiter will never collect this reply: forget
        the registration, and release the reply's deposit buffers —
        now if it already landed, or the moment it does.  Idempotent
        and thread-safe: the buffers go back exactly once, whether the
        loop thread, the executor thread, or the reader gets here
        first."""
        with self._lock:
            self._pending.pop(future.request_id, None)
        future.add_done_callback(self._drop_abandoned)

    def _drop_abandoned(self, future: ReplyFuture) -> None:
        with self._lock:
            rm, future.message = future.message, None
        if rm is not None:
            self._drop_stale(rm)

    # -- message loops -----------------------------------------------------
    def _drain(self) -> None:
        """Drain complete messages (synchronous-delivery streams)."""
        conn = self.conn
        stream = conn.stream
        while not conn.closed:
            if getattr(stream, "available", 0) <= 0:
                # no bytes: if the stream died under us, outstanding
                # replies can never arrive — fail them now, because a
                # closed loopback stream never raises from a blocked
                # read (there is no blocked read to raise from)
                if getattr(stream, "closed", False) and self._has_pending():
                    conn.close()
                    self._fail_all(COMM_FAILURE(
                        completed=CompletionStatus.COMPLETED_MAYBE,
                        message="connection closed with replies "
                                "outstanding"))
                return
            if not self._step():
                return

    def _read_loop(self) -> None:
        """Blocking read loop (dedicated reader thread, TCP)."""
        while not self.conn.closed:
            if not self._step():
                return

    def _step(self) -> bool:
        """Read and route one message; False ends the loop."""
        try:
            rm = self.conn.read_message(wait_stage=None)
        except (GIOPError, SystemException) as exc:
            self._read_failed(exc)
            return False
        return self._route(rm)

    def _route(self, rm: ReceivedMessage, _driver=None) -> bool:
        """Route one successfully read message; False = conn is dead.

        Shared by the reader thread, the loopback pump, and the reactor
        (on its loop thread: must not block; it also passes its driver).
        """
        conn = self.conn
        mtype = rm.header.msg_type
        if mtype in _MATCHED:
            request_id = rm.msg.body_header.request_id
            with self._lock:
                fut = self._pending.pop(request_id, None)
            if fut is not None:
                fut.complete(rm)
            else:
                self._drop_stale(rm)
            return True
        if mtype is MsgType.CloseConnection:
            conn.close()
            self._fail_all(TRANSIENT(
                completed=CompletionStatus.COMPLETED_MAYBE,
                message="server closed the connection"))
            return False
        if mtype is MsgType.MessageError:
            # the server rejected a message at the framing layer and is
            # dropping the connection; its in-order read loop never
            # dispatched the garbled request, so COMPLETED_NO (which
            # makes the retry safe) — matching the pre-demux client
            conn.close()
            self._fail_all(COMM_FAILURE(
                completed=CompletionStatus.COMPLETED_NO,
                message="peer reported a message error"))
            return False
        # a client connection must never see Requests and friends
        conn.close()
        self._fail_all(INTERNAL(
            completed=CompletionStatus.COMPLETED_MAYBE,
            message=f"unexpected {mtype.name} on client connection"))
        return False

    # -- failure fan-out ---------------------------------------------------
    def _read_failed(self, exc: BaseException) -> None:
        """The read side died — under the reader thread, the loopback
        pump or the reactor (loop thread; must not block)."""
        if isinstance(exc, SystemException):
            self._fail_all(self._as_inflight_failure(exc))
            return
        # framing is unrecoverable: the stream position is undefined.
        # No MessageError courtesy here — on synchronous-delivery
        # streams the pump can run nested inside our own send_message,
        # and send_error would deadlock on _send_lock.
        self.conn.close()
        if isinstance(exc, GIOPError):
            exc = COMM_FAILURE(
                completed=CompletionStatus.COMPLETED_MAYBE,
                message=f"GIOP framing error on reply stream: {exc}")
        else:
            exc = INTERNAL(completed=CompletionStatus.COMPLETED_MAYBE,
                           message=f"reactor read failed: {exc!r}")
        self._fail_all(exc)

    def _has_pending(self) -> bool:
        with self._lock:
            return bool(self._pending)

    @staticmethod
    def _copy_exc(exc: SystemException) -> SystemException:
        """A fresh instance per future: raised in several threads, a
        shared instance would cross-contaminate tracebacks."""
        return type(exc)(minor=exc.minor, completed=exc.completed,
                         message=exc.message)

    @staticmethod
    def _as_inflight_failure(exc: SystemException) -> SystemException:
        """The exception in-flight requests should see for a fatal read
        error.  Every registered request left in full, so a read-side
        ``COMM_FAILURE`` reported as ``COMPLETED_NO`` (the stream's
        view) becomes ``COMPLETED_MAYBE`` (the request's view)."""
        if isinstance(exc, COMM_FAILURE) and \
                exc.completed is CompletionStatus.COMPLETED_NO:
            return COMM_FAILURE(minor=exc.minor,
                                completed=CompletionStatus.COMPLETED_MAYBE,
                                message=exc.message)
        return exc

    def _fail_all(self, exc: SystemException) -> None:
        """Fail every in-flight future with (a copy of) ``exc``."""
        with self._lock:
            if self._failed is None:
                self._failed = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for fut in pending:
            fut.fail(self._copy_exc(exc))

    @staticmethod
    def _drop_stale(rm: ReceivedMessage) -> None:
        """Release a stale reply's deposit buffers back to the pool —
        nobody will ever demarshal them."""
        for buf in rm.deposits.values():
            try:
                buf.release()
            except Exception:  # noqa: BLE001 - already released is fine
                pass
