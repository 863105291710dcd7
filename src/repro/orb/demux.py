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
whatever order the replies arrive.  Who reads it is
:meth:`ReplyDemux.start`'s choice (its pump, the callers waiting for
replies, or after the hand-over the ORB's loop); routing and failure
fan-out below are the same under each.

Failure semantics: a connection-fatal event — stream reset, GIOP
framing error, ``CloseConnection``, ``MessageError``, the owner's own
:meth:`ReplyDemux.close` — fails **all** in-flight futures, each with
its own CORBA system exception instance carrying ``COMPLETED_MAYBE``
(every registered request had left in full; the peer's progress is
unknowable).  A per-request deadline, by
contrast, cancels only its own future via :meth:`discard`; the
connection stays healthy and the late reply, when it eventually
arrives, is dropped as stale (its deposit buffers go back to the pool).

Stage attribution: no read stamps a stage, on any drive (it would go
to the wrong — or no — span, and measure how long the connection was
idle, not how long a call waited).  The read's numbers ride on the
:class:`ReceivedMessage` and the awaiting caller turns them into its
``server-wait`` / ``deposit-recv`` stages, against its own send stamp,
as a server's dispatch turns a request's into ``recv-wait`` /
``deposit-recv``.
"""

from __future__ import annotations

import threading
from math import inf
from time import monotonic
from typing import Dict, List, Optional

from ..giop import GIOPError, MsgType
from .connection import GIOPConn, ReceivedMessage
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

    __slots__ = ("request_id", "demux", "message", "exception", "done",
                 "_gate", "_cb_lock", "_callbacks")

    def __init__(self, request_id: int):
        self.request_id = request_id
        #: the demux that routes this reply, set as it registers
        self.demux: Optional["ReplyDemux"] = None
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
        """Block until completed; False when ``timeout`` expired first.
        While its connection's callers read, waiting may be reading."""
        demux = self.demux
        if demux is not None and demux.callers_read:
            return demux.wait(self, timeout)
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

    def __init__(self, conn: GIOPConn, orb):
        self.conn = conn
        #: asked for its loop (``ORB.reactor``) at the hand-over
        self._orb = orb
        self._pending: Dict[int, ReplyFuture] = {}
        self._lock = threading.Lock()
        #: the connection-fatal failure, once one happened
        self._failed: Optional[SystemException] = None
        #: the callers waiting on a thread read (one leads, the rest
        #: follow, each woken by its Event: its reply is in, or lead)
        self.callers_read = False
        self._leading = False
        self._followers: List[threading.Event] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin demultiplexing (once).  The one place that says who
        reads a client connection: a pumped stream (loopback, sim) its
        pump; any other (a socket: tcp, shm, a fault-injected one) its
        waiting callers (:meth:`wait`), until an awaited call, or a
        caller that gives up on its reply, hands it for good to the
        ORB's loop (:meth:`hand_over`).  No reader thread, ever."""
        self.callers_read = not hasattr(self.conn.stream, "set_data_handler")
        if not self.callers_read:
            self._drive(None)  # the pump: no loop

    def _drive(self, reactor) -> None:
        with self._lock:
            followers, self._followers = self._followers, []
        for turn in followers:  # a drive completes their futures now
            turn.set()
        self.conn.start_reading(self._route, self._read_failed,
                                reactor=reactor)

    def hand_over(self) -> None:
        """A reply no caller waits for on a thread needs a drive: the
        ORB's loop.  A leader hands over as it lets go."""
        with self._lock:
            idle = self.callers_read and not self._leading
            self.callers_read = False
        if idle:
            self._drive(self._orb.reactor)

    # -- the waiting callers' read (Leader/Followers) ----------------------
    def wait(self, future: ReplyFuture, timeout: Optional[float]) -> bool:
        """:meth:`ReplyFuture.wait` while the callers read: who finds
        nobody reading leads, routing all until its reply is in, then
        wakes the first follower.  Each gives up at its own deadline."""
        end = None if timeout is None else monotonic() + timeout
        turn = woke = None
        while True:
            with self._lock:
                if turn in self._followers:
                    self._followers.remove(turn)
                if future.done or not self.callers_read or woke is False:
                    # leaving: a turn handed to us meanwhile goes on
                    if not self._leading and self._followers:
                        self._followers.pop(0).set()
                    break
                lead = not self._leading
                if lead:
                    self._leading = True
                else:
                    if turn is None:  # our reply, routed, wakes us too
                        turn = threading.Event()
                        future.add_done_callback(lambda _: turn.set())
                    self._followers.append(turn)
            if lead:
                try:
                    return self._lead(future, end)
                finally:
                    self._let_go()
            woke = turn.wait(None if end is None else end - monotonic())
            turn.clear()
        if future.done or self.callers_read:
            return future.done
        return future.wait(  # on the gate: a drive reads from now on
            None if end is None else end - monotonic())

    def _lead(self, future: Optional[ReplyFuture],
              end: Optional[float]) -> bool:
        """Route what comes until ``future`` is done (True; no future:
        the connection closed) or nothing did by ``end`` (False)."""
        conn = self.conn
        try:
            while not (conn.closed if future is None else future.done):
                rm = conn.read_message(
                    inf if end is None else end - monotonic())
                if rm is None:
                    return False
                self._route(rm)
        except (GIOPError, SystemException) as exc:
            self._read_failed(exc)
        except BaseException as exc:  # an interrupt leaves the parse whole
            if conn.closed:  # unless the parse ended the connection
                self._read_failed(exc)
            raise
        return True

    def _let_go(self) -> None:
        with self._lock:
            self._leading = False
            if self.callers_read:
                if self._followers:
                    self._followers.pop(0).set()
                return
        self._drive(self._orb.reactor)  # handed over

    def check_idle(self) -> None:
        """Before a write on a connection nobody reads: what came while
        it was idle (CloseConnection, EOF) closes it now; the call
        redials.  One ``poll(0)`` when nothing came (under the lock: a
        poll object refuses to run in two threads at once)."""
        with self._lock:
            if not self.callers_read or self._leading:
                return
            poll = self.conn._poll
            if poll is not None and not poll.poll(0):
                return
            self._leading = True
        try:
            self._lead(None, monotonic())
        finally:
            self._let_go()

    def close(self) -> None:
        """Close the connection and fail every call still owed a reply,
        as a read error would: whichever drive reads it stops silently
        at its owner's close (the loop detaches through the close hook,
        a leader's ``poll`` wakes to a closed connection)."""
        self.conn.close()
        self._fail_all(COMM_FAILURE(
            completed=CompletionStatus.COMPLETED_MAYBE,
            message="connection closed with the reply still owed"))

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- registration ------------------------------------------------------
    def register(self, request_id: int) -> ReplyFuture:
        """A future for ``request_id``; register BEFORE sending, so the
        reply cannot race the registration."""
        fut = ReplyFuture(request_id)
        fut.demux = self
        with self._lock:
            if self._failed is not None:
                # the conn is already dead; the caller's send will fail
                # with its own (COMPLETED_NO) error — but if it somehow
                # does not, the future must not hang
                fut.fail(self._copy_exc(self._failed))
                return fut
            self._pending[request_id] = fut
        return fut

    def discard(self, request_id: int, owed: bool = True) -> None:
        """Forget a future.  After a deadline a reply may still come
        (``owed``): a drive drops it as stale, since no caller waits for
        it on a thread (:meth:`hand_over`).  A failed send owes none."""
        with self._lock:
            owed &= self._pending.pop(request_id, None) is not None
        if owed:
            self.hand_over()

    def abandon(self, future: ReplyFuture) -> None:
        """A cancelled awaiter will never collect this reply: forget
        the registration, and release the reply's deposit buffers —
        now if it already landed, or the moment it does.  Idempotent
        and thread-safe: the buffers go back exactly once, whether the
        loop thread, the executor thread, or the reader gets here
        first.  Nobody waits to read it: a drive must (:meth:`hand_over`)."""
        with self._lock:
            self._pending.pop(future.request_id, None)
        future.add_done_callback(self._drop_abandoned)
        if not future.done:
            self.hand_over()

    def _drop_abandoned(self, future: ReplyFuture) -> None:
        with self._lock:
            rm, future.message = future.message, None
        if rm is not None:
            rm.release()

    # -- routing (start_reading's on_message) ------------------------------
    def _route(self, rm: ReceivedMessage, _driver=None) -> None:
        """Route one message, on whichever drive read it (given
        ``_driver``, on the loop: must not block).  A message that ends
        the connection closes it, which ends the reading."""
        conn = self.conn
        mtype = rm.msg_type
        if mtype in _MATCHED:
            request_id = rm.body_header.request_id
            with self._lock:
                fut = self._pending.pop(request_id, None)
            if fut is not None:
                fut.complete(rm)
            else:
                rm.release()  # stale: its caller gave up on it
            return
        conn.close()
        if mtype is MsgType.CloseConnection:
            exc = TRANSIENT(completed=CompletionStatus.COMPLETED_MAYBE,
                            message="server closed the connection")
        elif mtype is MsgType.MessageError:
            # the server rejected a message at the framing layer and is
            # dropping the connection; its in-order read loop never
            # dispatched the garbled request, so COMPLETED_NO (which
            # makes the retry safe) — matching the pre-demux client
            exc = COMM_FAILURE(completed=CompletionStatus.COMPLETED_NO,
                               message="peer reported a message error")
        else:
            # a client connection must never see Requests and friends
            exc = INTERNAL(
                completed=CompletionStatus.COMPLETED_MAYBE,
                message=f"unexpected {mtype.name} on client connection")
        self._fail_all(exc)

    # -- failure fan-out ---------------------------------------------------
    def _read_failed(self, exc: BaseException, _driver=None) -> None:
        """``start_reading``'s ``on_error``: the read side died and the
        connection is marked closed (on the loop: must not block)."""
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
                           message=f"reply read failed: {exc!r}")
        self._fail_all(exc)

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
