"""IIOPServer: inbound connection handling and message routing.

MICO's ``IIOPServer`` (Fig. 3) wired to our transports.  How an
accepted connection is read (pump, loop or reader thread) is
:meth:`GIOPConn.start_reading`'s choice; one router, :meth:`_route`,
and one failure path, :meth:`_read_failed`, serve all three.

Dispatch is decoupled from reading: decoded requests go to a bounded
:class:`RequestWorkerPool` shared by every connection, so a slow upcall
does not stall the pipelined requests behind it and replies leave in
completion order — out of order relative to their requests, which GIOP
explicitly permits (replies are matched by ``request_id``).  Only the
socket writes stay serialized, under the connection's ``_send_lock``,
keeping each reply's control/deposit split atomic on the wire.  Each
connection is still *read* sequentially — including landing each
request's deposit buffers, leased per request from the thread-safe
``BufferPool`` — so the worker pool never touches the receive side.

A full queue applies backpressure instead of buffering unboundedly: it
blocks a reader that may block (and, over loopback, the sender behind
it) and pauses a loop-read connection's fd.  ``workers=0`` dispatches
inline on the reader (never on the loop).
"""

from __future__ import annotations

import queue
import threading
from functools import partial
from typing import Callable, List, Optional

from ..giop import GIOPError, LocateReplyHeader, LocateStatus, MsgType
from .connection import GIOPConn, ReceivedMessage
from .dispatcher import MethodDispatcher
from .exceptions import SystemException
from .object_adapter import POA

__all__ = ["IIOPServer", "RequestWorkerPool"]


class RequestWorkerPool:
    """Bounded pool of dispatch threads shared by a server's connections.

    ``submit`` blocks when the queue is full — backpressure, not
    unbounded buffering.  Observability (when the ORB has a metrics
    registry): ``server_inflight_requests`` gauge (queued + executing)
    and a ``server_queue_depth`` histogram sampled at each submit.

    The hand-off is two C-level ``SimpleQueue`` s: the requests, and a
    pool of ``queue_depth`` tokens that bounds them.  A submitter takes
    a token (blocking, or failing with :class:`queue.Full`, when none
    is left), a worker returns it as it picks the request up — the same
    bound and back-pressure as a ``queue.Queue(maxsize)``, without its
    three Python-level conditions on every request.
    """

    #: histogram buckets for queue depth at submit time
    QUEUE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

    def __init__(self, workers: int,
                 handler: Callable[[GIOPConn, ReceivedMessage], None],
                 queue_depth: int = 32, orb=None,
                 name: str = "iiop-worker"):
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive: {queue_depth}")
        self._handler = handler
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._tokens: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(queue_depth):
            self._tokens.put(None)
        #: the ORB whose ``metrics`` registry takes the gauge and the
        #: histogram; read per request, because the registry appears
        #: when enable_tracing is called, which may be after the server
        #: exists
        self._orb = orb
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: signalled when _inflight drops to 0 while someone drains
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = 0
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            t = threading.Thread(target=self._work, name=f"{name}-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    @property
    def inflight(self) -> int:
        """Requests queued or executing right now."""
        with self._inflight_lock:
            return self._inflight

    @property
    def queue_size(self) -> int:
        """Requests waiting in the queue (not yet picked up)."""
        return self._queue.qsize()

    def submit(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Enqueue one decoded request; blocks when the queue is full."""
        self._tokens.get()
        self._enqueue(conn, rm)

    def submit_nowait(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Enqueue without blocking; raises :class:`queue.Full`.

        The reactor path uses this — the event loop must never block on
        backpressure; a full queue pauses the connection's fd reader
        instead.
        """
        try:
            self._tokens.get_nowait()
        except queue.Empty:
            raise queue.Full from None
        self._enqueue(conn, rm)

    def _enqueue(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        with self._inflight_lock:
            self._inflight += 1
        reg = getattr(self._orb, "metrics", None)
        if reg is not None:
            reg.gauge("server_inflight_requests").inc()
            reg.histogram("server_queue_depth",
                          buckets=self.QUEUE_BUCKETS).observe(
                              self._queue.qsize())
        self._queue.put((conn, rm))

    def drain(self, timeout: float = 2.0) -> bool:
        """Wait (bounded) until no request is queued or executing —
        graceful shutdown lets in-flight work finish and its replies
        leave before connections drop."""
        with self._idle:
            self._draining += 1
            try:
                return self._idle.wait_for(lambda: self._inflight == 0,
                                           timeout)
            finally:
                self._draining -= 1

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return  # shutdown's sentinel
            self._tokens.put(None)
            conn, rm = item
            try:
                self._handler(conn, rm)
            except SystemException:
                # the reply could not be written (client gone, wire
                # reset mid-send): drop this connection, not the server
                conn.close()
            except Exception:  # noqa: BLE001 - a worker must survive
                conn.close()
            finally:
                with self._inflight_lock:
                    self._inflight -= 1
                    if self._draining and not self._inflight:
                        self._idle.notify_all()
                reg = getattr(self._orb, "metrics", None)
                if reg is not None:
                    reg.gauge("server_inflight_requests").dec()

    def shutdown(self, timeout: float = 1.0) -> None:
        """Stop the workers: one sentinel each, queued behind whatever
        was already submitted; threads are daemons, so a stuck upcall
        cannot hang exit."""
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout)


class IIOPServer:
    """Accepts GIOP connections and dispatches their requests."""

    def __init__(self, poa: POA, new_conn: Callable[..., GIOPConn], *,
                 orb=None,
                 on_bytes: Optional[Callable[[str, int], None]] = None,
                 workers: int = 4, reactor=None):
        self.poa = poa
        self.orb = orb
        #: ``new_conn(stream)``: the owning ORB's one connection builder
        self._new_conn = new_conn
        #: event-loop reactor (repro.orb.reactor) offered to every
        #: accepted connection.  Only with a worker pool — servant
        #: up-calls must never run on the loop thread.
        self.reactor = reactor if workers > 0 else None
        self.dispatcher = MethodDispatcher(poa, on_bytes=on_bytes)
        self.listeners: List = []
        self._conns: List[GIOPConn] = []
        self._reader_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._shutdown = False
        #: bounded dispatch pool; None = inline dispatch (workers=0)
        self.workers: Optional[RequestWorkerPool] = None
        if workers > 0:
            self.workers = RequestWorkerPool(workers, self._serve, orb=orb)

    def connections(self) -> List[GIOPConn]:
        """The live accepted connections (a copy; closed ones pruned)."""
        with self._lock:
            self._conns = [c for c in self._conns if not c.closed]
            return list(self._conns)

    # -- transport plumbing ------------------------------------------------------
    def listen_on(self, transport, host: str, port: int):
        listener = transport.listen(host, port, self._on_accept)
        self.listeners.append(listener)
        return listener

    def _on_accept(self, stream) -> None:
        conn = self._new_conn(stream)
        with self._lock:
            if self._shutdown:
                conn.close()
                return
            self._conns.append(conn)
        thread = conn.start_reading(
            partial(self._route, conn), partial(self._read_failed, conn),
            reactor=self.reactor, name=f"iiop-server-{stream.peer}")
        if thread is not None:
            with self._lock:
                self._reader_threads.append(thread)

    # -- routing (start_reading's on_message / on_error) -------------------
    def _route(self, conn: GIOPConn, rm: ReceivedMessage,
               driver=None) -> None:
        """Route one message, whoever read it.  The drive decides one
        thing, where work that can block runs: given ``driver`` we are
        on the loop, where nothing may wait, so everything that answers
        or runs servant code goes through the pool; a reader thread or
        a pump may block, so there a full queue blocks the reader and
        what has no reply to reorder runs inline."""
        mtype = rm.header.msg_type
        if mtype is MsgType.Request or mtype is MsgType.LocateRequest:
            if self.workers is None:
                self._serve(conn, rm)
            elif driver is not None:
                # oneways and locates queue too: the upcall would run
                # on the loop, the LocateReply send could wait on
                # _send_lock behind a large reply.  The queue keeps
                # pickup FIFO and relaxes completion order, which GIOP
                # permits
                self._submit(conn, rm, driver)
            elif mtype is MsgType.Request and \
                    rm.msg.body_header.response_expected:
                # hand off; the reply leaves whenever the upcall is done
                self.workers.submit(conn, rm)
            else:
                # oneway requests dispatch inline: there is no reply to
                # reorder, and the seed's fire-and-forget semantics
                # (visible effect once send returns, FIFO among
                # oneways) are part of the loopback contract
                self._serve(conn, rm)
        elif mtype is MsgType.CloseConnection or \
                mtype is MsgType.MessageError:
            conn.close()
        elif mtype is not MsgType.CancelRequest and \
                mtype is not MsgType.Reply:
            # (a cancel is best effort: in-flight work completes; a
            # server awaits no replies, so a stale one is dropped)
            self._read_failed(conn, GIOPError(
                f"unexpected {mtype.name} on server connection"), driver)

    def _submit(self, conn: GIOPConn, rm: ReceivedMessage, driver,
                retry: bool = False) -> None:
        """The loop's hand-off to the pool: backpressure without
        blocking.  On a full queue stop reading this fd and try again
        shortly (``retry``); the socket buffer, and eventually the
        peer's send, absorb the pushback as a blocked reader thread's
        would."""
        if retry and (conn.closed or self._shutdown):
            rm.release()  # nobody will ever dispatch this request
            return
        try:
            self.workers.submit_nowait(conn, rm)
        except queue.Full:
            driver.pause()
            driver.reactor.loop.call_later(
                0.002, self._submit, conn, rm, driver, True)
            return
        if retry:
            driver.resume()

    def _serve(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Answer one Request or LocateRequest on a thread that may
        block: a pool worker, or a reader dispatching inline."""
        try:
            if rm.header.msg_type is MsgType.Request:
                self.dispatcher.dispatch(conn, rm)
                return
            req = rm.msg.body_header
            status = (LocateStatus.OBJECT_HERE
                      if self.poa.find_servant(req.object_key) is not None
                      else LocateStatus.UNKNOWN_OBJECT)
            conn.send_message(LocateReplyHeader(
                request_id=req.request_id, locate_status=status))
        except SystemException:
            # the reply could not be written (client gone, wire
            # reset mid-send): drop this connection, not the server
            conn.close()

    def _read_failed(self, conn: GIOPConn, exc: BaseException,
                     driver=None) -> None:
        """Reading ended, on whichever drive.  A peer that sent garbage
        (a framing error, a message no server should see) is told so
        with a MessageError: written by a reader that may block, from
        the loop only if the socket takes it at once.  The connection
        is closed whatever became of the courtesy."""
        if isinstance(exc, GIOPError):
            try:
                conn.send_error(block=driver is None)
            except OSError:
                pass  # a TransportError: the peer is gone
        conn.close()

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self, timeout: float = 2.0, drain: bool = True) -> None:
        """Stop the server: close listeners, drain in-flight requests
        (bounded by ``timeout``) so their replies leave, then drop
        connections and join every reader/accept thread."""
        with self._lock:
            self._shutdown = True
            conns = list(self._conns)
            self._conns.clear()
            readers = list(self._reader_threads)
            self._reader_threads.clear()
        for listener in self.listeners:
            listener.close()
        self.listeners.clear()
        if self.workers is not None:
            if drain:
                self.workers.drain(timeout)
            self.workers.shutdown()
        for conn in conns:
            try:
                conn.send_close()
            except SystemException:
                pass
            conn.close()
        current = threading.current_thread()
        for t in readers:
            if t is not current:
                t.join(timeout=timeout)
