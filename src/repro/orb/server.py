"""IIOPServer: inbound connection handling and the message loop.

MICO's ``IIOPServer`` (Fig. 3) wired to our transports.  Loopback
streams are pumped synchronously from the sender's thread (their
``set_data_handler`` hook); blocking streams (TCP) get one reader
thread each.

Dispatch is decoupled from the read loop: decoded requests go to a
bounded :class:`RequestWorkerPool` shared by every connection, so a
slow upcall no longer stalls the pipelined requests behind it and
replies leave in completion order — out of order relative to their
requests, which GIOP explicitly permits (replies are matched by
``request_id``).  Only the socket writes stay serialized, under the
connection's ``_send_lock``, keeping each reply's control/deposit
split atomic on the wire.  The reader still *reads* sequentially per
connection — including landing each request's deposit buffers, leased
per request from the thread-safe ``BufferPool`` — so the worker pool
never touches the receive side.

A full queue applies backpressure by blocking the reader (and, over
loopback, the sender behind it) instead of buffering unboundedly.
``workers=0`` restores the seed's inline dispatch.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional

from ..core.buffers import BufferPool
from ..giop import (GIOPError, LocateReplyHeader, LocateRequestHeader,
                    LocateStatus, MsgType)
from .connection import GIOPConn, ReceivedMessage, _PumpGuard
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

    def __init__(self, poa: POA, *, pool: Optional[BufferPool] = None,
                 zero_copy: bool = True, generic_loop: bool = False,
                 on_bytes: Optional[Callable[[str, int], None]] = None,
                 orb=None, fragment_size: int = 0,
                 wire_little_endian=None, sink=None,
                 workers: int = 4, queue_depth: int = 32,
                 sendfile_min_size: int = 256 * 1024,
                 reactor=None):
        self.poa = poa
        self.orb = orb
        #: event-loop reactor (repro.orb.reactor): adoptable accepted
        #: streams are read on the loop instead of a thread each.  Only
        #: usable with a worker pool — servant up-calls must never run
        #: on the loop thread.
        self.reactor = reactor
        self.pool = pool
        self.zero_copy = zero_copy
        self.generic_loop = generic_loop
        self.on_bytes = on_bytes
        #: structured event sink handed to every accepted connection
        self.sink = sink
        self.fragment_size = fragment_size
        self.sendfile_min_size = sendfile_min_size
        self.wire_little_endian = wire_little_endian
        self.dispatcher = MethodDispatcher(poa, on_bytes=on_bytes)
        self.listeners: List = []
        self._conns: List[GIOPConn] = []
        self._reader_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._shutdown = False
        #: bounded dispatch pool; None = inline dispatch (workers=0)
        self.workers: Optional[RequestWorkerPool] = None
        if workers > 0:
            self.workers = RequestWorkerPool(
                workers, self._worker_handle, queue_depth=queue_depth,
                orb=orb)

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
        kw = {}
        if self.wire_little_endian is not None:
            kw["little_endian"] = self.wire_little_endian
        sink = self.sink if self.sink is not None \
            else getattr(self.orb, "sink", None)
        conn = GIOPConn(stream, pool=self.pool, zero_copy=self.zero_copy,
                        generic_loop=self.generic_loop,
                        on_bytes=self.on_bytes, orb=self.orb,
                        fragment_size=self.fragment_size,
                        sendfile_min_size=self.sendfile_min_size,
                        sink=sink, **kw)
        with self._lock:
            if self._shutdown:
                conn.close()
                return
            self._conns.append(conn)
        set_handler = getattr(stream, "set_data_handler", None)
        if set_handler is not None:
            # synchronous loopback: pump whenever bytes arrive.  The
            # pump guard serializes concurrent notifications (several
            # pipelining client threads can deliver at once) without
            # recursing or dropping a wakeup.
            pump = _PumpGuard(lambda: self._pump(conn, stream))
            set_handler(pump)
        elif self.reactor is not None and self.workers is not None \
                and self.reactor.adoptable(stream):
            # event-loop mode: the reactor parses on the loop; every
            # decoded message routes through the worker pool, so the
            # loop thread never blocks on an upcall or a reply send.
            # On a read error the conn just closes — no courtesy
            # MessageError, whose blocking send could stall the loop
            # behind a peer that stopped reading.
            self.reactor.adopt(conn, self._on_reactor_message,
                               lambda exc, c=conn: c.close())
        else:
            t = threading.Thread(target=self._read_loop, args=(conn,),
                                 name=f"iiop-server-{stream.peer}",
                                 daemon=True)
            with self._lock:
                self._reader_threads.append(t)
            t.start()

    # -- message loops ---------------------------------------------------------
    def _read_one(self, conn: GIOPConn):
        """Read the next message; on wire trouble close the connection
        (a MessageError first, if the peer merely sent garbage)."""
        try:
            return conn.read_message()
        except GIOPError:
            try:
                conn.send_error()
            except SystemException:
                pass
            conn.close()
            return None
        except SystemException:
            conn.close()
            return None

    def _pump(self, conn: GIOPConn, stream) -> None:
        while not conn.closed and getattr(stream, "available", 0) > 0:
            rm = self._read_one(conn)
            if rm is None:
                return
            self._handle(conn, rm)

    def _read_loop(self, conn: GIOPConn) -> None:
        while not conn.closed and not self._shutdown:
            rm = self._read_one(conn)
            if rm is None:
                return
            self._handle(conn, rm)

    def _handle(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        mtype = rm.header.msg_type
        if mtype is MsgType.Request:
            if self.workers is not None and \
                    getattr(rm.msg.body_header, "response_expected", True):
                # hand off; the reply leaves whenever the upcall is done
                self.workers.submit(conn, rm)
            else:
                # oneway requests dispatch inline: there is no reply to
                # reorder, and the seed's fire-and-forget semantics
                # (visible effect once send returns, FIFO among
                # oneways) are part of the loopback contract
                self._dispatch_request(conn, rm)
        elif mtype is MsgType.LocateRequest:
            req = rm.msg.body_header
            assert isinstance(req, LocateRequestHeader)
            status = (LocateStatus.OBJECT_HERE
                      if self.poa.find_servant(req.object_key) is not None
                      else LocateStatus.UNKNOWN_OBJECT)
            conn.send_message(LocateReplyHeader(
                request_id=req.request_id, locate_status=status))
        elif mtype is MsgType.CancelRequest:
            pass  # best-effort per GIOP: we let in-flight work complete
        elif mtype in (MsgType.CloseConnection, MsgType.MessageError):
            conn.close()
        elif mtype is MsgType.Reply:
            pass  # server role does not await replies; drop stale ones
        else:
            conn.send_error()

    # -- reactor routing (loop thread; must not block) ---------------------
    def _on_reactor_message(self, rm: ReceivedMessage, driver) -> None:
        conn = driver.conn
        mtype = rm.header.msg_type
        if mtype in (MsgType.Request, MsgType.LocateRequest):
            # everything that answers goes through the pool — a
            # LocateReply send can block on _send_lock behind a large
            # reply, and the loop must never wait on a send.  Oneway
            # requests queue too (inline dispatch would run servant
            # code on the loop): FIFO pickup order is preserved by the
            # queue, completion order is relaxed — GIOP permits that
            # over TCP, and loopback (never adopted) keeps the strict
            # seed semantics.
            self._submit_reactor(conn, rm, driver)
        elif mtype in (MsgType.CloseConnection, MsgType.MessageError):
            conn.close()
        elif mtype in (MsgType.CancelRequest, MsgType.Reply):
            pass  # best-effort cancel; stale replies drop
        else:
            conn.close()

    def _submit_reactor(self, conn: GIOPConn, rm: ReceivedMessage,
                        driver) -> None:
        try:
            self.workers.submit_nowait(conn, rm)
        except queue.Full:
            # backpressure without blocking the loop: stop reading this
            # fd and retry the handoff shortly.  The socket buffer (and
            # eventually the peer's send) absorbs the pushback, exactly
            # like the blocked reader thread did.
            driver.pause()
            driver.reactor.loop.call_later(
                0.002, self._retry_submit, conn, rm, driver)

    def _retry_submit(self, conn: GIOPConn, rm: ReceivedMessage,
                      driver) -> None:
        if conn.closed or self._shutdown:
            # nobody will ever dispatch this request: its landed
            # deposit buffers go back to the pool
            for buf in rm.deposits.values():
                try:
                    buf.release()
                except Exception:  # noqa: BLE001 - already released
                    pass
            return
        try:
            self.workers.submit_nowait(conn, rm)
        except queue.Full:
            driver.reactor.loop.call_later(
                0.002, self._retry_submit, conn, rm, driver)
            return
        driver.resume()

    def _worker_handle(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Pool handler: dispatch requests, answer everything else via
        the normal routing (LocateRequest replies from a worker)."""
        if rm.header.msg_type is MsgType.Request:
            self._dispatch_request(conn, rm)
        else:
            self._handle(conn, rm)

    def _dispatch_request(self, conn: GIOPConn,
                          rm: ReceivedMessage) -> None:
        try:
            self.dispatcher.dispatch(conn, rm)
        except SystemException:
            # the reply could not be written (client gone, wire
            # reset mid-send): drop this connection, not the server
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
