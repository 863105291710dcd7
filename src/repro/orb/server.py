"""IIOPServer: inbound connection handling and message routing.

MICO's ``IIOPServer`` (Fig. 3) wired to our transports.  How an
accepted connection is read (pump, pool or reader thread) is stated at
accept, :meth:`_on_accept`; one router, :meth:`_route`, and one failure
path, :meth:`_read_failed`, serve all three.

With ``workers > 0`` (the default) the :class:`RequestWorkerPool`'s
threads are the server's readers: every connection with a socket (tcp,
shm's control socket, a fault-injected stream) waits in the pool's one
``EPOLLONESHOT`` poll set, and the thread that reads a request runs it
and writes its reply — no hand-off, no loop thread.  A slow upcall
blocks only its own thread, so the pipelined requests behind it are
read by the others and replies leave in completion order — out of
order relative to their requests, which GIOP explicitly permits
(replies are matched by ``request_id``).  Only the socket writes stay
serialized, under the connection's ``_send_lock``, keeping each reply's
control/deposit split atomic on the wire; one thread at a time reads a
connection, landing each request's deposit buffers (leased from the
thread-safe ``BufferPool``) before the next request is read.

Backpressure needs no code: once every pool thread is in an upcall,
nobody reads, and the socket buffers, then the peer's send, absorb the
rest.  A pumped stream (loopback, sim) delivers on its sender's thread,
which hands a two-way request to the pool's bounded queue and blocks
when it is full.  ``workers=0`` dispatches inline on a reader thread per
connection.
"""

from __future__ import annotations

import os
import queue
import select
import threading
from functools import partial
from typing import Callable, List, Optional

from ..giop import GIOPError, LocateReplyHeader, LocateStatus, MsgType
from .connection import GIOPConn, ReceivedMessage
from .dispatcher import MethodDispatcher
from .exceptions import SystemException
from .object_adapter import POA

__all__ = ["IIOPServer", "RequestWorkerPool"]


#: how a connection waits in the pool's poll set: one readiness event,
#: then nothing until the thread that took it re-arms the fd
_ARMED = select.EPOLLIN | select.EPOLLONESHOT


class RequestWorkerPool:
    """The server's ``workers`` threads: they read its connections and
    run the requests they read (Leader/Followers without a promotion;
    TAO's thread-pool reactor).

    Every thread waits in ``epoll.poll`` on one ``select.epoll`` set
    (Linux only).  A connection is registered ``EPOLLIN |
    EPOLLONESHOT`` (:meth:`adopt`), so one thread at a time reads it and
    its one resumable parse (``GIOPConn._read_nb``) stays in order.  The
    thread that takes a readiness event reads what is there: a partial
    message re-arms the fd; a request that wants a reply re-arms it and
    then runs on this thread (the next request of the connection may be
    read by another thread meanwhile: completion order is relaxed, which
    GIOP permits); anything else (a oneway, a locate, a message the
    owner routes) is handled before the fd is re-armed, so a
    connection's oneways keep the FIFO order the pump guarantees.
    Nobody promotes a follower: an idle thread is already in
    ``epoll_wait``, which wakes the most recent waiter.  Once every
    thread is in an upcall nobody reads, and the bound is ``workers``
    plus the kernel's socket buffers.

    A pumped stream (loopback, sim) delivers on its sender's thread,
    which hands a two-way request over with :meth:`submit`: a
    ``SimpleQueue`` bounded by ``queue_depth`` tokens (a submitter takes
    one, blocking when none is left; a thread returns it as it picks the
    request up).  An ``eventfd`` semaphore in the same poll set wakes
    one thread per queued request, and at shutdown one per thread.

    Observability (when the ORB has a metrics registry):
    ``server_inflight_requests`` gauge (queued + executing) and a
    ``server_queue_depth`` histogram sampled as each request is
    admitted.
    """

    #: histogram buckets for queue depth at admission
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
        self._epoll = select.epoll()
        #: one count per queued request or shutdown sentinel
        self._wake = os.eventfd(0, os.EFD_SEMAPHORE | os.EFD_NONBLOCK)
        self._wake_lock = threading.Lock()
        self._epoll.register(self._wake, select.EPOLLIN)
        #: fd -> (conn, on_message, on_error, claim) of the connection
        #: registered under it; ``claim`` is held while a thread reads
        self._reading: dict = {}
        self._reading_lock = threading.Lock()
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
        """Pumped requests waiting in the queue (not yet picked up)."""
        return self._queue.qsize()

    # -- the connections the pool reads ------------------------------------
    def adopt(self, conn: GIOPConn, on_message: Callable,
              on_error: Callable) -> None:
        """Read ``conn`` on the pool's threads (``GIOPConn.start_reading``'s
        pool drive).  A Request or LocateRequest runs through
        :meth:`submit_nowait` on the thread that read it; any other
        message goes to ``on_message(rm)`` there, which may block;
        whatever ends the read reaches ``on_error(exc)`` once.  The
        connection's close hook takes the fd out of the poll set."""
        fd = conn.stream.fileno()
        entry = (conn, on_message, on_error, threading.Lock())
        with self._reading_lock:
            # in the map before the poll set: the first event finds it
            self._reading[fd] = entry
            try:
                if conn.closed:
                    raise ValueError("closed before it was read")
                self._epoll.register(fd, _ARMED)
            except (OSError, ValueError):
                del self._reading[fd]  # the connection, or the pool, is closed
                entry = None
        if entry is None:
            conn.close()
            return
        conn.add_close_hook(partial(self._forget, fd, entry))

    def _forget(self, fd: int, entry: tuple) -> None:
        """The close hook: unregister, before the fd closes.  Guarded
        against fd reuse: only if ``fd`` still maps to this connection,
        so one accepted onto a recycled fd keeps its registration and is
        never fed the old one's parse."""
        with self._reading_lock:
            if self._reading.get(fd) is not entry:
                return
            del self._reading[fd]
            try:
                self._epoll.unregister(fd)
            except (OSError, ValueError):
                pass  # the fd or the poll set is already closed

    # -- hand-offs ------------------------------------------------------------
    def submit(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """The pump's hand-off: queue one request for a pool thread;
        blocks while ``queue_depth`` requests wait."""
        self._tokens.get()
        self._admit()
        self._queue.put((conn, rm))
        self._post(1)

    def _post(self, n: int) -> None:
        """Add ``n`` to the wake-up count; nothing once the pool is shut
        down (its eventfd number may belong to someone else by then)."""
        with self._wake_lock:
            if self._wake >= 0:
                os.eventfd_write(self._wake, n)

    def submit_nowait(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Run one request here and now, on the pool thread that read
        it: never queued, never waiting for a token.  (A queue's name:
        ``benchmarks/e2e/trace.py`` times the server's hand-off by it,
        and reads ``orb.server.queue_wait_us`` as the in-thread gap from
        here to the dispatch, until a ``[benchmark]`` change renames
        it.)

        :meth:`_admit`, :meth:`_run` and :meth:`_count_out` inlined: a
        request runs where it was read for no call more than a reader
        thread's, which the call budget of a pooled ping holds."""
        with self._inflight_lock:
            self._inflight += 1
        reg = getattr(self._orb, "metrics", None)
        if reg is not None:
            reg.gauge("server_inflight_requests").inc()
            reg.histogram("server_queue_depth",
                          buckets=self.QUEUE_BUCKETS).observe(
                              self._queue.qsize())
        try:
            self._handler(conn, rm)
        except Exception:  # noqa: BLE001 - a pool thread must survive
            conn.close()
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._draining and not self._inflight:
                    self._idle.notify_all()
            if reg is not None:
                reg.gauge("server_inflight_requests").dec()

    def _admit(self) -> None:
        """Count one request in (and sample the queue it joins)."""
        with self._inflight_lock:
            self._inflight += 1
        reg = getattr(self._orb, "metrics", None)
        if reg is not None:
            reg.gauge("server_inflight_requests").inc()
            reg.histogram("server_queue_depth",
                          buckets=self.QUEUE_BUCKETS).observe(
                              self._queue.qsize())

    def _run(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Run one admitted request, and count it out."""
        try:
            self._handler(conn, rm)
        except Exception:  # noqa: BLE001 - a pool thread must survive
            # the reply could not be written (client gone, wire reset
            # mid-send) or the handler itself failed: drop this
            # connection, not the server
            conn.close()
        finally:
            self._count_out()

    def _count_out(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._draining and not self._inflight:
                self._idle.notify_all()
        reg = getattr(self._orb, "metrics", None)
        if reg is not None:
            reg.gauge("server_inflight_requests").dec()

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

    # -- a pool thread ---------------------------------------------------------
    def _work(self) -> None:
        poll, wake, reading = self._epoll.poll, self._wake, self._reading
        while True:
            try:
                events = poll(-1, 1)
            except ValueError:
                return  # the poll set was closed under a straggler
            if not events:
                continue
            fd = events[0][0]
            if fd == wake:
                try:
                    os.eventfd_read(wake)
                except BlockingIOError:
                    continue  # another thread took this count
                item = self._queue.get()
                if item is None:
                    return  # shutdown's sentinel
                self._tokens.put(None)
                self._run(*item)
                continue
            entry = reading.get(fd)
            if entry is None:
                continue  # unregistered since the event was queued
            conn, on_message, on_error, claim = entry
            # one reader at a time: an event that finds the claim held
            # (a stale one, a closed connection's on a recycled fd, read
            # this connection already) leaves the read to its holder,
            # who re-arms only after letting go
            if not claim.acquire(False):
                continue
            if conn.closed and conn._gen is None:
                claim.release()  # the owner closed it between messages
                continue
            try:
                rm = conn._read_nb()
            except BaseException as exc:  # noqa: BLE001 - ends reading
                claim.release()
                on_error(exc)
                continue
            try:
                if rm is None:
                    pass  # a partial message: wait for the rest
                elif rm.msg_type is not MsgType.Request and \
                        rm.msg_type is not MsgType.LocateRequest:
                    on_message(rm)  # the owner routes everything else
                    rm = None
                elif not getattr(rm.body_header, "response_expected",
                                 False):
                    # a oneway or a locate: no reply to overlap, so it
                    # runs claimed and before the re-arm, in order
                    self.submit_nowait(conn, rm)
                    rm = None
            except Exception:  # noqa: BLE001 - a pool thread must survive
                conn.close()
            claim.release()
            if reading.get(fd) is entry:
                try:
                    self._epoll.modify(fd, _ARMED)
                except (OSError, ValueError):
                    pass  # closed meanwhile
            if rm is not None:
                self.submit_nowait(conn, rm)  # a reply to write: run here

    def shutdown(self, timeout: float = 1.0) -> None:
        """Stop the threads: one sentinel each, queued behind whatever
        was already submitted, each woken through the poll set (closing
        an epoll does not wake a thread blocked in it).  Threads are
        daemons, so a stuck upcall cannot hang exit; the poll set and
        the eventfd are closed once no thread can use them again."""
        for _ in self._threads:
            self._queue.put(None)
        self._post(len(self._threads))
        for t in self._threads:
            t.join(timeout=timeout)
        if not any(t.is_alive() for t in self._threads):
            with self._reading_lock:
                self._reading.clear()
                self._epoll.close()
            with self._wake_lock:
                wake, self._wake = self._wake, -1
            if wake >= 0:
                os.close(wake)


class IIOPServer:
    """Accepts GIOP connections and dispatches their requests."""

    def __init__(self, poa: POA, new_conn: Callable[..., GIOPConn], *,
                 orb=None, workers: int = 4):
        self.poa = poa
        self.orb = orb
        #: ``new_conn(stream)``: the owning ORB's one connection builder
        self._new_conn = new_conn
        self.dispatcher = MethodDispatcher(poa)
        self.listeners: List = []
        self._conns: List[GIOPConn] = []
        self._reader_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._shutdown = False
        #: the threads that read the connections and run their
        #: requests; None = a reader thread per connection that
        #: dispatches inline (workers=0)
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
        # offered the pool, a stream with a socket is read by its
        # threads; a pumped one takes the pump either way; without a
        # pool, a thread of its own that dispatches inline
        thread = conn.start_reading(
            partial(self._route, conn), partial(self._read_failed, conn),
            reactor=self.workers, name=f"iiop-server-{stream.peer}")
        if thread is not None:
            with self._lock:  # the ended ones go, as closed conns do
                self._reader_threads = [
                    t for t in self._reader_threads if t.is_alive()]
                self._reader_threads.append(thread)

    # -- routing (start_reading's on_message / on_error) -------------------
    def _route(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Route one message, whoever read it (a pool thread runs the
        requests it reads itself, and routes the rest here).  Every
        drive here may block; what differs is whose thread it is.  A
        reader thread runs what it read.  The pump runs on the sender's
        thread (over loopback the caller's), so a request that wants a
        reply goes to the pool, and what has no reply to reorder runs
        inline."""
        mtype = rm.msg_type
        if mtype is MsgType.Request or mtype is MsgType.LocateRequest:
            if self.workers is not None and mtype is MsgType.Request and \
                    rm.body_header.response_expected:
                # hand off; the reply leaves whenever the upcall is done
                self.workers.submit(conn, rm)
            else:
                # a reader thread dispatches inline; on the pump, oneway
                # requests do too: there is no reply to reorder, and the
                # seed's fire-and-forget semantics (visible effect once
                # send returns, FIFO among oneways) are part of the
                # loopback contract
                self._serve(conn, rm)
        elif mtype is MsgType.CloseConnection or \
                mtype is MsgType.MessageError:
            conn.close()
        elif mtype is not MsgType.CancelRequest and \
                mtype is not MsgType.Reply:
            # (a cancel is best effort: in-flight work completes; a
            # server awaits no replies, so a stale one is dropped)
            self._read_failed(conn, GIOPError(
                f"unexpected {mtype.name} on server connection"))

    def _serve(self, conn: GIOPConn, rm: ReceivedMessage) -> None:
        """Answer one Request or LocateRequest on a thread that may
        block: a pool thread, a reader dispatching inline, or the pump
        for what has no reply to reorder."""
        try:
            if rm.msg_type is MsgType.Request:
                self.dispatcher.dispatch(conn, rm)
                return
            req = rm.body_header
            status = (LocateStatus.OBJECT_HERE
                      if self.poa.find_servant(req.object_key) is not None
                      else LocateStatus.UNKNOWN_OBJECT)
            conn.send_message(LocateReplyHeader(
                request_id=req.request_id, locate_status=status))
        except SystemException:
            # the reply could not be written (client gone, wire
            # reset mid-send): drop this connection, not the server
            conn.close()

    def _read_failed(self, conn: GIOPConn, exc: BaseException) -> None:
        """Reading ended, on whichever drive.  A peer that sent garbage
        (a framing error, a message no server should see) is told so
        with a MessageError, written by the thread that read it, which
        may block.  The connection is closed whatever became of the
        courtesy."""
        if isinstance(exc, GIOPError):
            try:
                conn.send_error()
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
