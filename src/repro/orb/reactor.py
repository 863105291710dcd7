"""The asyncio reactor: event-loop ownership of GIOP read sides.

A reader thread per connection tops out at hundreds of peers.  This
module is the drive :meth:`GIOPConn.start_reading
<repro.orb.connection.GIOPConn.start_reading>` chooses for every
adoptable TCP connection (a client's once it is awaited on): its *read*
side moves onto one asyncio event loop running on its own daemon thread.

* readiness is delivered by ``loop.add_reader(fd, cb)`` — level
  triggered, so a callback that leaves bytes unread is re-armed;
* each readiness callback drains the socket through
  ``GIOPConn._read_nb``, the read every drive makes: non-blocking
  ``recv_into_nb`` calls feeding the connection's resumable GIOP
  parser (``GIOPConn._read_message_gen``), so framing, byte accounting,
  and CORBA exception mapping cannot diverge;
* completed messages are handed to ``on_message`` and every other end
  of reading to ``on_error``, under ``start_reading``'s contract — both
  run on the loop thread and must not block (servant up-calls go to
  the worker pool, reply sends happen on worker/caller threads; the
  loop parses, and writes only what the socket takes at once).

Sockets stay in *blocking* mode: reads use ``MSG_DONTWAIT``
(``TCPStream.recv_into_nb``), and so does the one write an awaiting
caller makes on its loop (``sendv(chunks, False)``).  The loop adopts
only a ``reactor_safe`` stream (tcp, a FaultyStream over tcp): loopback
and sim have no socket and are pumped, and shm stays on reader threads
by choice (DESIGN.md §15, "Adoption gate").

Loop health is exported through every attached ORB's metrics registry:
``loop_lag_seconds`` (scheduled-vs-actual heartbeat delta) and
``loop_tasks`` (pending tasks + attached drivers), both labelled
``shard="0"``, so ``/metrics``, ``ORBMonitor.snapshot()``, and
``repro-top`` show reactor saturation.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from typing import Callable, Optional

from ..obs.stages import STAGE_RECV_WAIT

__all__ = ["Reactor", "get_reactor", "reset_reactor"]

#: heartbeat period for the loop-lag probe (seconds)
_HEARTBEAT = 0.05


class _ConnDriver:
    """Feeds one connection's resumable parser (the connection's own:
    it may be half way through a message) from readiness events.

    Lives entirely on the reactor's loop thread after attach; the only
    cross-thread entry points are :meth:`request_detach` (scheduled via
    ``call_soon_threadsafe`` from the conn's close hook) and the
    pause/resume pair, which the server's backpressure logic also calls
    from the loop thread.
    """

    __slots__ = ("conn", "reactor", "fd", "on_message", "on_error",
                 "wait_stage", "_paused", "_detached")

    def __init__(self, conn, reactor: "Reactor", on_message, on_error,
                 wait_stage: Optional[str]):
        self.conn = conn
        self.reactor = reactor
        self.fd = conn.stream.fileno()
        self.on_message = on_message
        self.on_error = on_error
        self.wait_stage = wait_stage
        self._paused = False
        self._detached = False

    # -- attach/detach (loop thread) ----------------------------------------
    def attach(self) -> None:
        if self._detached or self.conn.closed:
            return  # closed before the loop ran us: the fd is dead
        self.reactor._drivers[self.fd] = self
        self.reactor.loop.add_reader(self.fd, self._on_readable)

    def detach(self) -> None:
        if self._detached:
            return
        self._detached = True
        # fd-reuse guard: only unregister if this fd still maps to *us*
        # (a new conn may have been adopted on a recycled fd already)
        if self.reactor._drivers.get(self.fd) is self:
            del self.reactor._drivers[self.fd]
            if not self._paused:
                try:
                    self.reactor.loop.remove_reader(self.fd)
                except (OSError, ValueError):
                    pass
        gen, self.conn._gen = self.conn._gen, None
        if gen is not None:
            gen.close()

    def request_detach(self) -> None:
        """Thread-safe detach entry point (the conn close hook)."""
        loop = self.reactor.loop
        if loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self.detach)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    # -- backpressure (loop thread) -----------------------------------------
    def pause(self) -> None:
        """Stop reading this fd (server queue full)."""
        if self._paused or self._detached:
            return
        self._paused = True
        try:
            self.reactor.loop.remove_reader(self.fd)
        except (OSError, ValueError):
            pass

    def resume(self) -> None:
        """Re-arm readiness; immediately drains anything buffered."""
        if not self._paused or self._detached:
            return
        self._paused = False
        self.reactor.loop.add_reader(self.fd, self._on_readable)
        # level-triggered add_reader only fires on *socket* readability;
        # run one drain pass now in case the kernel buffer already has
        # the next message
        self._on_readable()

    # -- the drain loop (loop thread) ---------------------------------------
    def _on_readable(self) -> None:
        """Deliver every message the socket holds.  Whatever the parse
        raises, mapped from a failed read or over what the peer sent,
        ends reading: ``on_error``, once."""
        conn = self.conn
        while not self._detached and not self._paused:
            if conn.closed and conn._gen is None:
                self.detach()  # the owner closed it between two messages
                return
            try:
                rm = conn._read_nb(self.wait_stage)
            except BaseException as exc:
                self.detach()
                self.on_error(exc, self)
                return
            if rm is None:
                return  # would block: wait for the next readiness event
            self.on_message(rm, self)


class Reactor:
    """One event loop on one daemon thread owning GIOP read sides."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        #: fd -> attached driver (loop thread only)
        self._drivers: dict = {}
        self._expected = 0.0
        #: ORBs whose metrics registries receive loop-health series;
        #: weakly held so an abandoned ORB doesn't pin its registry
        self._orbs: "weakref.WeakSet" = weakref.WeakSet()
        self._thread = threading.Thread(
            target=self._run, name="giop-reactor-0", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._arm_heartbeat)
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    # -- adoption -----------------------------------------------------------
    @staticmethod
    def adoptable(stream) -> bool:
        """True when the reactor may own this stream's read side."""
        return bool(getattr(stream, "reactor_safe", False))

    def adopt(self, conn, on_message: Callable, on_error: Callable,
              wait_stage: Optional[str] = STAGE_RECV_WAIT) -> "_ConnDriver":
        """Hand ``conn``'s read side to the loop.

        ``on_message(rm, driver)`` and ``on_error(exc, driver)`` run
        on the loop thread and must not block (the driver: for
        pause/resume backpressure).  The conn's close hook detaches
        the driver, so callers never unregister by hand.
        """
        driver = _ConnDriver(conn, self, on_message, on_error, wait_stage)
        conn.add_close_hook(driver.request_detach)
        self.loop.call_soon_threadsafe(driver.attach)
        return driver

    def run_sync(self, coro, timeout: Optional[float] = None):
        """Run a coroutine on the loop from a non-loop thread and wait.
        ``RuntimeError`` on the loop's own thread; a timeout cancels it."""
        if threading.current_thread() is self._thread:
            coro.close()
            raise RuntimeError("run_sync called on the reactor's loop thread")
        fut = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return fut.result(timeout)
        except BaseException:
            fut.cancel()  # nothing to cancel if the coroutine raised it
            raise

    # -- loop health (loop thread) ------------------------------------------
    def attach_orb(self, orb) -> None:
        """Start mirroring loop health into ``orb``'s metrics registry
        (a no-op until the ORB has one — enable_tracing/telemetry)."""
        self._orbs.add(orb)

    def _arm_heartbeat(self) -> None:
        self._expected = self.loop.time() + _HEARTBEAT
        self.loop.call_later(_HEARTBEAT, self._heartbeat)

    def _heartbeat(self) -> None:
        lag = max(0.0, self.loop.time() - self._expected)
        tasks = len(asyncio.all_tasks(self.loop)) + len(self._drivers)
        for orb in list(self._orbs):
            registry = getattr(orb, "metrics", None)
            if registry is None:
                continue
            # one loop; the label keeps the series a second one would add to
            registry.histogram("loop_lag_seconds", shard="0").observe(lag)
            registry.gauge("loop_tasks", shard="0").set(tasks)
        self._arm_heartbeat()

    # -- lifecycle ----------------------------------------------------------
    def stop(self, join_timeout: float = 1.0) -> None:
        if self.loop.is_closed():
            return
        try:
            self.loop.call_soon_threadsafe(self.loop.stop)
        except RuntimeError:
            return
        self._thread.join(timeout=join_timeout)


_reactor: Optional[Reactor] = None
_reactor_lock = threading.Lock()


def get_reactor() -> Reactor:
    """The process-wide reactor (created lazily on first use): the
    loop is a process resource, not a per-ORB one."""
    global _reactor
    with _reactor_lock:
        if _reactor is None:
            _reactor = Reactor()
        return _reactor


def reset_reactor() -> None:
    """Stop and forget the process-wide reactor (tests only)."""
    global _reactor
    with _reactor_lock:
        reactor, _reactor = _reactor, None
    if reactor is not None:
        reactor.stop()
