"""Fault-injection transport: deterministic wire failures on demand.

Wraps any registered transport (loopback, TCP, sim) and injects faults
according to a :class:`FaultPlan` — a seeded, per-connection schedule of
connect refusals, mid-stream resets, partial gather-writes/reads, stalls
(to trip request deadlines) and corruption of GIOP control bytes.  The
wrapper adopts the inner transport's scheme, so existing IORs resolve
through it unchanged and the ORB above cannot tell the difference until
the wire misbehaves.

Determinism: every rule fires on an explicit (operation kind, nth
operation, nth connection) coordinate; probabilistic rules draw from a
``random.Random(seed)`` owned by the plan, so a given plan replays the
same fault sequence on every run.  Fired faults are recorded in
:attr:`FaultPlan.events` for test assertions.

This is the test harness for the resilience layer in
:mod:`repro.orb.policy`: the paper's zero-copy path only pays off if
the ORB stays correct when the network does not.
"""

from __future__ import annotations

import os
import random
import select
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

from .base import (AcceptHandler, Endpoint, TransportError,
                   TransportTimeout)

__all__ = ["FaultPlan", "FaultRule", "FaultEvent", "FaultyTransport",
           "FaultyStream", "faulty_registry"]

#: fault actions understood by :class:`FaultyStream` / connect
ACTIONS = ("refuse", "reset", "partial", "stall", "stall_then_reset",
           "corrupt")


@dataclass
class FaultRule:
    """One scheduled fault: fire on the nth ``op`` of a connection."""

    op: str                       #: "connect" | "send" | "recv"
    action: str                   #: one of :data:`ACTIONS`
    nth: Optional[int] = None     #: 1-based op index; None = next op
    conn: Optional[int] = None    #: 1-based connection index; None = any
    fraction: float = 0.5         #: for "partial": bytes delivered
    delay: float = 0.0            #: for "stall*": seconds to sleep
    byte_offset: int = 0          #: for "corrupt": byte to flip
    xor_mask: int = 0xFF          #: for "corrupt": flip pattern
    probability: float = 1.0      #: seeded-random gate
    once: bool = True             #: consume the rule after it fires
    fired: int = 0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired (the plan's audit log)."""

    conn: int
    op: str
    nth: int
    action: str
    detail: str = ""


class FaultPlan:
    """A seeded, deterministic schedule of wire faults.

    Builder methods append rules and return ``self`` so plans chain::

        plan = (FaultPlan(seed=7)
                .refuse_connect(nth=1)
                .partial_send(nth=1, fraction=0.5, conn=2))
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: List[FaultRule] = []
        self.events: List[FaultEvent] = []
        self._rng = random.Random(seed)
        self._connects = 0
        self._lock = threading.Lock()

    # -- builders ------------------------------------------------------------
    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def refuse_connect(self, nth: int = 1, **kw) -> "FaultPlan":
        return self.add(FaultRule(op="connect", action="refuse", nth=nth,
                                  **kw))

    def stall_connect(self, nth: int = 1, delay: float = 0.05,
                      **kw) -> "FaultPlan":
        return self.add(FaultRule(op="connect", action="stall", nth=nth,
                                  delay=delay, **kw))

    def reset_on_send(self, nth: int = 1, conn: Optional[int] = None,
                      **kw) -> "FaultPlan":
        return self.add(FaultRule(op="send", action="reset", nth=nth,
                                  conn=conn, **kw))

    def partial_send(self, nth: int = 1, fraction: float = 0.5,
                     conn: Optional[int] = None, **kw) -> "FaultPlan":
        return self.add(FaultRule(op="send", action="partial", nth=nth,
                                  fraction=fraction, conn=conn, **kw))

    def stall_send(self, nth: int = 1, delay: float = 0.05,
                   conn: Optional[int] = None, **kw) -> "FaultPlan":
        return self.add(FaultRule(op="send", action="stall", nth=nth,
                                  delay=delay, conn=conn, **kw))

    def stall_then_reset_send(self, nth: int = 1, delay: float = 0.05,
                              conn: Optional[int] = None,
                              **kw) -> "FaultPlan":
        return self.add(FaultRule(op="send", action="stall_then_reset",
                                  nth=nth, delay=delay, conn=conn, **kw))

    def corrupt_send(self, nth: int = 1, byte_offset: int = 0,
                     xor_mask: int = 0xFF, conn: Optional[int] = None,
                     **kw) -> "FaultPlan":
        return self.add(FaultRule(op="send", action="corrupt", nth=nth,
                                  byte_offset=byte_offset,
                                  xor_mask=xor_mask, conn=conn, **kw))

    def reset_on_recv(self, nth: int = 1, conn: Optional[int] = None,
                      **kw) -> "FaultPlan":
        return self.add(FaultRule(op="recv", action="reset", nth=nth,
                                  conn=conn, **kw))

    def partial_recv(self, nth: int = 1, fraction: float = 0.5,
                     conn: Optional[int] = None, **kw) -> "FaultPlan":
        return self.add(FaultRule(op="recv", action="partial", nth=nth,
                                  fraction=fraction, conn=conn, **kw))

    def stall_recv(self, nth: int = 1, delay: float = 0.05,
                   conn: Optional[int] = None, **kw) -> "FaultPlan":
        return self.add(FaultRule(op="recv", action="stall", nth=nth,
                                  delay=delay, conn=conn, **kw))

    # -- matching ------------------------------------------------------------
    def next_connect_index(self) -> int:
        with self._lock:
            self._connects += 1
            return self._connects

    def match(self, op: str, nth: int, conn: int) -> Optional[FaultRule]:
        """The first live rule matching this operation, consumed if
        ``once``; probabilistic rules draw from the plan's seeded RNG."""
        with self._lock:
            for rule in self.rules:
                if rule.op != op:
                    continue
                if rule.once and rule.fired:
                    continue
                if rule.nth is not None and rule.nth != nth:
                    continue
                if rule.conn is not None and rule.conn != conn:
                    continue
                if rule.probability < 1.0 and \
                        self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                return rule
        return None

    def record(self, conn: int, op: str, nth: int, action: str,
               detail: str = "") -> None:
        with self._lock:
            self.events.append(FaultEvent(conn=conn, op=op, nth=nth,
                                          action=action, detail=detail))


def _byte_views(chunks) -> list:
    views = [c if isinstance(c, memoryview) else memoryview(c)
             for c in chunks]
    return [v.cast("B") if (v.format != "B" or v.ndim != 1) else v
            for v in views]


#: the actions that wait: a write sleeps in them, a read holds the stream
_WAITING = ("stall", "stall_then_reset")


class FaultyStream:
    """A stream that consults the plan before every send and every
    staged read, and keeps the non-blocking contract of the stream it
    wraps: :meth:`recv_into_nb` never waits, and ``sendv(chunks,
    False)`` hands back what would.

    A recv stall is a *hold*: the read returns None, and the stream
    reports nothing ready until the delay has passed.  Over a socket,
    ``fileno()`` is a private ``epoll`` holding the inner socket and an
    eventfd this end writes as it closes (a poller then wakes whatever
    is held): the hold takes the socket out, a timer puts it back.  Over
    a pumped stream (loopback, sim) the timer runs the pump again."""

    def __init__(self, inner, plan: FaultPlan, conn_index: int):
        self._inner = inner
        self._plan = plan
        self.conn_index = conn_index
        self._sends = self._recvs = 0
        #: bytes of the staged read the plan already saw still to come
        self._missing = 0
        #: the timer of the recv stall that holds the stream, if one does
        self._hold: Optional[threading.Timer] = None
        self._lock = threading.Lock()
        self._epoll = self._pump = None
        if hasattr(inner, "fileno"):
            self._fd, self._closed_fd = inner.fileno(), os.eventfd(0)
            self._epoll = select.epoll()
            for fd in (self._fd, self._closed_fd):
                self._epoll.register(fd, select.EPOLLIN)
            # the epoll closes with this object, the eventfd as it goes,
            # not in close(): a poller woken by it must still find it
            weakref.finalize(self, os.close, self._closed_fd)
            self.fileno = self._epoll.fileno
        elif hasattr(inner, "set_data_handler"):
            self.set_data_handler = self._set_pump

    def _set_pump(self, handler) -> None:
        self._pump = handler
        self._inner.set_data_handler(handler)

    def _fail(self, op: str, nth: int, action: str, detail: str,
              why: str) -> TransportError:
        """Record a fault that ends the stream and close it: the error
        to raise."""
        self._plan.record(self.conn_index, op, nth, action, detail)
        self.close()
        return TransportError(f"{why} (connection {self.conn_index})")

    # -- sending ---------------------------------------------------------------
    def send(self, data) -> None:
        self.sendv([data])

    def sendv(self, chunks, block: bool = True):
        """``block=False`` (an awaited call's write on its loop): a
        matched rule, which may wait, comes back as a callable for a
        thread that may block, its plan number already taken."""
        self._sends += 1
        rule = self._plan.match("send", self._sends, self.conn_index)
        if rule is None:
            return self._inner.sendv(chunks) if block \
                else self._inner.sendv(chunks, False)
        if not block:
            return partial(self._inject_send, rule, self._sends, chunks)
        return self._inject_send(rule, self._sends, chunks)

    def _inject_send(self, rule: FaultRule, nth: int, chunks):
        views = _byte_views(chunks)
        total = sum(v.nbytes for v in views)
        action = rule.action
        if action in _WAITING and rule.delay > 0:
            time.sleep(rule.delay)
        if action == "stall":
            self._plan.record(self.conn_index, "send", nth, action,
                              f"{rule.delay}s")
            return self._inner.sendv(views)
        if action in ("reset", "stall_then_reset"):
            raise self._fail("send", nth, action, "",
                             f"injected reset on send #{nth}")
        if action == "partial":
            cut = int(total * rule.fraction)
            prefix, left = [], cut
            for v in views:
                if left <= 0:
                    break
                take = min(left, v.nbytes)
                prefix.append(v[:take])
                left -= take
            if prefix:
                self._inner.sendv(prefix)
            raise self._fail("send", nth, action, f"{cut}/{total} bytes",
                             f"injected mid-stream reset after {cut}/"
                             f"{total} bytes")
        if action == "corrupt":
            # flatten and flip one byte; never mutate the caller's
            # buffers — a registered deposit payload is live memory
            flat = bytearray()
            for v in views:
                flat += v
            if flat:
                off = min(rule.byte_offset, len(flat) - 1)
                flat[off] ^= rule.xor_mask
            self._plan.record(self.conn_index, "send", nth, action,
                              f"byte {rule.byte_offset} ^ "
                              f"0x{rule.xor_mask:02x}")
            return self._inner.sendv([memoryview(flat)])
        raise TransportError(f"unhandled fault action {action!r}")

    # -- receiving ---------------------------------------------------------------
    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        """The plan sees each staged read once, as it starts and finds
        bytes, or the end, there (a read that finds none takes no
        number).  Nothing here waits: a stall holds the stream, a
        partial delivery lands what is there of its cut."""
        if self._hold is not None:
            return None
        if not self._missing:
            if not (self._epoll.poll(0) if self._epoll is not None
                    else self._inner.available or self._inner.closed):
                return None
            self._recvs += 1
            self._missing = view.nbytes
            rule = self._plan.match("recv", self._recvs, self.conn_index)
            if rule is not None and self._inject_recv(rule, view):
                return None
        n = self._inner.recv_into_nb(view)
        if n:
            self._missing -= n
        return n

    def _inject_recv(self, rule: FaultRule, view: memoryview) -> bool:
        """Apply ``rule`` to the staged read of ``view``: True when a
        stall holds it; a reset or a partial delivery raises."""
        action, nth = rule.action, self._recvs
        if action == "stall" or action in _WAITING and rule.delay > 0:
            self._plan.record(self.conn_index, "recv", nth, action,
                              f"{rule.delay}s")
            if rule.delay <= 0:
                return False  # a stall of no time: the read goes on
            with self._lock:
                timer = self._hold = threading.Timer(
                    rule.delay, self._release, (action == "stall",))
                timer.daemon = True
                if self._epoll is not None:
                    self._epoll.unregister(self._fd)
            timer.start()
            return True
        if action in _WAITING or action == "reset":
            raise self._fail("recv", nth, action, "",
                             f"injected reset on recv #{nth}")
        if action == "partial":
            cut = int(view.nbytes * rule.fraction)
            landed = (self._inner.recv_into_nb(view[:cut]) or 0) if cut else 0
            raise self._fail("recv", nth, action,
                             f"{landed}/{view.nbytes} bytes",
                             f"injected reset after {landed}/{view.nbytes} "
                             f"bytes landed")
        raise TransportError(f"unhandled fault action {action!r}")

    def _release(self, ready: bool) -> None:
        """The end of a hold, on its timer's thread: the stream is
        ready again (a stall) or at its end (``stall_then_reset``)."""
        with self._lock:
            if self._hold is not threading.current_thread():
                return  # closed meanwhile
            self._hold = None
            if ready and self._epoll is not None:
                self._epoll.register(self._fd, select.EPOLLIN)
                return
        if not ready:
            self.close()
        elif self._pump is not None:
            self._pump()

    #: not delegated to the inner socket, whose kernel path would bypass
    #: every injected fault: a file payload is a mapped view through
    #: :meth:`sendv`, the copying tier
    send_file = None

    # -- passthrough ---------------------------------------------------------------
    def close(self) -> None:
        """Close the inner stream and end a hold: a poller wakes to a
        read that finds the end."""
        with self._lock:
            hold, self._hold = self._hold, None
        if hold is not None:
            hold.cancel()
        self._inner.close()
        if self._epoll is not None:
            os.eventfd_write(self._closed_fd, 1)

    @property
    def peer(self) -> str:
        return self._inner.peer

    def __getattr__(self, name):
        # optional capabilities (available, set_data_handler,
        # set_timeout...) delegate to whatever the inner stream offers
        return getattr(self._inner, name)


class FaultyTransport:
    """Wraps an inner transport, injecting faults per the plan.

    Adopts the inner scheme, so registering this in place of the inner
    transport makes every connection of that scheme fault-injected.
    Only dialed (client-side) streams are wrapped; accepted streams pass
    through untouched, which keeps server behaviour authentic.
    """

    def __init__(self, inner, plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.plan = plan or FaultPlan()

    @property
    def scheme(self) -> str:
        return self.inner.scheme

    def connect(self, endpoint: Endpoint, timeout: Optional[float] = None):
        idx = self.plan.next_connect_index()
        rule = self.plan.match("connect", idx, idx)
        if rule is not None:
            if rule.delay > 0:
                if timeout is not None and rule.delay > timeout:
                    # the injected stall outlasts the caller's dial
                    # deadline: sleep only the deadline, then surface
                    # the expiry exactly as a real slow peer would
                    time.sleep(timeout)
                    self.plan.record(idx, "connect", idx, rule.action,
                                     f"timed out after {timeout}s")
                    raise TransportTimeout(
                        f"injected dial stall exceeded the {timeout}s "
                        f"connect timeout (connection {idx})")
                time.sleep(rule.delay)
            if rule.action == "refuse":
                self.plan.record(idx, "connect", idx, "refuse")
                raise TransportError(
                    f"injected connect refusal (connection {idx})")
            self.plan.record(idx, "connect", idx, rule.action,
                             f"{rule.delay}s")
        stream = self.inner.connect(endpoint, timeout=timeout)
        return FaultyStream(stream, self.plan, idx)

    def listen(self, host: str, port: int, on_accept: AcceptHandler):
        return self.inner.listen(host, port, on_accept)


def faulty_registry(plan: FaultPlan):
    """A transport registry whose built-in transports are all wrapped
    by ``plan`` — drop-in for ``ORB(transports=...)`` in tests."""
    from .base import TransportRegistry
    from .loopback import LoopbackTransport
    from .tcp import TCPTransport

    reg = TransportRegistry()
    reg.register(FaultyTransport(LoopbackTransport(), plan))
    reg.register(FaultyTransport(TCPTransport(), plan))
    return reg
