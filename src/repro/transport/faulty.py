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
from dataclasses import dataclass
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


class FaultyStream:
    """A stream that consults the plan before every send/recv."""

    #: never hand the read side to the reactor: ``__getattr__`` below
    #: delegates unknown attributes to the inner stream, so without this
    #: explicit class attribute a wrapped TCPStream would leak its own
    #: ``reactor_safe``, the event loop would run :meth:`recv_into_nb`,
    #: which sleeps on a stall, and an awaited call would pass ``sendv``
    #: a flag it does not take.
    reactor_safe = False

    def __init__(self, inner, plan: FaultPlan, conn_index: int):
        self._inner = inner
        self._plan = plan
        self.conn_index = conn_index
        self._sends = 0
        self._recvs = 0
        #: bytes of the staged read the plan already saw still to come
        self._missing = 0

    # -- sending ---------------------------------------------------------------
    def send(self, data) -> None:
        self.sendv([data])

    def sendv(self, chunks) -> None:
        self._sends += 1
        rule = self._plan.match("send", self._sends, self.conn_index)
        if rule is None:
            return self._inner.sendv(chunks)
        views = _byte_views(chunks)
        total = sum(v.nbytes for v in views)
        action = rule.action
        if action in ("stall", "stall_then_reset") and rule.delay > 0:
            time.sleep(rule.delay)
        if action == "stall":
            self._plan.record(self.conn_index, "send", self._sends, action,
                              f"{rule.delay}s")
            return self._inner.sendv(views)
        if action in ("reset", "stall_then_reset"):
            self._plan.record(self.conn_index, "send", self._sends, action)
            self._inner.close()
            raise TransportError(
                f"injected reset on send #{self._sends} "
                f"(connection {self.conn_index})")
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
            self._plan.record(self.conn_index, "send", self._sends, action,
                              f"{cut}/{total} bytes")
            self._inner.close()
            raise TransportError(
                f"injected mid-stream reset after {cut}/{total} bytes "
                f"(connection {self.conn_index})")
        if action == "corrupt":
            # flatten and flip one byte; never mutate the caller's
            # buffers — a registered deposit payload is live memory
            flat = bytearray()
            for v in views:
                flat += v
            if flat:
                off = min(rule.byte_offset, len(flat) - 1)
                flat[off] ^= rule.xor_mask
            self._plan.record(self.conn_index, "send", self._sends, action,
                              f"byte {rule.byte_offset} ^ "
                              f"0x{rule.xor_mask:02x}")
            return self._inner.sendv([memoryview(flat)])
        raise TransportError(f"unhandled fault action {action!r}")

    # -- receiving ---------------------------------------------------------------
    def recv_exact(self, n: int) -> memoryview:
        out = bytearray(n)
        self.recv_into(memoryview(out))
        return memoryview(out)

    def recv_into(self, view: memoryview) -> None:
        self._inject_recv(view)
        self._inner.recv_into(view)

    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        """The plan sees each staged read once, as it starts and finds
        bytes, or the end, there (a read that finds none consumes no
        number), and injects as on :meth:`recv_into`: it may sleep."""
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        if not self._missing:
            if not self._readable():
                return None
            self._inject_recv(view)
            self._missing = view.nbytes
        n = self._inner.recv_into_nb(view)
        if n:
            self._missing -= n
        return n

    def _readable(self) -> bool:
        available = getattr(self._inner, "available", None)
        if available is None:  # a socket; a closed one fails at once
            fd = self._inner.fileno()
            return fd < 0 or bool(select.select([fd], [], [], 0)[0])
        return available > 0 or self._inner.closed

    def _inject_recv(self, view: memoryview) -> None:
        """Consult the plan for the next read into ``view``: a stall
        sleeps first, a reset or a partial delivery raises."""
        self._recvs += 1
        rule = self._plan.match("recv", self._recvs, self.conn_index)
        if rule is None:
            return
        action = rule.action
        if action in ("stall", "stall_then_reset") and rule.delay > 0:
            time.sleep(rule.delay)
        if action == "stall":
            self._plan.record(self.conn_index, "recv", self._recvs, action,
                              f"{rule.delay}s")
            return
        if action in ("reset", "stall_then_reset"):
            self._plan.record(self.conn_index, "recv", self._recvs, action)
            self._inner.close()
            raise TransportError(
                f"injected reset on recv #{self._recvs} "
                f"(connection {self.conn_index})")
        if action == "partial":
            if view.format != "B" or view.ndim != 1:
                view = view.cast("B")
            cut = int(view.nbytes * rule.fraction)
            if cut:
                self._inner.recv_into(view[:cut])
            self._plan.record(self.conn_index, "recv", self._recvs, action,
                              f"{cut}/{view.nbytes} bytes")
            self._inner.close()
            raise TransportError(
                f"injected reset after {cut}/{view.nbytes} bytes landed "
                f"(connection {self.conn_index})")
        raise TransportError(f"unhandled fault action {action!r}")

    def send_file(self, fd: int, offset: int, count: int) -> bool:
        """A fault-injected stream is not a plain socket: read the file
        range and push it through this stream's own ``sendv`` so the
        plan's send rules still apply.  Always the copying tier
        (returns False) — ``__getattr__`` must not silently delegate
        ``send_file`` to the inner socket, which would bypass every
        injected fault on the payload bytes."""
        sent = 0
        while sent < count:
            chunk = os.pread(fd, min(256 * 1024, count - sent),
                             offset + sent)
            if not chunk:
                raise TransportError(
                    f"file truncated with {count - sent} bytes "
                    f"outstanding (connection {self.conn_index})")
            self.sendv([chunk])
            sent += len(chunk)
        return False

    # -- passthrough ---------------------------------------------------------------
    def close(self) -> None:
        self._inner.close()

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
