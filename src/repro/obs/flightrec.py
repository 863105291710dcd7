"""Always-on flight recorder: bounded span history + slow-call sampler.

Distributed tracing (:mod:`repro.obs.dtrace`) answers "where did this
call spend its time" — but only when it was switched on *before* the
interesting call happened.  Production outliers do not announce
themselves, so every ORB keeps this recorder running by default: a
cheap, bounded ring of recent invocation roots, plus full span trees
(all stages, all nested calls) for exactly the calls that exceeded a
latency threshold.  When a p99 spike shows up on the ``/metrics``
latency histogram, the offending call's breakdown is already captured.

Cost model — why this can be on by default: **stamp, don't build**.

* an open call is one flat record (:class:`_FlightSpan`): integer ids
  from one ``itertools.count`` (no RNG draw) and ``(stage, seconds,
  bytes)`` tuples.  The 32 / 16-digit hex ids and the
  :class:`StageEvent` objects of schema v2 are made when somebody
  *reads* them (``/spans``, ``ORBMonitor``), which is mostly never;
* a stage is one :meth:`FlightRecorder.stamp` call appending to the
  innermost open record of a thread-local stack, no locking;
* fast calls keep only their header (name, duration, status): the
  per-stage detail is dropped at finish time (``detail_dropped`` counts
  them), so a finish is a ring append and a counter;
* nothing is injected into the GIOP wire format: unlike the
  distributed tracer, the recorder never adds a service context, so
  recorded and unrecorded ORBs are byte-identical on the wire.

The recorder mirrors the :class:`~repro.obs.dtrace.DistributedTracer`
driving interface (``begin_invocation`` / ``start_client_span`` /
``start_server_span`` / ``finish``) so the proxy and dispatcher drive
both through the same call sites, and each record is a :class:`Span`,
so the captured trees render with the existing ``repro-metrics tree``
tooling and export as span-schema-v2 dumps.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

from .dtrace import Span
from .events import EventSink, StageEvent

__all__ = ["FlightRecorder", "DEFAULT_SLOW_THRESHOLD"]

#: default slow-call threshold (seconds): loopback calls are tens of
#: microseconds, cross-host ones single-digit milliseconds, so 50 ms
#: flags genuine outliers on every transport without sampling noise
DEFAULT_SLOW_THRESHOLD = 0.050


class _OpenSpans(threading.local):
    """Per-thread stack of open spans, innermost last (every thread
    starts with an empty one)."""

    def __init__(self):
        self.stack: List["_FlightSpan"] = []


class _FlightSpan(Span):
    """A :class:`Span` stored flat, and the handle ``start_*_span``
    returns: the recorder stamps numbers in, a reader gets schema v2
    out — hex ids and :class:`StageEvent` objects computed on access.
    ``end_s`` / ``status`` start as :class:`Span`'s class defaults."""

    def __init__(self, trace: int, number: int, parent: Optional[int],
                 name: str, kind: str, node: str, start_s: float,
                 request_id: Optional[int] = None):
        self.trace = trace
        self.number = number
        self.parent = parent
        self.name = name
        self.kind = kind
        self.node = node
        self.start_s = start_s
        self.request_id = request_id
        #: ``(stage, seconds, nbytes)`` in arrival order
        self.stamps: list = []
        #: finished descendants, handed to their root by ``finish``
        self.children: list = []

    trace_id = property(lambda self: f"{self.trace:032x}")
    span_id = property(lambda self: f"{self.number:016x}")
    parent_id = property(lambda self: None if self.parent is None
                         else f"{self.parent:016x}")
    stages = property(lambda self: [StageEvent(*s) for s in self.stamps])
    span = property(lambda self: self)

    def record_status(self, status: Optional[str]) -> None:
        self.status = status


class FlightRecorder(EventSink):
    """Bounded recent-call ring + slow-call span-tree sampler.

    ``keep`` bounds the recent ring (root span headers), ``slow_keep``
    the slow ring (full trees).  ``slow_threshold`` is in seconds and
    may be adjusted on a live recorder.  ``enabled=False`` (or
    :meth:`disable`) stops span production; detaching the recorder
    from the ORB's sink chain entirely (``flight_recorder=False``)
    leaves the invocation path with no call into this package.
    """

    #: never ask the connection layer to split the control/deposit
    #: gather-write: the always-on recorder must not change the wire
    #: geometry (syscall count, fault-injection timing) of the
    #: zero-copy send path it observes
    wire_stages = False
    #: byte events are dropped here, so none are built for it
    byte_events = False

    def __init__(self, slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
                 keep: int = 256, slow_keep: int = 32, node: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock)
        if slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0: {slow_threshold}")
        self.slow_threshold = slow_threshold
        self.node = node
        self.enabled = True
        self._ids = itertools.count(1)  # .__next__ is atomic under the GIL
        self._tls = _OpenSpans()
        self._lock = threading.Lock()
        self._ring: Deque[_FlightSpan] = deque(maxlen=keep)
        self._slow: Deque[List[_FlightSpan]] = deque(maxlen=slow_keep)
        #: lifetime counters (read by the telemetry sampler)
        self.recorded_total = 0
        self.slow_sampled = 0
        self.detail_dropped = 0

    # -- switches ------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop producing spans (events to still-open spans are kept)."""
        self.enabled = False

    # -- span lifecycle (DistributedTracer-shaped) ---------------------------
    def begin_invocation(self) -> tuple:
        """Fix the trace identity for one logical client call: the
        ``(trace, parent)`` numbers every attempt's span is opened
        with."""
        stack = self._tls.stack
        if stack:
            top = stack[-1]
            return top.trace, top.number
        return next(self._ids), None

    def start_client_span(self, name: str, scope: tuple) -> _FlightSpan:
        trace, parent = scope
        span = _FlightSpan(trace, next(self._ids), parent, name, "client",
                           self.node, self.clock())
        self._tls.stack.append(span)
        return span

    def start_server_span(self, name: str, ctx=None,
                          request_id: Optional[int] = None) -> _FlightSpan:
        """Open the server side of an incoming request.

        The recorder is process-local — no context rides the wire — so
        the span parents under whatever is active on this thread (a
        same-process client span on synchronous transports) or roots a
        new trace on a clean dispatch thread.
        """
        stack = self._tls.stack
        if stack:
            top = stack[-1]
            trace, parent = top.trace, top.number
        else:
            trace, parent = next(self._ids), None
        span = _FlightSpan(trace, next(self._ids), parent, name, "server",
                           self.node, self.clock(), request_id)
        stack.append(span)
        return span

    def finish(self, active: _FlightSpan,
               status: Optional[str] = None) -> Span:
        """Close ``active``; record it when it is a root.

        Nested spans are handed to the root still on this thread's
        stack and travel with it; a finished root enters the recent
        ring — with full stage detail when it crossed the slow
        threshold (its whole subtree then also enters the slow ring),
        stripped to a header otherwise.  What is returned is what the
        readers below later yield.
        """
        stack = self._tls.stack
        while stack:
            if stack.pop() is active:
                break
        active.end_s = end_s = self.clock()
        if status is not None:
            active.status = status
        if stack:
            stack[0].children.append(active)
            return active
        # the ring keeps headers: a slow call's subtree goes to the slow
        # ring, a fast one's is dropped with its own per-stage detail —
        # this is what keeps the default-on recorder cheap
        children, active.children = active.children, ()
        slow = end_s - active.start_s >= self.slow_threshold
        if not slow:
            active.stamps = ()
        with self._lock:
            self.recorded_total += 1
            if slow:
                self.slow_sampled += 1
                self._slow.append([*children, active])
            else:
                self.detail_dropped += 1
            self._ring.append(active)
        return active

    # -- sink interface ------------------------------------------------------
    def stamp(self, stage: str, seconds: float, nbytes: int = 0) -> None:
        """Append the stage to the innermost span open on this thread;
        a reader or reactor thread, which has none, keeps nothing."""
        stack = self._tls.stack
        if stack and self.enabled:
            stack[-1].stamps.append((stage, seconds, nbytes))

    def emit(self, event) -> None:
        if isinstance(event, StageEvent):
            self.stamp(event.stage, event.duration_s, event.nbytes)

    # -- readers -------------------------------------------------------------
    def recent(self, n: int = 0) -> List[Span]:
        """The last ``n`` recorded root spans, oldest first (0 = all)."""
        with self._lock:
            spans = list(self._ring)
        return spans[-n:] if n > 0 else spans

    def slow_trees(self, n: int = 0) -> List[List[Span]]:
        """The last ``n`` slow-call span trees, oldest first (0 = all)."""
        with self._lock:
            trees = [list(t) for t in self._slow]
        return trees[-n:] if n > 0 else trees

    def spans(self, n: int = 0) -> List[Span]:
        """Slow-tree members plus recent roots, deduplicated by span
        id, oldest first — the ``/spans`` and ``recent_spans(n)``
        payload (``n`` bounds the *root* count, 0 = all)."""
        roots, trees = self.recent(n), self.slow_trees()
        keep_traces = {s.trace for s in roots}
        seen = {s.number for s in roots}
        out: List[Span] = []
        for tree in trees:
            for span in tree:
                if span.trace in keep_traces and span.number not in seen:
                    seen.add(span.number)
                    out.append(span)
        out.extend(roots)
        out.sort(key=lambda s: s.start_s)
        return out

    def counters(self) -> dict:
        """Lifetime counters + ring occupancy (for the sampler)."""
        with self._lock:
            return {
                "recorded_total": self.recorded_total,
                "slow_sampled": self.slow_sampled,
                "detail_dropped": self.detail_dropped,
                "ring_spans": len(self._ring),
                "slow_trees": len(self._slow),
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow.clear()

    def __repr__(self) -> str:  # pragma: no cover
        c = self.counters()
        return (f"<FlightRecorder {'on' if self.enabled else 'off'} "
                f"recorded={c['recorded_total']} "
                f"slow={c['slow_sampled']} "
                f"threshold={self.slow_threshold:g}s>")
