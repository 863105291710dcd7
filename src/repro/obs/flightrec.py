"""The one span model: where a call's record lives, and the always-on
flight recorder that keeps it.

A call is ONE flat record (:class:`_FlightSpan`) on ONE per-thread
stack, and :class:`FlightRecorder` is the only thing that opens, stamps
and closes it (``begin_invocation`` / ``start_client_span`` /
``start_server_span`` / ``stamp`` / ``finish``; DESIGN.md section 8).
It is also the only object the ORB layers report to: the connection,
the proxy and the dispatcher of an ORB stamp their stages into it and,
while a :class:`~repro.obs.tracing.WireTracer` is attached
(:attr:`FlightRecorder.wire`), hand it each GIOP message as a
:class:`~repro.obs.events.WireEvent`.  Everything else that wants to
know about calls *reads* finished records: the recorder's own rings,
and whatever ``enable_tracing`` appended to
:attr:`FlightRecorder.consumers` (the per-call stage breakdown of
:mod:`repro.obs.tracing`, the span collector of
:mod:`repro.obs.dtrace`).  A slow call caught here and the trace that
rode the wire are therefore the same object under the same ids.

Production outliers do not announce themselves, so every ORB keeps the
recorder running by default: a cheap, bounded ring of recent invocation
roots, plus full span trees (all stages, all nested calls) for exactly
the calls that exceeded a latency threshold.

Cost model, why this can be on by default: **stamp, don't build**.

* an open call is one flat record: integer ids (a random per-recorder
  prefix drawn once, then one ``itertools.count``: no RNG draw per
  call) and ``(stage, seconds, bytes)`` tuples.  The 32 / 16-digit hex
  ids and the :class:`StageEvent` objects of schema v2 are made when
  somebody *reads* them (``/spans``, ``ORBMonitor``), mostly never;
* a stage is one :meth:`FlightRecorder.stamp` call appending to the
  innermost open record of the calling thread, no locking;
* fast calls keep only their header (name, duration, status): the
  per-stage detail is dropped at finish time (``detail_dropped`` counts
  them), so a finish is a ring append and a counter;
* the recorder puts nothing on the wire: a trace context is injected
  only while a :class:`~repro.obs.dtrace.DistributedTracer` is attached,
  so recorded and unrecorded ORBs are byte-identical on the wire.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

from .dtrace import Span, TraceContext
from .events import StageEvent, StageSpan

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
    out, hex ids and :class:`StageEvent` objects computed on access.
    ``end_s`` / ``status`` start as :class:`Span`'s class defaults."""

    #: the trace's sampling decision, made at its root and carried to
    #: every descendant (and across the wire); only a tracer clears it
    sampled = True
    #: a client span's GIOP ``ReplyStatus``, once a reply was read
    reply_status = None

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
    context = property(lambda self: TraceContext(
        self.trace_id, self.span_id, self.sampled))

    # the byte / second splits straight off the stamps (a collector's
    # metrics read four of them per span: no StageEvent is built, and
    # a list, unlike a generator, is one call however many stamps match)
    def _bytes(self, stages) -> int:
        return sum([s[2] for s in self.stamps if s[0] in stages])

    def _seconds(self, stages) -> float:
        return sum([s[1] for s in self.stamps if s[0] in stages])


class FlightRecorder:
    """The span producer, with a bounded recent-call ring and a
    slow-call span-tree sampler behind it.

    ``keep`` bounds the recent ring (root span headers), ``slow_keep``
    the slow ring (full trees); both 0 leaves a producer that keeps
    nothing itself (what ``enable_tracing`` builds on an ORB with
    ``flight_recorder=False``).  ``slow_threshold`` is in seconds and
    may be adjusted on a live recorder.  ``enabled=False`` (or
    :meth:`disable`) stops span production, for every reader; an ORB
    with no producer at all leaves the invocation path with no call
    into this package.  ``clock`` is injectable (defaults to
    ``time.perf_counter``): every stage the ORB layers stamp, and every
    :meth:`stage` span, is measured with it.
    """

    def __init__(self, slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
                 keep: int = 256, slow_keep: int = 32, node: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        if slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0: {slow_threshold}")
        self.slow_threshold = slow_threshold
        self.node = node
        self.enabled = True
        # ids without an RNG draw per call: one random 64-bit prefix per
        # recorder, so dumps of two processes merge into disjoint
        # traces.  Span numbers count up from its low half (kept under
        # 2**63, count()'s fast path), so two recorders that join one
        # foreign trace do not hand out the same span id either
        prefix = int.from_bytes(os.urandom(8), "big")
        self._trace_base = prefix << 64
        #: the span id source; ``.__next__`` is atomic under the GIL
        self._ids = itertools.count(((prefix & 0xFFFFFFFF) << 31) + 1)
        #: the attached :class:`~repro.obs.dtrace.DistributedTracer`:
        #: roots draw their trace id and sampling decision from it
        self.tracer = None
        #: callables handed every finished span, on the finishing thread
        self.consumers: list = []
        #: the attached :class:`~repro.obs.tracing.WireTracer`: a
        #: :class:`WireEvent` is built for each GIOP message only while
        #: there is one
        self.wire = None
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
        """Stop producing spans, for every reader (a span already open
        is still finished, but takes no more stamps)."""
        self.enabled = False

    def attach(self, tracer) -> None:
        """Trace ids, span ids and the sampling decision come from
        ``tracer`` from here on, every finished span is handed to its
        ``collect``, and (the collector holding the very records the
        ring holds) fast calls keep their stage detail."""
        self.tracer = tracer
        self._ids = tracer.span_ids
        self.consumers.append(tracer.collect)

    # -- span lifecycle ------------------------------------------------------
    def begin_invocation(self) -> tuple:
        """Fix the trace identity for one logical client call: the
        ``(trace, parent, sampled)`` every attempt's span is opened
        with.  Inside an open span (a servant's nested call) that is
        the span's; at top level it roots a new trace."""
        stack = self._tls.stack
        if stack:
            top = stack[-1]
            return top.trace, top.number, top.sampled
        tracer = self.tracer
        if tracer is None:
            return self._trace_base | next(self._ids), None, True
        return next(tracer.trace_ids), None, tracer.sample()

    def start_client_span(self, name: str, scope: tuple) -> _FlightSpan:
        trace, parent, sampled = scope
        span = _FlightSpan(trace, next(self._ids), parent, name, "client",
                           self.node, self.clock())
        if not sampled:
            span.sampled = False
        self._tls.stack.append(span)
        return span

    def start_server_span(self, name: str, ctx=None,
                          request_id: Optional[int] = None,
                          start_s: Optional[float] = None) -> _FlightSpan:
        """Open the server side of an incoming request, at ``start_s``
        (the request's header in, read off its message; now if None).

        With an incoming :class:`~repro.obs.dtrace.TraceContext` the
        span joins that trace, whoever sent it; without one it parents
        under whatever is open on this thread (a same-process client
        span on synchronous transports) or roots a new trace on a clean
        dispatch thread.
        """
        # (begin_invocation's rule written out again: calling it here
        # would put one more call on every default server dispatch)
        stack = self._tls.stack
        tracer = self.tracer
        if ctx is not None:
            trace, parent, sampled = \
                int(ctx.trace_id, 16), int(ctx.span_id, 16), ctx.sampled
        elif stack:
            top = stack[-1]
            trace, parent, sampled = top.trace, top.number, top.sampled
        elif tracer is None:
            trace, parent, sampled = \
                self._trace_base | next(self._ids), None, True
        else:
            trace, parent, sampled = \
                next(tracer.trace_ids), None, tracer.sample()
        span = _FlightSpan(trace, next(self._ids), parent, name, "server",
                           self.node,
                           self.clock() if start_s is None else start_s,
                           request_id)
        if not sampled:
            span.sampled = False
        stack.append(span)
        return span

    def finish(self, active: _FlightSpan,
               status: Optional[str] = None) -> Span:
        """Close ``active``, hand it to the consumers, and record it
        when it is a root.

        Tolerant of a corrupted stack (an exception that skipped inner
        finishes): everything above ``active`` is discarded.  Nested
        spans are handed to the root still on this thread's stack and
        travel with it; a finished root enters the recent ring, with
        full stage detail when it crossed the slow threshold (its whole
        subtree then also enters the slow ring), stripped to a header
        otherwise.  What is returned is what the readers below later
        yield.
        """
        stack = self._tls.stack
        while stack:
            if stack.pop() is active:
                break
        active.end_s = end_s = self.clock()
        if status is not None:
            active.status = status
        for consume in self.consumers:
            consume(active)
        if stack:
            stack[0].children.append(active)
            return active
        # the ring keeps headers: a slow call's subtree goes to the slow
        # ring, a fast one's is dropped with its own per-stage detail —
        # this is what keeps the default-on recorder cheap
        children, active.children = active.children, ()
        slow = end_s - active.start_s >= self.slow_threshold
        # (under a tracer the collector holds this very record: kept whole)
        drop = not slow and self.tracer is None
        if drop:
            active.stamps = ()
        with self._lock:
            self.recorded_total += 1
            if slow:
                self.slow_sampled += 1
                self._slow.append([*children, active])
            elif drop:
                self.detail_dropped += 1
            self._ring.append(active)
        return active

    # -- what the ORB layers report ----------------------------------------
    def stamp(self, stage: str, seconds: float, nbytes: int = 0) -> None:
        """Append the stage to the innermost span open on this thread;
        a reader or reactor thread, which has none, keeps nothing."""
        stack = self._tls.stack
        if stack and self.enabled:
            stack[-1].stamps.append((stage, seconds, nbytes))

    def stage(self, name: str) -> StageSpan:
        """A context manager stamping one stage, timed on :attr:`clock`."""
        return StageSpan(self, name)

    def emit(self, event) -> None:
        """Hand a :class:`~repro.obs.events.WireEvent` to the wire log,
        when one is attached."""
        if self.wire is not None:
            self.wire.emit(event)

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
