"""Always-on flight recorder: bounded span history + slow-call sampler.

Distributed tracing (:mod:`repro.obs.dtrace`) answers "where did this
call spend its time" — but only when it was switched on *before* the
interesting call happened.  Production outliers do not announce
themselves, so every ORB keeps this recorder running by default: a
cheap, bounded ring of recent invocation roots, plus full span trees
(all stages, all nested calls) for exactly the calls that exceeded a
latency threshold.  When a p99 spike shows up on the ``/metrics``
latency histogram, the offending call's breakdown is already captured.

Cost model — why this can be on by default:

* ids are sequential hex (one ``itertools.count``), no RNG draw;
* stage events attach to the innermost active span via a thread-local
  stack, no locking on the emit path;
* fast calls keep only their root span *header* (name, duration,
  status) — the per-stage detail is dropped at finish time
  (``detail_dropped`` counts them), so ring memory stays flat;
* nothing is injected into the GIOP wire format: unlike the
  distributed tracer, the recorder never adds a service context, so
  recorded and unrecorded ORBs are byte-identical on the wire.

The recorder mirrors the :class:`~repro.obs.dtrace.DistributedTracer`
driving interface (``begin_invocation`` / ``start_client_span`` /
``start_server_span`` / ``finish``) so the proxy and dispatcher drive
both through the same call sites, and reuses its :class:`Span` type so
the captured trees render with the existing ``repro-metrics tree``
tooling and export as span-schema-v2 dumps.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

from .dtrace import InvocationScope, Span
from .events import _NULL_SPAN, EventSink, StageEvent, StageSpan

__all__ = ["FlightRecorder", "DEFAULT_SLOW_THRESHOLD"]

#: default slow-call threshold (seconds): loopback calls are tens of
#: microseconds, cross-host ones single-digit milliseconds, so 50 ms
#: flags genuine outliers on every transport without sampling noise
DEFAULT_SLOW_THRESHOLD = 0.050


class _OpenSpans(threading.local):
    """Per-thread stack of open spans, innermost last (every thread
    starts with an empty one)."""

    def __init__(self):
        self.stack: List["_ActiveFlightSpan"] = []


class _ActiveFlightSpan:
    """A started span plus the subtree collected while it is a root."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span):
        self.span = span
        #: finished descendant spans, delivered here by :meth:`finish`
        #: of the nested spans (only roots accumulate children)
        self.children: List[Span] = []

    def set_request_id(self, request_id: int) -> None:
        self.span.request_id = request_id

    def record_status(self, status: Optional[str]) -> None:
        self.span.status = status


class FlightRecorder(EventSink):
    """Bounded recent-call ring + slow-call span-tree sampler.

    ``keep`` bounds the recent ring (root span headers), ``slow_keep``
    the slow ring (full trees).  ``slow_threshold`` is in seconds and
    may be adjusted on a live recorder.  ``enabled=False`` (or
    :meth:`disable`) stops span production; detaching the recorder
    from the ORB's sink chain entirely restores the allocation-free
    ``stage_span`` fast path.
    """

    #: never ask the connection layer to split the control/deposit
    #: gather-write: the always-on recorder must not change the wire
    #: geometry (syscall count, fault-injection timing) of the
    #: zero-copy send path it observes
    wire_stages = False

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
        self._ring: Deque[Span] = deque(maxlen=keep)
        self._slow: Deque[List[Span]] = deque(maxlen=slow_keep)
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

    # -- id generation -------------------------------------------------------
    def _new_trace_id(self) -> str:
        return f"{next(self._ids):032x}"

    def _new_span_id(self) -> str:
        return f"{next(self._ids):016x}"

    # -- span lifecycle (DistributedTracer-shaped) ---------------------------
    def begin_invocation(self) -> InvocationScope:
        """Fix the trace identity for one logical client call."""
        stack = self._tls.stack
        if stack:
            top = stack[-1].span
            return InvocationScope(trace_id=top.trace_id,
                                   parent_id=top.span_id, sampled=True)
        return InvocationScope(trace_id=self._new_trace_id(),
                               parent_id=None, sampled=True)

    def start_client_span(self, name: str,
                          scope: InvocationScope) -> _ActiveFlightSpan:
        span = Span(trace_id=scope.trace_id, span_id=self._new_span_id(),
                    parent_id=scope.parent_id, name=name, kind="client",
                    node=self.node, start_s=self.clock())
        active = _ActiveFlightSpan(span)
        self._tls.stack.append(active)
        return active

    def start_server_span(self, name: str, ctx=None,
                          request_id: Optional[int] = None
                          ) -> _ActiveFlightSpan:
        """Open the server side of an incoming request.

        The recorder is process-local — no context rides the wire — so
        the span parents under whatever is active on this thread (a
        same-process client span on synchronous transports) or roots a
        new trace on a clean dispatch thread.
        """
        stack = self._tls.stack
        if stack:
            top = stack[-1].span
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = self._new_trace_id(), None
        span = Span(trace_id=trace_id, span_id=self._new_span_id(),
                    parent_id=parent_id, name=name, kind="server",
                    node=self.node, start_s=self.clock(),
                    request_id=request_id)
        active = _ActiveFlightSpan(span)
        stack.append(active)
        return active

    def finish(self, active: _ActiveFlightSpan,
               status: Optional[str] = None) -> Optional[Span]:
        """Close ``active``; record it when it is a root.

        Nested spans are handed to the root still on this thread's
        stack and travel with it; a finished root enters the recent
        ring — with full stage detail when it crossed the slow
        threshold (its whole subtree then also enters the slow ring),
        stripped to a header otherwise.
        """
        stack = self._tls.stack
        while stack:
            top = stack.pop()
            if top is active:
                break
        span = active.span
        span.end_s = self.clock()
        if status is not None:
            span.status = status
        if stack:
            root = stack[0]
            root.children.extend(active.children)
            root.children.append(span)
            return span
        members = active.children + [span]
        slow = span.duration_s >= self.slow_threshold
        with self._lock:
            self.recorded_total += 1
            if slow:
                self.slow_sampled += 1
                self._slow.append(members)
            else:
                self.detail_dropped += 1
            self._ring.append(span)
        if not slow:
            # fast call: keep the header, drop the per-stage detail —
            # this is what keeps the default-on recorder cheap
            span.stages = []
        return span

    # -- sink interface ------------------------------------------------------
    def stage(self, name: str):
        """A measuring span when this thread has an open span to keep
        the result, else the shared no-op: a reader or reactor thread
        pays nothing for events :meth:`emit` would drop."""
        if self._tls.stack:
            return StageSpan(self, name)
        return _NULL_SPAN

    def emit(self, event) -> None:
        if not self.enabled or not isinstance(event, StageEvent):
            return
        stack = self._tls.stack
        if stack:
            stack[-1].span.stages.append(event)

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
        with self._lock:
            roots = list(self._ring)
            trees = [list(t) for t in self._slow]
        if n > 0:
            roots = roots[-n:]
        keep_traces = {s.trace_id for s in roots}
        seen = {s.span_id for s in roots}
        out: List[Span] = []
        for tree in trees:
            for span in tree:
                if span.trace_id in keep_traces and span.span_id not in seen:
                    seen.add(span.span_id)
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
