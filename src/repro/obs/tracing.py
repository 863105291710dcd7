"""Built-in tracing: live breakdowns and metrics, read off finished spans.

Two consumers of what the ORB observes about itself:

* :class:`TracingInterceptor` is handed every span the ORB's producer
  finishes (:meth:`TracingInterceptor.consume`): each replied client
  call becomes an :class:`~repro.obs.stages.InvocationBreakdown` in its
  :attr:`timer` and is folded into a
  :class:`~repro.obs.metrics.MetricsRegistry`.  It also rides the
  :class:`repro.orb.interceptors.InterceptorRegistry`, where its server
  points count and time servant upcalls.  Install with
  ``orb.enable_tracing()``, which wires up both.

* :class:`WireTracer` logs every GIOP message the connection layer
  reports — type, request id, control size, fragment count and deposit
  descriptors — to the ``repro.obs.wire`` logger and a bounded ring.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

from ..orb.interceptors import RequestInfo, RequestInterceptor
from .events import EventSink, WireEvent
from .metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from .stages import InvocationBreakdown, StageTimer

__all__ = ["TracingInterceptor", "WireTracer", "format_wire_event"]

_SLOT_T0 = "obs.server_t0"


class TracingInterceptor(RequestInterceptor):
    """Per-request stage breakdown + metrics.

    Owns a :attr:`timer` (the :class:`StageTimer` keeping the
    breakdowns) and a :attr:`registry` (shared or private).  Server
    upcall durations are measured with the injected ``clock``.
    """

    name = "tracing"

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 keep: int = 128):
        self.clock = clock
        self.registry = registry if registry is not None \
            else MetricsRegistry(clock=clock)
        self.timer = StageTimer(keep=keep)
        #: optionally attached by ORB.enable_tracing(wire=True)
        self.wire: Optional["WireTracer"] = None
        #: SpanCollector, attached by ORB.enable_tracing(distributed=True)
        self.spans = None

    # -- client side ---------------------------------------------------------
    def consume(self, span) -> None:
        """One finished span from the ORB's producer."""
        rec = self.timer.consume(span)
        if rec is not None:
            self._record(rec)

    def _record(self, rec: InvocationBreakdown) -> None:
        reg = self.registry
        reg.counter("invocations_total", operation=rec.operation).inc()
        if rec.reply_status not in (None, "NO_EXCEPTION"):
            reg.counter("invocation_errors_total",
                        operation=rec.operation).inc()
        reg.histogram("invocation_seconds",
                      operation=rec.operation).observe(rec.total_s)
        for stage in rec.stage_order():
            reg.histogram("stage_seconds",
                          stage=stage).observe(rec.duration_s(stage))
            nbytes = rec.nbytes(stage)
            if nbytes:
                reg.counter("stage_bytes_total", stage=stage).inc(nbytes)
                reg.histogram("stage_payload_bytes",
                              buckets=DEFAULT_SIZE_BUCKETS,
                              stage=stage).observe(nbytes)

    # -- server side ---------------------------------------------------------
    def receive_request(self, info: RequestInfo) -> None:
        info.slots[_SLOT_T0] = self.clock()

    def send_reply(self, info: RequestInfo) -> None:
        t0 = info.slots.pop(_SLOT_T0, None)
        reg = self.registry
        reg.counter("server_requests_total",
                    operation=info.operation).inc()
        if info.reply_status not in (None, "NO_EXCEPTION"):
            reg.counter("server_errors_total",
                        operation=info.operation).inc()
        if t0 is not None:
            reg.histogram("server_handle_seconds",
                          operation=info.operation).observe(
                max(0.0, self.clock() - t0))

    # -- convenience ---------------------------------------------------------
    @property
    def last(self) -> Optional[InvocationBreakdown]:
        """The most recent committed invocation breakdown."""
        return self.timer.last


def format_wire_event(ev: WireEvent) -> str:
    """One human-readable line per GIOP message."""
    rid = "-" if ev.request_id is None else str(ev.request_id)
    out = (f"{ev.direction:<4} {ev.msg_type:<15} id={rid:<6} "
           f"size={ev.size}")
    if ev.fragments > 1:
        out += f" frags={ev.fragments}"
    if ev.deposits:
        descs = ",".join(f"{i}:{n}" for i, n in ev.deposits)
        out += f" deposits=[{descs}]"
    return out


class WireTracer(EventSink):
    """GIOP wire log: every message's type, id, sizes and deposits."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 256,
                 logger: Optional[logging.Logger] = None):
        super().__init__(clock=clock)
        self.records: Deque[WireEvent] = deque(maxlen=keep)
        self.log = logger if logger is not None \
            else logging.getLogger("repro.obs.wire")
        self._lock = threading.Lock()

    def emit(self, event) -> None:
        if not isinstance(event, WireEvent):
            return
        with self._lock:
            self.records.append(event)
        self.log.debug("%s", format_wire_event(event))

    def lines(self) -> List[str]:
        with self._lock:
            return [format_wire_event(e) for e in self.records]
