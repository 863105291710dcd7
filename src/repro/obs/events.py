"""Structured instrumentation events: the generalized ``on_bytes``.

The seed ORB exposed exactly one hook — ``on_bytes(kind, nbytes)`` — a
bare callable threaded from the ORB down to the marshalers and the
connection layer.  That was enough for the simulated testbed's per-byte
cost model, but a live overhead breakdown (paper §5.2, Fig. 7) needs
*structure*: which stage of the invocation a cost belongs to, how long
it took, and what crossed the wire.  This module defines that
structure:

* :class:`ByteEvent` — the old hook's payload, now a value object;
* :class:`StageEvent` — one timed span of an invocation stage
  (``marshal``, ``control-send``, ... — see :mod:`repro.obs.stages`);
* :class:`WireEvent` — one GIOP message on the wire: type, request id,
  sizes, fragment count and deposit descriptors.

An :class:`EventSink` receives all three.  Sinks compose
(:class:`CompositeSink`), record (:class:`RecordingSink`), adapt the
legacy callback (:class:`CallbackSink`), log the wire
(:class:`repro.obs.tracing.WireTracer`) or, the one every ORB has,
stamp stages into the open span of the calling thread
(:class:`repro.obs.flightrec.FlightRecorder`).  The clock is injectable
so tests never depend on wall time.

This module imports nothing from the ORB layers — it sits below them,
exactly like :mod:`repro.core.buffers`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = [
    "ByteEvent", "StageEvent", "WireEvent",
    "EventSink", "NullSink", "RecordingSink", "CompositeSink",
    "CallbackSink", "StageSpan", "stage_span",
]


@dataclass(frozen=True)
class ByteEvent:
    """One byte-touching operation (the legacy ``on_bytes`` payload)."""

    kind: str  #: "marshal", "marshal-bulk", "reference", "deposit-send"...
    nbytes: int


@dataclass(frozen=True)
class StageEvent:
    """One timed span of an invocation stage."""

    stage: str
    duration_s: float
    nbytes: int = 0


@dataclass(frozen=True)
class WireEvent:
    """One GIOP message as it crossed the wire."""

    direction: str  #: "send" or "recv"
    msg_type: str  #: MsgType name ("Request", "Reply", ...)
    size: int  #: control-message body bytes (GIOP headers excluded)
    request_id: Optional[int] = None
    fragments: int = 1  #: GIOP frames the control message used
    #: ``(deposit_id, size)`` per descriptor riding in the message
    deposits: Tuple[Tuple[int, int], ...] = ()


class EventSink:
    """Receives instrumentation events; base class is a no-op sink.

    ``clock`` is injectable (defaults to ``time.perf_counter``) and is
    what :meth:`stage` spans measure with, so tests can drive stage
    durations deterministically.

    ``wire_stages`` declares whether this sink consumes the wire-level
    view of a connection: a :class:`WireEvent` per GIOP message, and
    each outbound gather-write *split* at the control/deposit boundary
    so the two halves time separately.  Under ``enable_tracing`` the
    ORB's sink does (that split is the Fig. 7 breakdown); the always-on
    flight recorder alone does not — it must leave the wire geometry of
    the zero-copy single-``sendv`` path untouched, and it keeps no wire
    events, so none are built for it.
    ``byte_events`` declares the same for :class:`ByteEvent`: marshalers
    get an ``on_bytes`` hook only from a sink that keeps what it reports.
    """

    #: ask the connection layer for wire events and split
    #: control/deposit send stages
    wire_stages = True
    #: ask the marshalers for a ByteEvent per byte-touching operation
    byte_events = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock

    def emit(self, event) -> None:
        """Handle one event.  Subclasses override."""

    def stamp(self, stage: str, seconds: float, nbytes: int = 0) -> None:
        """One finished stage as plain numbers: what the ORB layers call
        on every message.  A sink that consumes event objects inherits
        this and sees the :class:`StageEvent` in :meth:`emit`; one that
        only keeps the numbers overrides it and builds nothing."""
        self.emit(StageEvent(stage, seconds, nbytes))

    # -- legacy compatibility ------------------------------------------------
    def on_bytes(self, kind: str, nbytes: int) -> None:
        """Adapter with the old hook's signature; forwards a ByteEvent."""
        self.emit(ByteEvent(kind=kind, nbytes=nbytes))

    # -- stage spans ---------------------------------------------------------
    def stage(self, name: str) -> "StageSpan":
        """A context manager measuring one stage span on this sink."""
        return StageSpan(self, name)


class StageSpan:
    """Measures one stage; stamps it on exit (even on error, so a
    failed attempt still accounts for the time it burned)."""

    __slots__ = ("_sink", "stage", "nbytes", "_t0")

    def __init__(self, sink: EventSink, stage: str):
        self._sink = sink
        self.stage = stage
        self.nbytes = 0
        self._t0 = 0.0

    def add_bytes(self, n: int) -> None:
        self.nbytes += n

    def __enter__(self) -> "StageSpan":
        self._t0 = self._sink.clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._sink.stamp(self.stage,
                         max(0.0, self._sink.clock() - self._t0),
                         self.nbytes)
        return False


class _NullSpan:
    """Shared no-op span for uninstrumented connections (hot path)."""

    nbytes = 0

    def add_bytes(self, n: int) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: the span of a stage nobody measures
_NULL_SPAN = _NullSpan()


def stage_span(sink: Optional[EventSink], name: str):
    """A measuring span on ``sink``, or a shared no-op when unset.

    For the sends that carry payloads or split timing; the sites every
    message passes call :meth:`EventSink.stamp`, and nothing if unset.
    """
    return sink.stage(name) if sink is not None else _NULL_SPAN


class NullSink(EventSink):
    """Explicitly discards everything (useful as a default)."""


class RecordingSink(EventSink):
    """Keeps every event in order; the test/debugging sink."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock)
        self.events: List = []
        self._lock = threading.Lock()

    def emit(self, event) -> None:
        with self._lock:
            self.events.append(event)

    def of_type(self, cls) -> List:
        with self._lock:
            return [e for e in self.events if isinstance(e, cls)]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()


class CompositeSink(EventSink):
    """Fans every event out to several sinks (first sink's clock wins
    for spans opened on the composite).  An ORB builds one only for
    what really fans out: a user-supplied sink or a wire log beside its
    span producer."""

    def __init__(self, sinks: Iterable[EventSink]):
        self.sinks = list(sinks)
        clock = self.sinks[0].clock if self.sinks else time.perf_counter
        super().__init__(clock=clock)

    @property
    def wire_stages(self) -> bool:
        """Split sends if any member wants the split timing."""
        return any(s.wire_stages for s in self.sinks)

    @property
    def byte_events(self) -> bool:
        return any(s.byte_events for s in self.sinks)

    def emit(self, event) -> None:
        for sink in self.sinks:
            sink.emit(event)


class CallbackSink(EventSink):
    """Wraps a legacy ``on_bytes(kind, nbytes)`` callable as a sink.

    Byte events forward verbatim; stage events with a byte count
    forward under their stage name, which is how the pre-obs
    ``deposit-send`` / ``deposit-recv`` kinds keep flowing to existing
    consumers (the simulated testbed's cost model).
    """

    def __init__(self, fn: Callable[[str, int], None],
                 clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock)
        self.fn = fn

    def emit(self, event) -> None:
        if isinstance(event, ByteEvent):
            self.fn(event.kind, event.nbytes)
