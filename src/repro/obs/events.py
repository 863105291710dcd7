"""The value objects of the span model, and the stage span.

The ORB layers report to one object, the ORB's span producer
(:class:`repro.obs.flightrec.FlightRecorder`): a stage is stamped into
the open span of the calling thread as plain numbers, and a GIOP
message is handed over as a :class:`WireEvent` only while a wire log is
attached to it.  This module holds what a reader gets out:

* :class:`StageEvent` — one timed span of an invocation stage
  (``marshal``, ``control-send``, ... — see :mod:`repro.obs.stages`),
  the read-side value of a span's stages;
* :class:`WireEvent` — one GIOP message on the wire: type, request id,
  sizes, fragment count and deposit descriptors;
* :class:`StageSpan` — a context manager timing one stage on the
  producer's (injectable) clock.

This module imports nothing from the ORB layers — it sits below them,
exactly like :mod:`repro.core.buffers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["StageEvent", "WireEvent", "StageSpan"]


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


class StageSpan:
    """Measures one stage on ``producer.clock``; stamps it on exit (even
    on error, so a failed attempt still accounts for the time it
    burned)."""

    __slots__ = ("_producer", "stage", "nbytes", "_t0")

    def __init__(self, producer, stage: str):
        self._producer = producer
        self.stage = stage
        self.nbytes = 0
        self._t0 = 0.0

    def add_bytes(self, n: int) -> None:
        self.nbytes += n

    def __enter__(self) -> "StageSpan":
        self._t0 = self._producer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._producer.stamp(self.stage,
                             max(0.0, self._producer.clock() - self._t0),
                             self.nbytes)
        return False
