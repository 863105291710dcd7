"""The paper's invocation stages and the per-call StageTimer.

§5.2 / Fig. 7 split one CORBA invocation into the costs of the control
path and the data path.  The live ORB reports the same six stages, in
wire order, for every request a sink observes, traced or not:

=================  ======================================================
stage              what it covers (client view)
=================  ======================================================
``marshal``        building the parameter chunk plan (non-bulk
                   encoding; registering zero-copy payloads with the
                   deposit registry; any encode-into-arena staging
                   copy).  Its byte count is the *logical* body size —
                   the sum of the plan's chunks, the same number the
                   pre-scatter/gather blob had — not the (smaller)
                   bytes the encoder actually copied.
``control-send``   gather-writing the GIOP control message (header +
                   request header + body chunk plan, all fragments);
                   bytes = the true control-path wire bytes
``deposit-send``   writing the raw zero-copy payloads on the data path;
                   memory payloads share the control message's gather
                   write, whose time the two stages split by bytes
                   (for arena-staged payloads this is a pure slot
                   reference: bytes are the payload size, the copy
                   already happened under ``marshal``)
``server-wait``    from this call's request having left to its reply's
                   control message being in — wire latency plus the
                   server's whole handling; never the connection's idle
``deposit-recv``   landing reply payloads into page-aligned pool buffers
``demarshal``      decoding the reply body (zero-copy results only set
                   references)
=================  ======================================================

The server side uses the same vocabulary where it applies
(``recv-wait`` instead of ``server-wait`` — a server waits for clients,
not for a server).  On every drive, the reader thread's as the loop's
and the pump's, ``recv-wait`` times a request's read from its header
in to its last byte, without the idle before it.

:class:`StageTimer` keeps the stage record of each finished client
call as an :class:`InvocationBreakdown`, the live counterpart of the
offline model in ``benchmarks/test_overhead_breakdown.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from .events import StageEvent

__all__ = [
    "STAGE_MARSHAL", "STAGE_CONTROL_SEND", "STAGE_DEPOSIT_SEND",
    "STAGE_SERVER_WAIT", "STAGE_DEPOSIT_RECV", "STAGE_DEMARSHAL",
    "STAGE_RECV_WAIT", "CLIENT_STAGES",
    "InvocationBreakdown", "StageTimer",
]

STAGE_MARSHAL = "marshal"
STAGE_CONTROL_SEND = "control-send"
STAGE_DEPOSIT_SEND = "deposit-send"
STAGE_SERVER_WAIT = "server-wait"
STAGE_DEPOSIT_RECV = "deposit-recv"
STAGE_DEMARSHAL = "demarshal"
#: server-side name for a request's read (not an invocation stage)
STAGE_RECV_WAIT = "recv-wait"

#: the six client stages in paper/wire order (Fig. 7's categories)
CLIENT_STAGES: Tuple[str, ...] = (
    STAGE_MARSHAL, STAGE_CONTROL_SEND, STAGE_DEPOSIT_SEND,
    STAGE_SERVER_WAIT, STAGE_DEPOSIT_RECV, STAGE_DEMARSHAL,
)


@dataclass
class InvocationBreakdown:
    """The stage record of one invocation, in arrival order."""

    operation: str
    request_id: int = 0
    stages: List[StageEvent] = field(default_factory=list)
    reply_status: Optional[str] = None

    def duration_s(self, stage: str) -> float:
        return sum(e.duration_s for e in self.stages if e.stage == stage)

    def nbytes(self, stage: str) -> int:
        return sum(e.nbytes for e in self.stages if e.stage == stage)

    @property
    def total_s(self) -> float:
        return sum(e.duration_s for e in self.stages)

    def stage_order(self) -> List[str]:
        """Distinct stage names in first-seen order."""
        seen: List[str] = []
        for e in self.stages:
            if e.stage not in seen:
                seen.append(e.stage)
        return seen

    @property
    def in_paper_order(self) -> bool:
        """Do the observed client stages respect Fig. 7's wire order?"""
        ranks = [CLIENT_STAGES.index(s) for s in self.stage_order()
                 if s in CLIENT_STAGES]
        return ranks == sorted(ranks)

    def as_dict(self) -> dict:
        return {
            "operation": self.operation,
            "request_id": self.request_id,
            "reply_status": self.reply_status,
            "total_s": self.total_s,
            "stages": [
                {"stage": e.stage, "duration_s": e.duration_s,
                 "nbytes": e.nbytes}
                for e in self.stages
            ],
        }


class StageTimer:
    """Per-invocation breakdowns, read off finished spans.

    A reader of the one span model (:mod:`repro.obs.flightrec`): it is
    handed every finished span and keeps a breakdown of those that are
    a client attempt whose reply was read.  A failed attempt about to
    be retried, a oneway send and a server span leave no record; the
    stages themselves were stamped into the span, per thread, by the
    producer, so pipelined callers never see each other's.
    """

    def __init__(self, keep: int = 128):
        #: appended to by the finishing threads (``deque.append`` is
        #: atomic), oldest dropped first
        self.records: Deque[InvocationBreakdown] = deque(maxlen=keep)

    def consume(self, span) -> Optional[InvocationBreakdown]:
        """Archive ``span`` as a breakdown (None if it is not a replied
        client call)."""
        if span.kind != "client" or span.reply_status is None:
            return None
        rec = InvocationBreakdown(span.name, span.request_id or 0,
                                  span.stages, span.reply_status.name)
        self.records.append(rec)
        return rec

    @property
    def last(self) -> Optional[InvocationBreakdown]:
        return self.records[-1] if self.records else None
