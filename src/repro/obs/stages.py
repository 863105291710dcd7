"""The paper's invocation stages and the per-call breakdown record.

§5.2 / Fig. 7 split one CORBA invocation into the costs of the control
path and the data path.  The live ORB reports the same six stages, in
wire order, for every request its span producer records, traced or
not:

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
not for a server): ``recv-wait``, ``deposit-recv``, ``demarshal``,
``marshal``, ``control-send``, ``deposit-send``.  ``recv-wait`` is a
request's read from its header in to its last byte.  No read stamps:
the span that owns a message stamps its read from the numbers left on
it (a reply's the caller's, a request's the dispatch's, which opens at
the request's header).

:class:`InvocationBreakdown` is the stage record of one finished
client call, read off its span by
:class:`repro.obs.tracing.TracingInterceptor`: the live counterpart of
the offline model in ``benchmarks/test_overhead_breakdown.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .events import StageEvent

__all__ = [
    "STAGE_MARSHAL", "STAGE_CONTROL_SEND", "STAGE_DEPOSIT_SEND",
    "STAGE_SERVER_WAIT", "STAGE_DEPOSIT_RECV", "STAGE_DEMARSHAL",
    "STAGE_RECV_WAIT", "CLIENT_STAGES",
    "InvocationBreakdown",
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

