"""The paper's invocation stages and the per-call StageTimer.

§5.2 / Fig. 7 split one CORBA invocation into the costs of the control
path and the data path.  The live ORB reports the same six stages, in
wire order, for every traced request:

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
``deposit-send``   writing the raw zero-copy payloads on the data path
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
not for a server).

:class:`StageTimer` is the sink that groups the stage events of one
invocation into an :class:`InvocationBreakdown` — the live counterpart
of the offline model in ``benchmarks/test_overhead_breakdown.py``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from .events import EventSink, StageEvent

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
#: server-side name for the blocking read (not an invocation stage)
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


class StageTimer(EventSink):
    """Groups stage events into per-invocation breakdowns.

    Invocations are pipelined: several threads may each have a call
    open on the same connection.  All six client stages of a call are
    stamped on its calling thread, so the open record is per thread:
    ``begin`` → stages → ``commit`` on one thread never sees another
    thread's events.  Stage events from a thread with no open record
    (e.g. a server reader's ``recv-wait``) accumulate in :attr:`loose`
    and never pollute the per-call records.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 128):
        super().__init__(clock=clock)
        self.records: Deque[InvocationBreakdown] = deque(maxlen=keep)
        self.loose: Deque[StageEvent] = deque(maxlen=keep)
        self._open = threading.local()  # .pending: this thread's record
        self._lock = threading.Lock()   # guards the two shared rings

    # -- sink interface ------------------------------------------------------
    def emit(self, event) -> None:
        if not isinstance(event, StageEvent):
            return
        pending = getattr(self._open, "pending", None)
        if pending is not None:
            pending.stages.append(event)
        else:
            with self._lock:
                self.loose.append(event)

    # -- invocation grouping -------------------------------------------------
    def begin(self, operation: str) -> None:
        """Open this thread's record; its subsequent stage events
        belong to it."""
        self._open.pending = InvocationBreakdown(operation=operation)

    def commit(self, request_id: int = 0,
               reply_status: Optional[str] = None
               ) -> Optional[InvocationBreakdown]:
        """Close this thread's open record and archive it (None if
        none open)."""
        rec = getattr(self._open, "pending", None)
        if rec is None:
            return None
        self._open.pending = None
        rec.request_id = request_id
        rec.reply_status = reply_status
        with self._lock:
            self.records.append(rec)
        return rec

    def abandon(self) -> None:
        """Drop this thread's open record (failed attempt about to be
        retried)."""
        self._open.pending = None

    @property
    def last(self) -> Optional[InvocationBreakdown]:
        with self._lock:
            return self.records[-1] if self.records else None

    def take_loose(self) -> List[StageEvent]:
        """Drain the out-of-invocation stage events."""
        with self._lock:
            out = list(self.loose)
            self.loose.clear()
            return out
