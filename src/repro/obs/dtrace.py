"""Distributed tracing across the control/data split (``repro.obs.dtrace``).

The Fig. 7 stage timers of :mod:`repro.obs.stages` see one process at a
time.  This module follows a single invocation *across* processes: a
W3C-traceparent-style context — 128-bit trace id, 64-bit span id, a
sampled flag — rides every GIOP Request in a dedicated service context
(:data:`repro.giop.SVC_CTX_TRACE`), is extracted by the server
dispatcher, and is re-injected on any nested outbound call the servant
makes (a naming lookup, a backend invoke...).  The result is one span
tree per trace, spanning client, wire and server.

Each :class:`Span` carries the six Fig. 7 stages of its invocation as
sub-spans and splits its byte accounting along the paper's central
boundary: control-path bytes (GIOP headers + marshaled bodies) vs
deposit-path bytes (the zero-copy payloads).  Spans flow into a
:class:`SpanCollector` — shareable between ORBs of one process, or
dumped as JSON (span schema v2, see :mod:`repro.obs.export`) and merged
offline by trace id for genuinely distributed runs.

The spans themselves are opened, stamped and closed by the ORB's one
span producer (:mod:`repro.obs.flightrec`); the :class:`DistributedTracer`
installed by ``orb.enable_tracing(distributed=True)`` is a reader of it
that supplies what only tracing needs: wire-grade ids, the sampling
decision, and the collector finished spans land in.  Propagation rides
the producer's per-thread stack, which matches the ORB's dispatch model:
a servant's nested calls run on the thread of the upcall, so the server
span is the innermost open span when the nested proxy fixes its scope.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Deque, Dict, Iterable, List, Optional

from ..giop.messages import (SVC_CTX_TRACE, GIOPError, ServiceContext,
                             decode_trace_context, encode_trace_context)
from .events import StageEvent
from .stages import (STAGE_CONTROL_SEND, STAGE_DEPOSIT_RECV,
                     STAGE_DEPOSIT_SEND, STAGE_RECV_WAIT, STAGE_SERVER_WAIT)

__all__ = [
    "TraceContext", "Span", "SpanCollector", "DistributedTracer",
    "extract_trace_context", "build_span_tree", "render_span_tree",
    "SpanNode",
]

#: stages whose byte counts are control-path wire bytes.  The blocking
#: read stages count the GIOP headers + bodies actually read, so the
#: receive side of the control path is attributed to them.
_CONTROL_SENT = (STAGE_CONTROL_SEND,)
_CONTROL_RECV = (STAGE_SERVER_WAIT, STAGE_RECV_WAIT)
_DEPOSIT_SENT = (STAGE_DEPOSIT_SEND,)
_DEPOSIT_RECV = (STAGE_DEPOSIT_RECV,)


@dataclass(frozen=True)
class TraceContext:
    """One propagated (trace id, span id, sampled) triple.

    Ids are lowercase hex strings — 32 chars (128 bits) for the trace,
    16 chars (64 bits) for the span — matching W3C traceparent.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def encode(self) -> bytes:
        return encode_trace_context(bytes.fromhex(self.trace_id),
                                    bytes.fromhex(self.span_id),
                                    self.sampled)

    @classmethod
    def decode(cls, data) -> "TraceContext":
        trace_id, span_id, sampled = decode_trace_context(data)
        return cls(trace_id=trace_id.hex(), span_id=span_id.hex(),
                   sampled=sampled)

    def to_service_context(self) -> ServiceContext:
        return ServiceContext(context_id=SVC_CTX_TRACE, data=self.encode())


def extract_trace_context(
        contexts: Iterable[ServiceContext]) -> Optional[TraceContext]:
    """The trace context riding in a service context list, if any.

    A malformed payload is treated as absent (a foreign peer's private
    tag colliding with ours must not break dispatch).
    """
    for sc in contexts:
        if sc.context_id == SVC_CTX_TRACE:
            try:
                return TraceContext.decode(sc.data)
            except GIOPError:
                return None
    return None


@dataclass
class Span:
    """One side of one invocation, with its stage record."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str  #: operation name
    kind: str  #: "client" or "server"
    node: str = ""  #: which ORB produced the span (e.g. "orb3")
    start_s: float = 0.0
    end_s: float = 0.0
    status: Optional[str] = None  #: reply status or exception type name
    request_id: Optional[int] = None
    stages: List[StageEvent] = field(default_factory=list)

    # -- derived views -------------------------------------------------------
    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def stage_s(self, stage: str) -> float:
        return sum(e.duration_s for e in self.stages if e.stage == stage)

    def stage_bytes(self, stage: str) -> int:
        return sum(e.nbytes for e in self.stages if e.stage == stage)

    def _bytes(self, stages) -> int:
        return sum(e.nbytes for e in self.stages if e.stage in stages)

    def _seconds(self, stages) -> float:
        return sum(e.duration_s for e in self.stages if e.stage in stages)

    @property
    def control_bytes_sent(self) -> int:
        return self._bytes(_CONTROL_SENT)

    @property
    def control_bytes_recv(self) -> int:
        return self._bytes(_CONTROL_RECV)

    @property
    def deposit_bytes_sent(self) -> int:
        return self._bytes(_DEPOSIT_SENT)

    @property
    def deposit_bytes_recv(self) -> int:
        return self._bytes(_DEPOSIT_RECV)

    @property
    def control_seconds(self) -> float:
        return self._seconds(_CONTROL_SENT + _CONTROL_RECV)

    @property
    def deposit_seconds(self) -> float:
        return self._seconds(_DEPOSIT_SENT + _DEPOSIT_RECV)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    # -- schema v2 -----------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "request_id": self.request_id,
            "status": self.status,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "control_bytes": {"sent": self.control_bytes_sent,
                              "recv": self.control_bytes_recv},
            "deposit_bytes": {"sent": self.deposit_bytes_sent,
                              "recv": self.deposit_bytes_recv},
            "stages": [
                {"stage": e.stage, "duration_s": e.duration_s,
                 "nbytes": e.nbytes}
                for e in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(trace_id=d["trace_id"], span_id=d["span_id"],
                   parent_id=d.get("parent_id"), name=d.get("name", "?"),
                   kind=d.get("kind", "?"), node=d.get("node", ""),
                   start_s=float(d.get("start_s", 0.0)),
                   status=d.get("status"),
                   request_id=d.get("request_id"))
        span.end_s = span.start_s + float(d.get("duration_s", 0.0))
        span.stages = [StageEvent(stage=s["stage"],
                                  duration_s=float(s.get("duration_s", 0.0)),
                                  nbytes=int(s.get("nbytes", 0)))
                       for s in d.get("stages", [])]
        return span


class SpanCollector:
    """Thread-safe bounded store of finished spans.

    One collector can back several :class:`DistributedTracer` instances
    (client + server ORBs of one process share it, so a cross-process
    trace assembles in memory); distributed deployments dump each
    process's collector and merge by trace id.
    """

    def __init__(self, keep: int = 2048):
        self._spans: Deque[Span] = deque(maxlen=keep)
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> List[Span]:
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: List[str] = []
        with self._lock:
            for s in self._spans:
                if s.trace_id not in seen:
                    seen.append(s.trace_id)
        return seen

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class DistributedTracer:
    """What distributed tracing adds to the one span model: ids fit for
    the wire, the sampling decision, and a collector.

    It opens no span and keeps no stack: the ORB's span producer
    (:class:`~repro.obs.flightrec.FlightRecorder`) does, and once
    ``attach``-ed to this tracer it draws a root's 128-bit trace id and
    sampling decision and every span's 64-bit id from here (one seeded
    RNG, so ``seed`` makes a run's ids reproducible), the proxy injects
    each client span's :class:`TraceContext` into its Request, and every
    finished span is handed to :meth:`collect`.
    """

    def __init__(self, registry=None,
                 collector: Optional[SpanCollector] = None,
                 sample_rate: float = 1.0, seed: Optional[int] = None,
                 keep: int = 2048):
        self.registry = registry
        self.collector = collector if collector is not None \
            else SpanCollector(keep=keep)
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.sample_rate = sample_rate
        self._rng = rng = random.Random(seed)
        #: endless non-zero ids (the all-zero id is invalid, W3C), as
        #: C-level iterators: one ``next`` is atomic under the GIL
        self.trace_ids = filter(None, map(rng.getrandbits, repeat(128)))
        self.span_ids = filter(None, map(rng.getrandbits, repeat(64)))

    def sample(self) -> bool:
        """The per-trace decision, made once at the root."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def collect(self, span: Span) -> None:
        """Keep a finished span if its trace is sampled (an unsampled
        one was still propagated: the flag rides the wire)."""
        if not span.sampled:
            return
        self.collector.add(span)
        reg = self.registry
        if reg is None:
            return
        reg.counter("spans_total", kind=span.kind,
                    operation=span.name).inc()
        reg.histogram("span_seconds",
                      kind=span.kind).observe(span.duration_s)
        ctl = span.control_bytes_sent + span.control_bytes_recv
        dep = span.deposit_bytes_sent + span.deposit_bytes_recv
        if ctl:
            reg.counter("span_control_bytes_total", kind=span.kind).inc(ctl)
        if dep:
            reg.counter("span_deposit_bytes_total", kind=span.kind).inc(dep)


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One node of an assembled span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def build_span_tree(spans: Iterable[Span]) -> Dict[str, List[SpanNode]]:
    """Assemble spans into per-trace trees.

    Returns ``{trace_id: [roots]}``.  A span whose parent is unknown
    (the parent ran in a process whose dump was not merged, or was
    unsampled) becomes a root of its trace; roots and children are
    ordered by start time.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    out: Dict[str, List[SpanNode]] = {}
    for trace_id, members in by_trace.items():
        nodes = {s.span_id: SpanNode(s) for s in members}
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = nodes.get(node.span.parent_id) \
                if node.span.parent_id else None
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.span.start_s)
        roots.sort(key=lambda n: n.span.start_s)
        out[trace_id] = roots
    return out


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{n}B"


def _span_line(span: Span) -> str:
    out = (f"{span.kind} {span.name}  {span.duration_s * 1e3:.3f}ms")
    if span.node:
        out += f"  @{span.node}"
    out += (f"  ctl {_fmt_bytes(span.control_bytes_sent)}"
            f"/{_fmt_bytes(span.control_bytes_recv)}"
            f"  dep {_fmt_bytes(span.deposit_bytes_sent)}"
            f"/{_fmt_bytes(span.deposit_bytes_recv)}")
    if span.status not in (None, "NO_EXCEPTION"):
        out += f"  [{span.status}]"
    return out


def render_span_tree(spans: Iterable[Span]) -> str:
    """ASCII trees, one per trace: per-span durations and the
    control/deposit byte split (sent/received)."""
    lines: List[str] = []
    forest = build_span_tree(spans)
    for trace_id, roots in forest.items():
        members = list(_iter_nodes(roots))
        total = sum(r.span.duration_s for r in roots)
        lines.append(f"trace {trace_id}  "
                     f"({len(members)} span{'s' if len(members) != 1 else ''}"
                     f", {total * 1e3:.3f}ms)")
        for i, root in enumerate(roots):
            _render_node(root, "", i == len(roots) - 1, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def _iter_nodes(roots: List[SpanNode]):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _render_node(node: SpanNode, prefix: str, last: bool,
                 lines: List[str]) -> None:
    branch = "`-- " if last else "|-- "
    lines.append(prefix + branch + _span_line(node.span))
    child_prefix = prefix + ("    " if last else "|   ")
    for i, child in enumerate(node.children):
        _render_node(child, child_prefix, i == len(node.children) - 1, lines)
