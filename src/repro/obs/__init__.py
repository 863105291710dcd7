"""repro.obs — runtime observability for the zero-copy ORB.

The paper's evidence is an *overhead breakdown* (§5.2, Fig. 7): where
a CORBA invocation spends its time — marshaling, the control message,
or the bulk data path.  This package produces that breakdown from the
live ORB instead of the offline model:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a :class:`MetricsRegistry` (injectable clock, label sets);
* :mod:`repro.obs.events` — the structured event stream the ORB layers
  emit (byte, stage and wire events), generalizing the old
  ``on_bytes`` callback into composable :class:`EventSink`\\ s;
* :mod:`repro.obs.flightrec` — the one span model: a call is one flat
  record on one per-thread stack, opened, stamped and closed by the
  ORB's :class:`FlightRecorder` (always on, with a bounded ring of
  recent and slow calls); everything below reads finished records;
* :mod:`repro.obs.stages` — the six invocation stages of Fig. 7 and
  the :class:`StageTimer` keeping a breakdown per replied call;
* :mod:`repro.obs.tracing` — :class:`TracingInterceptor` (breakdowns +
  metrics) and :class:`WireTracer` (per-GIOP-message wire log);
* :mod:`repro.obs.dtrace` — distributed tracing: trace contexts carried
  in GIOP service contexts, cross-process span trees splitting each
  invocation along the control/deposit boundary;
* :mod:`repro.obs.export` — text/JSON exporters and the
  ``dump_metrics``/``dump_spans`` hooks the benchmark CLI exposes.

Quickstart::

    orb = ORB(ORBConfig(scheme="loop", collocated_calls=False))
    tracer = orb.enable_tracing(wire=True)   # before first connection
    ...
    stub.push(ZCOctetSequence.from_data(payload))
    print(tracer.last.as_dict())             # six-stage breakdown
    print(render_text(tracer.registry))      # metrics exposition
"""

from .dtrace import (DistributedTracer, Span, SpanCollector, TraceContext,
                     build_span_tree, extract_trace_context, render_span_tree)
from .events import (ByteEvent, CallbackSink, CompositeSink, EventSink,
                     NullSink, RecordingSink, StageEvent, StageSpan,
                     WireEvent, stage_span)
from .export import (dump_metrics, dump_spans, render_text, spans_to_dict,
                     to_dict, to_json)
from .flightrec import DEFAULT_SLOW_THRESHOLD, FlightRecorder
from .metrics import (DEFAULT_LATENCY_BUCKETS, DEFAULT_SIZE_BUCKETS, Counter,
                      Gauge, Histogram, MetricsRegistry,
                      quantile_from_buckets)
from .stages import (CLIENT_STAGES, STAGE_CONTROL_SEND, STAGE_DEMARSHAL,
                     STAGE_DEPOSIT_RECV, STAGE_DEPOSIT_SEND, STAGE_MARSHAL,
                     STAGE_RECV_WAIT, STAGE_SERVER_WAIT, InvocationBreakdown,
                     StageTimer)
from .tracing import TracingInterceptor, WireTracer, format_wire_event

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS", "DEFAULT_SIZE_BUCKETS",
    "EventSink", "NullSink", "RecordingSink", "CompositeSink",
    "CallbackSink", "StageSpan", "stage_span",
    "ByteEvent", "StageEvent", "WireEvent",
    "STAGE_MARSHAL", "STAGE_CONTROL_SEND", "STAGE_DEPOSIT_SEND",
    "STAGE_SERVER_WAIT", "STAGE_DEPOSIT_RECV", "STAGE_DEMARSHAL",
    "STAGE_RECV_WAIT", "CLIENT_STAGES",
    "InvocationBreakdown", "StageTimer",
    "TracingInterceptor", "WireTracer", "format_wire_event",
    "to_dict", "to_json", "render_text", "dump_metrics",
    "DistributedTracer", "Span", "SpanCollector", "TraceContext",
    "extract_trace_context", "build_span_tree", "render_span_tree",
    "spans_to_dict", "dump_spans", "quantile_from_buckets",
    "FlightRecorder", "DEFAULT_SLOW_THRESHOLD",
]
