"""Unit tests for repro.obs.dtrace: contexts, spans, trees, tracer."""

import pytest

from repro.giop import SVC_CTX_TRACE, ServiceContext
from repro.obs import (STAGE_CONTROL_SEND, STAGE_DEPOSIT_RECV,
                       STAGE_DEPOSIT_SEND, STAGE_MARSHAL, STAGE_SERVER_WAIT,
                       MetricsRegistry, Span, SpanCollector, StageEvent,
                       TraceContext, build_span_tree, extract_trace_context,
                       render_span_tree, spans_to_dict)
from repro.obs.cli import validate_span_dump
from repro.obs.dtrace import DistributedTracer
from repro.obs.flightrec import FlightRecorder

T1 = "0123456789abcdef0123456789abcdef"
S1 = "00000000000000aa"
S2 = "00000000000000bb"


def _span(trace=T1, span=S1, parent=None, name="op", kind="client",
          start=0.0, end=1.0, stages=()):
    s = Span(trace_id=trace, span_id=span, parent_id=parent, name=name,
             kind=kind, start_s=start)
    s.end_s = end
    s.stages = list(stages)
    return s


class TestTraceContext:
    def test_encode_decode_round_trip(self):
        ctx = TraceContext(trace_id=T1, span_id=S1, sampled=True)
        assert TraceContext.decode(ctx.encode()) == ctx

    def test_service_context_tag(self):
        sc = TraceContext(trace_id=T1, span_id=S1).to_service_context()
        assert sc.context_id == SVC_CTX_TRACE
        assert extract_trace_context([sc]).trace_id == T1

    def test_extract_absent(self):
        assert extract_trace_context([]) is None
        assert extract_trace_context(
            [ServiceContext(0x4242, b"other")]) is None

    def test_extract_malformed_is_absent(self):
        """A colliding foreign tag must not break dispatch."""
        bad = ServiceContext(SVC_CTX_TRACE, b"not a trace context")
        assert extract_trace_context([bad]) is None


class TestSpan:
    def test_control_deposit_byte_split(self):
        s = _span(stages=[
            StageEvent(stage=STAGE_MARSHAL, duration_s=0.1, nbytes=100),
            StageEvent(stage=STAGE_CONTROL_SEND, duration_s=0.2, nbytes=60),
            StageEvent(stage=STAGE_DEPOSIT_SEND, duration_s=0.3,
                       nbytes=4096),
            StageEvent(stage=STAGE_SERVER_WAIT, duration_s=0.4, nbytes=30),
            StageEvent(stage=STAGE_DEPOSIT_RECV, duration_s=0.5, nbytes=512),
        ])
        assert s.control_bytes_sent == 60
        assert s.control_bytes_recv == 30
        assert s.deposit_bytes_sent == 4096
        assert s.deposit_bytes_recv == 512
        assert s.control_seconds == pytest.approx(0.6)
        assert s.deposit_seconds == pytest.approx(0.8)
        assert s.stage_s(STAGE_MARSHAL) == pytest.approx(0.1)
        assert s.stage_bytes(STAGE_MARSHAL) == 100

    def test_dict_round_trip(self):
        s = _span(parent=S2, start=2.0, end=2.5, stages=[
            StageEvent(stage=STAGE_CONTROL_SEND, duration_s=0.1, nbytes=40)])
        s.status = "NO_EXCEPTION"
        s.request_id = 17
        out = Span.from_dict(s.as_dict())
        assert out.as_dict() == s.as_dict()
        assert out.duration_s == pytest.approx(0.5)

    def test_dump_validates_as_schema_v2(self):
        doc = spans_to_dict([_span(), _span(span=S2, kind="server",
                                            parent=S1)])
        assert doc["schema"] == 2
        assert validate_span_dump(doc) == []

    def test_validator_rejects_malformed(self):
        doc = spans_to_dict([_span()])
        doc["spans"][0]["trace_id"] = "zz"
        assert any("trace_id" in p for p in validate_span_dump(doc))
        assert any("schema" in p
                   for p in validate_span_dump({"schema": 1, "spans": []}))


class TestSpanCollector:
    def test_bounded_keep(self):
        col = SpanCollector(keep=3)
        for i in range(5):
            col.add(_span(span=f"{i:016x}"))
        assert len(col) == 3
        assert [s.span_id for s in col.spans] == \
            [f"{i:016x}" for i in (2, 3, 4)]

    def test_for_trace_and_trace_ids(self):
        col = SpanCollector()
        other = "f" * 32
        col.add(_span())
        col.add(_span(trace=other, span=S2))
        col.add(_span(span=S2))
        assert len(col.for_trace(T1)) == 2
        assert col.trace_ids() == [T1, other]
        col.clear()
        assert len(col) == 0


def _producer(clock=None, **tracer_kw):
    """The ORB's wiring in miniature: one span producer, a tracer
    attached to it as id source, sampler and collector."""
    rec = FlightRecorder(slow_threshold=0.0, node="orbX",
                         **({"clock": clock} if clock else {}))
    tracer = DistributedTracer(**tracer_kw)
    rec.attach(tracer)
    return rec, tracer


class TestDistributedTracer:
    """The tracer opens no span of its own: these drive the one
    producer (``FlightRecorder``) with a tracer attached, one case per
    case of the lifecycle the tracer used to mirror."""

    def test_ids_are_seeded_and_nonzero(self):
        a = DistributedTracer(seed=5)
        b = DistributedTracer(seed=5)
        assert next(a.trace_ids) == next(b.trace_ids) != 0
        assert next(a.span_ids) == next(b.span_ids) != 0
        # and that is where an attached producer's ids come from
        (rec_a, _), (rec_b, _) = _producer(seed=7), _producer(seed=7)
        spans = [rec.finish(rec.start_client_span(
            "op", rec.begin_invocation())) for rec in (rec_a, rec_b)]
        assert spans[0].trace_id == spans[1].trace_id
        assert spans[0].span_id == spans[1].span_id
        assert len(spans[0].trace_id) == 32 and len(spans[0].span_id) == 16

    def test_top_level_scope_roots_new_trace(self):
        rec, _ = _producer(seed=1)
        trace, parent, sampled = rec.begin_invocation()
        assert trace == next(DistributedTracer(seed=1).trace_ids)
        assert parent is None
        assert sampled is True

    def test_nested_scope_joins_active_span(self):
        rec, _ = _producer(seed=1)
        scope = rec.begin_invocation()
        active = rec.start_client_span("outer", scope)
        inner = rec.begin_invocation()
        assert inner == (active.trace, active.number, True)
        assert inner[0] == scope[0]
        rec.finish(active)
        assert rec.begin_invocation()[1] is None  # nothing left open

    def test_retry_keeps_trace_id_fresh_span_id(self):
        rec, tracer = _producer(seed=1)
        scope = rec.begin_invocation()
        first = rec.start_client_span("op", scope)
        rec.finish(first, status="COMM_FAILURE")
        second = rec.start_client_span("op", scope)
        rec.finish(second, status="NO_EXCEPTION")
        spans = tracer.collector.spans
        assert spans == [first, second]
        assert [s.trace_id for s in spans] == [f"{scope[0]:032x}"] * 2
        assert spans[0].span_id != spans[1].span_id
        assert [s.status for s in spans] == ["COMM_FAILURE", "NO_EXCEPTION"]

    def test_server_span_joins_incoming_context(self):
        """One rule: a context that arrives is joined, tracer or not."""
        ctx = TraceContext(trace_id=T1, span_id=S1)
        for rec in (_producer(seed=2)[0], FlightRecorder()):
            active = rec.start_server_span("op", ctx, request_id=4)
            # what the servant calls from inside the upcall stays in T1
            assert f"{rec.begin_invocation()[0]:032x}" == T1
            span = rec.finish(active)
            assert span.trace_id == T1
            assert span.parent_id == S1
            assert span.kind == "server"
            assert span.request_id == 4

    def test_server_span_without_context_roots_trace(self):
        rec, _ = _producer(seed=2)
        span = rec.finish(rec.start_server_span("op", None))
        assert span.parent_id is None

    def test_stage_events_go_to_innermost_span(self):
        rec, _ = _producer(seed=3)
        outer = rec.start_client_span("outer", rec.begin_invocation())
        inner = rec.start_client_span("inner", rec.begin_invocation())
        rec.stamp(STAGE_MARSHAL, 0.1, 8)
        rec.finish(inner)
        rec.stamp(STAGE_MARSHAL, 0.2, 9)
        rec.finish(outer)
        assert [e.nbytes for e in inner.stages] == [8]
        assert [e.nbytes for e in outer.stages] == [9]

    def test_unsampled_trace_not_recorded_but_propagated(self):
        rec, tracer = _producer(seed=4, sample_rate=0.0)
        scope = rec.begin_invocation()
        assert scope[2] is False
        active = rec.start_client_span("op", scope)
        assert active.context.sampled is False  # flag rides the wire
        inner = rec.start_server_span("nested")
        assert inner.sampled is False           # and down the stack
        rec.finish(inner)
        rec.finish(active)
        assert len(tracer.collector) == 0
        # sampling is the collector's business: the flight ring still
        # has the call
        assert rec.recent() == [active]

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            DistributedTracer(sample_rate=1.5)

    def test_finish_tolerates_corrupted_stack(self):
        rec, tracer = _producer(seed=5)
        outer = rec.start_client_span("outer", rec.begin_invocation())
        rec.start_client_span("leaked", rec.begin_invocation())
        rec.finish(outer)  # leaked span above it is discarded
        assert rec.begin_invocation()[1] is None
        assert tracer.collector.spans == [outer]

    def test_metrics_recorded_on_finish(self):
        reg = MetricsRegistry()
        rec, _ = _producer(seed=6, registry=reg)
        active = rec.start_client_span("op", rec.begin_invocation())
        rec.stamp(STAGE_CONTROL_SEND, 0.1, 64)
        rec.finish(active)
        assert reg.get("spans_total", kind="client",
                       operation="op").value == 1
        assert reg.get("span_control_bytes_total",
                       kind="client").value == 64
        assert reg.get("span_seconds", kind="client").count == 1


class TestSpanTree:
    def _family(self):
        root = _span(span=S1, name="fetch", start=0.0)
        child = _span(span=S2, parent=S1, name="resolve", kind="server",
                      start=0.2)
        grand = _span(span="00000000000000cc", parent=S2, name="get",
                      start=0.4)
        return [child, grand, root]  # deliberately out of order

    def test_build_parents_and_sorts(self):
        forest = build_span_tree(self._family())
        roots = forest[T1]
        assert [r.span.name for r in roots] == ["fetch"]
        assert roots[0].children[0].span.name == "resolve"
        assert roots[0].children[0].children[0].span.name == "get"

    def test_orphan_becomes_root(self):
        orphan = _span(span=S2, parent="dead0000dead0000")
        forest = build_span_tree([orphan])
        assert forest[T1][0].span is orphan

    def test_render_shows_hierarchy_and_byte_split(self):
        spans = self._family()
        spans[0].stages = [StageEvent(stage=STAGE_CONTROL_SEND,
                                      duration_s=0.1, nbytes=2048)]
        text = render_span_tree(spans)
        assert f"trace {T1}" in text
        assert "(3 spans" in text
        assert "`-- client fetch" in text
        assert "|" not in text.split("\n")[1][0]  # single root
        assert "ctl 2.0KiB/0B" in text
        # nesting depth encoded in indentation
        lines = text.splitlines()
        assert lines[2].startswith("    `-- server resolve")
        assert lines[3].startswith("        `-- client get")

    def test_render_empty(self):
        assert render_span_tree([]) == ""


class TestInvocationScope:
    def test_frozen(self):
        """What ``begin_invocation`` fixes for every attempt of a call
        is a plain tuple: a retry cannot shift the trace under it."""
        scope = FlightRecorder().begin_invocation()
        assert isinstance(scope, tuple) and len(scope) == 3
        with pytest.raises(TypeError):
            scope[0] = 1


class TestRecorderIds:
    def test_two_recorders_spans_merge_into_disjoint_traces(self):
        """Dumps of two ORB processes, merged: every recorder counts
        from its own random prefix, so no trace folds into another's."""
        a, b = FlightRecorder(node="a"), FlightRecorder(node="b")
        for rec in (a, b):
            for name in ("x", "y"):
                outer = rec.start_client_span(name, rec.begin_invocation())
                rec.finish(rec.start_server_span(name))
                rec.finish(outer)
        spans = [Span.from_dict(s.as_dict())
                 for rec in (a, b) for s in rec.recent()]
        forest = build_span_tree(spans)
        assert len(forest) == 4
        for roots in forest.values():
            assert len({n.span.node for n in roots}) == 1
        assert not {s.span_id for s in a.recent()} & \
            {s.span_id for s in b.recent()}
        assert validate_span_dump(spans_to_dict(spans)) == []
