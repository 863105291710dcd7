"""Breakdown grouping and the per-invocation breakdown record.

``TracingInterceptor.consume`` keeps no open record of its own: it
reads the spans the one producer (``FlightRecorder``) finishes, so
these drive that producer, one case per case of the begin / commit /
abandon lifecycle it replaced.
"""

import pytest

from repro.giop import ReplyStatus
from repro.obs import (CLIENT_STAGES, STAGE_CONTROL_SEND, STAGE_DEMARSHAL,
                       STAGE_DEPOSIT_RECV, STAGE_DEPOSIT_SEND, STAGE_MARSHAL,
                       STAGE_RECV_WAIT, STAGE_SERVER_WAIT, FlightRecorder,
                       InvocationBreakdown, StageEvent, TracingInterceptor,
                       WireEvent)


def _ev(stage, dur=0.0, nbytes=0):
    return StageEvent(stage=stage, duration_s=dur, nbytes=nbytes)


def _timed(clock, **timer_kw):
    """A producer with a tracer reading it, as enable_tracing wires."""
    rec = FlightRecorder(clock=clock)
    timer = TracingInterceptor(clock=clock, **timer_kw)
    rec.consumers.append(timer.consume)
    return rec, timer


def _replied(span, request_id=0, status=ReplyStatus.NO_EXCEPTION):
    """What the proxy notes on a client span whose reply it read."""
    span.request_id, span.reply_status = request_id, status
    return span


def test_client_stages_are_the_papers_six_in_wire_order():
    assert CLIENT_STAGES == ("marshal", "control-send", "deposit-send",
                             "server-wait", "deposit-recv", "demarshal")


def test_timer_groups_stages_between_begin_and_commit(clock):
    rec, timer = _timed(clock)
    span = rec.start_client_span("put", rec.begin_invocation())
    for stage in CLIENT_STAGES:
        rec.stamp(stage, 0.1, 10)
    rec.finish(_replied(span, request_id=7), status="NO_EXCEPTION")
    got = timer.last
    assert got.operation == "put"
    assert got.request_id == 7
    assert got.reply_status == "NO_EXCEPTION"
    # the breakdown is the timer's own: the ring strips a fast span
    assert got.stages == [_ev(s, 0.1, 10) for s in CLIENT_STAGES]
    assert got.stage_order() == list(CLIENT_STAGES)
    assert got.in_paper_order
    assert got.total_s == sum(e.duration_s for e in got.stages)


def test_events_outside_an_invocation_go_loose(clock):
    """A stage stamped while no call is open on the thread (a server
    reader's ``recv-wait``) is nobody's: it never pollutes a record."""
    rec, timer = _timed(clock)
    rec.stamp(STAGE_RECV_WAIT, 0.2)  # server-side wait, no span open
    span = rec.start_client_span("get", rec.begin_invocation())
    rec.stamp(STAGE_MARSHAL, 0.0)
    rec.finish(_replied(span))
    rec.stamp(STAGE_RECV_WAIT, 0.2)  # and after it closed
    assert [e.stage for e in timer.last.stages] == [STAGE_MARSHAL]
    assert len(timer.records) == 1


def test_commit_without_begin_returns_none(clock):
    """Only a client call whose reply was read is a breakdown: a server
    span is not, and a finish with nothing open is harmless."""
    rec, timer = _timed(clock)
    rec.finish(rec.start_server_span("put"))
    assert timer.last is None
    stray = rec.start_client_span("put", rec.begin_invocation())
    rec.finish(stray)
    rec.finish(stray)  # already closed: no open record to pop
    timer.consume(stray)
    assert timer.last is None


def test_abandon_drops_the_open_record(clock):
    """A failed attempt about to be retried saw no reply: its stages
    end with its span and the retry starts clean."""
    rec, timer = _timed(clock)
    scope = rec.begin_invocation()
    failed = rec.start_client_span("put", scope)
    rec.stamp(STAGE_MARSHAL, 0.0)
    rec.finish(failed, status="COMM_FAILURE")
    assert timer.last is None
    retry = rec.start_client_span("put", scope)
    rec.stamp(STAGE_DEMARSHAL, 0.0)
    rec.finish(_replied(retry))
    assert [e.stage for e in timer.last.stages] == [STAGE_DEMARSHAL]
    assert len(timer.records) == 1


def test_timer_ignores_non_stage_events(clock):
    rec, timer = _timed(clock)
    span = rec.start_client_span("put", rec.begin_invocation())
    rec.emit(WireEvent(direction="send", msg_type="Request", size=4))
    rec.finish(_replied(span))
    assert timer.last.stages == []


def test_records_ring_is_bounded(clock):
    rec, timer = _timed(clock, keep=3)
    for i in range(5):
        rec.finish(_replied(
            rec.start_client_span(f"op{i}", rec.begin_invocation())))
    assert [r.operation for r in timer.records] == ["op2", "op3", "op4"]


def test_breakdown_aggregates_repeated_stages():
    rec = InvocationBreakdown(operation="put", stages=[
        _ev(STAGE_CONTROL_SEND, dur=0.1, nbytes=50),
        _ev(STAGE_CONTROL_SEND, dur=0.2, nbytes=30),
        _ev(STAGE_DEPOSIT_SEND, dur=0.3, nbytes=4096),
    ])
    assert rec.duration_s(STAGE_CONTROL_SEND) == pytest.approx(0.3)
    assert rec.nbytes(STAGE_CONTROL_SEND) == 80
    assert rec.nbytes(STAGE_DEPOSIT_SEND) == 4096
    assert rec.duration_s(STAGE_DEMARSHAL) == 0.0


def test_paper_order_check_detects_inversions():
    ok = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_MARSHAL), _ev(STAGE_SERVER_WAIT), _ev(STAGE_DEMARSHAL)])
    assert ok.in_paper_order
    bad = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_DEMARSHAL), _ev(STAGE_MARSHAL)])
    assert not bad.in_paper_order
    # non-client stages never affect the check
    mixed = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_RECV_WAIT), _ev(STAGE_MARSHAL), _ev(STAGE_DEPOSIT_RECV)])
    assert mixed.in_paper_order


def test_as_dict_is_json_shaped():
    rec = InvocationBreakdown(operation="put", request_id=3,
                              reply_status="NO_EXCEPTION",
                              stages=[_ev(STAGE_MARSHAL, 0.5, 8)])
    d = rec.as_dict()
    assert d["operation"] == "put"
    assert d["request_id"] == 3
    assert d["total_s"] == 0.5
    assert d["stages"] == [{"stage": "marshal", "duration_s": 0.5,
                            "nbytes": 8}]
