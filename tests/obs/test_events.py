"""Stage spans and the event values the span producer hands out."""

import pytest

from repro.obs import FlightRecorder, StageEvent, WireEvent, WireTracer


def _open(clock):
    """A producer with one client span open on this thread."""
    rec = FlightRecorder(clock=clock)
    return rec, rec.start_client_span("op", rec.begin_invocation())


def test_stage_span_measures_with_injected_clock(clock):
    rec, active = _open(clock)
    with rec.stage("marshal") as span:
        clock.advance(0.25)
        span.add_bytes(100)
        span.add_bytes(28)
    assert rec.finish(active).stages == [
        StageEvent(stage="marshal", duration_s=0.25, nbytes=128)]


def test_stage_span_emits_even_on_error(clock):
    rec, active = _open(clock)
    with pytest.raises(RuntimeError):
        with rec.stage("control-send") as span:
            clock.advance(0.5)
            span.add_bytes(7)
            raise RuntimeError("wire died")
    (event,) = rec.finish(active).stages
    assert event.stage == "control-send"
    assert event.duration_s == 0.5
    assert event.nbytes == 7


def test_wire_events_reach_the_wire_log_only_while_one_is_attached(clock):
    """The producer hands a WireEvent on; with no wire log it keeps
    nothing, and the span it stamps never sees one."""
    rec, active = _open(clock)
    event = WireEvent(direction="send", msg_type="Request", size=10)
    rec.emit(event)  # nobody to hand it to
    rec.wire = WireTracer()
    rec.emit(event)
    assert list(rec.wire.records) == [event]
    assert rec.finish(active).stages == []
