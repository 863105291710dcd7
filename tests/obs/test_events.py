"""Event sinks and stage spans: the structured on_bytes replacement."""

import pytest

from repro.obs import (ByteEvent, CallbackSink, CompositeSink, EventSink,
                       NullSink, RecordingSink, StageEvent, WireEvent)


def test_stage_span_measures_with_injected_clock(clock):
    sink = RecordingSink(clock=clock)
    with sink.stage("marshal") as span:
        clock.advance(0.25)
        span.add_bytes(100)
        span.add_bytes(28)
    (event,) = sink.events
    assert event == StageEvent(stage="marshal", duration_s=0.25, nbytes=128)


def test_stage_span_emits_even_on_error(clock):
    sink = RecordingSink(clock=clock)
    with pytest.raises(RuntimeError):
        with sink.stage("control-send") as span:
            clock.advance(0.5)
            span.add_bytes(7)
            raise RuntimeError("wire died")
    (event,) = sink.events
    assert event.stage == "control-send"
    assert event.duration_s == 0.5
    assert event.nbytes == 7


def test_on_bytes_adapter_emits_byte_events():
    sink = RecordingSink()
    sink.on_bytes("marshal", 42)
    sink.on_bytes("deposit-send", 4096)
    assert sink.events == [ByteEvent(kind="marshal", nbytes=42),
                           ByteEvent(kind="deposit-send", nbytes=4096)]


def test_recording_sink_filters_and_clears():
    sink = RecordingSink()
    sink.emit(ByteEvent(kind="marshal", nbytes=1))
    sink.emit(StageEvent(stage="marshal", duration_s=0.0))
    sink.emit(WireEvent(direction="send", msg_type="Request", size=10))
    assert len(sink.of_type(StageEvent)) == 1
    assert len(sink.of_type(ByteEvent)) == 1
    sink.clear()
    assert sink.events == []


def test_composite_sink_fans_out_and_uses_first_clock(clock):
    a = RecordingSink(clock=clock)
    b = RecordingSink()
    combo = CompositeSink([a, b])
    assert combo.clock is clock
    combo.emit(ByteEvent(kind="marshal", nbytes=3))
    assert a.events == b.events == [ByteEvent(kind="marshal", nbytes=3)]
    with combo.stage("marshal"):
        clock.advance(1.0)
    assert a.of_type(StageEvent)[0].duration_s == 1.0
    assert b.of_type(StageEvent)[0].duration_s == 1.0


def test_callback_sink_forwards_only_byte_events():
    calls = []
    sink = CallbackSink(lambda kind, n: calls.append((kind, n)))
    sink.emit(ByteEvent(kind="marshal-bulk", nbytes=9))
    sink.emit(StageEvent(stage="marshal", duration_s=0.1, nbytes=5))
    sink.emit(WireEvent(direction="recv", msg_type="Reply", size=1))
    assert calls == [("marshal-bulk", 9)]


def test_null_and_base_sinks_discard():
    for sink in (NullSink(), EventSink()):
        sink.emit(ByteEvent(kind="marshal", nbytes=1))
        sink.on_bytes("marshal", 1)  # no error, no state

