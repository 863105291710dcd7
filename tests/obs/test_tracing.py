"""TracingInterceptor + WireTracer: unit behaviour and the live
six-stage breakdown of a real loopback invocation (paper Fig. 7)."""

import time
from collections import Counter

import pytest

from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import ReplyStatus
from repro.idl import compile_idl
from repro.obs import (CLIENT_STAGES, STAGE_DEPOSIT_RECV, STAGE_DEPOSIT_SEND,
                       STAGE_MARSHAL, FlightRecorder, StageEvent,
                       TracingInterceptor, WireEvent, WireTracer,
                       format_wire_event)
from repro.orb import ORB, TIMEOUT, InvocationPolicy, ORBConfig
from repro.orb.interceptors import RequestInfo


def _info(op="put", **kw):
    return RequestInfo(operation=op, object_key=b"k", **kw)


# -- unit: finished spans become breakdowns + metrics ------------------------

def _finished_call(clock, status, request_id=0):
    """One client span as the ORB's producer hands it to the tracer."""
    rec = FlightRecorder(clock=clock)
    tracer = TracingInterceptor(clock=clock)
    rec.consumers.append(tracer.consume)
    span = rec.start_client_span("put", rec.begin_invocation())
    rec.stamp(STAGE_MARSHAL, 0.002, 64)
    span.request_id, span.reply_status = request_id, status
    rec.finish(span)
    return tracer


def test_client_points_commit_a_breakdown_into_metrics(clock):
    tracer = _finished_call(clock, ReplyStatus.NO_EXCEPTION, request_id=5)
    rec = tracer.last
    assert rec.request_id == 5
    assert rec.duration_s(STAGE_MARSHAL) == 0.002
    reg = tracer.registry
    assert reg.get("invocations_total", operation="put").value == 1
    assert reg.get("invocation_errors_total", operation="put") is None
    assert reg.get("stage_seconds", stage=STAGE_MARSHAL).count == 1
    assert reg.get("stage_bytes_total", stage=STAGE_MARSHAL).value == 64
    assert reg.get("stage_payload_bytes", stage=STAGE_MARSHAL).count == 1


def test_error_replies_count_separately(clock):
    tracer = _finished_call(clock, ReplyStatus.SYSTEM_EXCEPTION)
    reg = tracer.registry
    assert reg.get("invocations_total", operation="put").value == 1
    assert reg.get("invocation_errors_total", operation="put").value == 1


def test_server_points_time_the_upcall(clock):
    tracer = TracingInterceptor(clock=clock)
    info = _info("get")
    tracer.receive_request(info)
    clock.advance(0.125)
    info.reply_status = "NO_EXCEPTION"
    tracer.send_reply(info)
    reg = tracer.registry
    assert reg.get("server_requests_total", operation="get").value == 1
    hist = reg.get("server_handle_seconds", operation="get")
    assert hist.count == 1
    assert hist.sum == pytest.approx(0.125)
    assert reg.get("server_errors_total", operation="get") is None


def test_wire_tracer_keeps_only_wire_events():
    wt = WireTracer(keep=2)
    wt.emit(StageEvent(stage=STAGE_MARSHAL, duration_s=0.0))
    for i in range(3):
        wt.emit(WireEvent(direction="send", msg_type="Request", size=i,
                          request_id=i))
    assert [e.size for e in wt.records] == [1, 2]  # bounded ring
    assert all("Request" in line for line in wt.lines())


def test_format_wire_event_shows_fragments_and_deposits():
    line = format_wire_event(WireEvent(
        direction="send", msg_type="Request", size=80, request_id=1,
        fragments=3, deposits=((1, 4096), (2, 8192))))
    assert "send" in line and "Request" in line
    assert "id=1" in line and "size=80" in line
    assert "frags=3" in line
    assert "deposits=[1:4096,2:8192]" in line
    plain = format_wire_event(WireEvent(direction="recv", msg_type="Reply",
                                        size=12))
    assert "id=-" in plain
    assert "frags" not in plain and "deposits" not in plain


# -- live: a real loopback round trip produces the paper's stages ------------

def test_live_breakdown_has_all_six_stages(loop_pair):
    stub, impl, client, server = loop_pair
    tracer = client.enable_tracing(wire=True)
    server.enable_tracing()
    client.config.collocated_calls = False

    payload = bytes(range(256)) * (DEPOSIT_MIN_SIZE // 256)
    total = stub.put(ZCOctetSequence.from_data(payload))
    assert total == len(payload)

    rec = tracer.last
    assert rec is not None
    assert rec.operation == "put"
    assert rec.reply_status == "NO_EXCEPTION"
    # all six Fig. 7 stages, in wire order, non-negative durations
    assert rec.stage_order() == list(CLIENT_STAGES)
    assert rec.in_paper_order
    assert all(e.duration_s >= 0.0 for e in rec.stages)
    # the data path carried exactly the zero-copy payload
    assert rec.nbytes(STAGE_DEPOSIT_SEND) == len(payload)
    assert rec.nbytes(STAGE_DEPOSIT_RECV) == 0  # ulong reply, no deposit

    # the wire log saw the request's deposit descriptor
    send_lines = [ln for ln in tracer.wire.lines() if "Request" in ln]
    assert any(f"deposits=[1:{len(payload)}]" in ln for ln in send_lines)

    reg = tracer.registry
    assert reg.get("invocations_total", operation="put").value == 1
    assert reg.get("stage_bytes_total",
                   stage=STAGE_DEPOSIT_SEND).value == len(payload)


def test_live_breakdown_reply_deposits(loop_pair):
    stub, impl, client, server = loop_pair
    tracer = client.enable_tracing()
    client.config.collocated_calls = False

    n = DEPOSIT_MIN_SIZE
    data = stub.get(n)
    assert len(data) == n
    rec = tracer.last
    assert rec.operation == "get"
    # the reply's zero-copy result landed on the data path
    assert rec.nbytes(STAGE_DEPOSIT_RECV) == n
    assert rec.nbytes(STAGE_DEPOSIT_SEND) == 0


def test_live_breakdown_under_fragmentation(loop_pair):
    stub, impl, client, server = loop_pair
    client.config.fragment_size = 64
    tracer = client.enable_tracing(wire=True)
    client.config.collocated_calls = False

    payload = b"\xab" * DEPOSIT_MIN_SIZE
    stub.put(ZCOctetSequence.from_data(payload))
    rec = tracer.last
    assert rec.stage_order() == list(CLIENT_STAGES)
    assert rec.nbytes(STAGE_DEPOSIT_SEND) == len(payload)
    sends = [e for e in tracer.wire.records
             if e.direction == "send" and e.msg_type == "Request"]
    assert sends and sends[0].fragments > 1


def test_server_side_metrics_from_live_call(loop_pair):
    stub, impl, client, server = loop_pair
    client.enable_tracing()
    srv_tracer = server.enable_tracing()
    client.config.collocated_calls = False

    stub.put(ZCOctetSequence.from_data(b"x" * 1024))
    reg = srv_tracer.registry
    assert reg.get("server_requests_total", operation="put").value == 1
    assert reg.get("server_handle_seconds", operation="put").count == 1


def test_wire_log_enabled_on_a_live_orb_sees_its_connections(tcp_pair):
    """``enable_tracing(wire=True)`` after the first call: the wire log
    hangs on the span producer every connection already reports to, so
    the next call is logged in both directions, not only broken down."""
    stub, impl, client, server = tcp_pair
    stub.put(ZCOctetSequence.from_data(b"x" * 1024))  # dials
    tracer = client.enable_tracing(wire=True)
    stub.put(ZCOctetSequence.from_data(b"y" * 1024))
    assert tracer.last.stage_order() == list(CLIENT_STAGES)
    assert [(e.direction, e.msg_type, e.request_id)
            for e in tracer.wire.records] == \
        [("send", "Request", tracer.last.request_id),
         ("recv", "Reply", tracer.last.request_id)]


def _until(predicate, timeout: float = 5.0) -> None:
    end = time.monotonic() + timeout
    while not predicate() and time.monotonic() < end:
        time.sleep(0.01)


def _logged(wire, direction: str) -> Counter:
    return Counter((e.msg_type, e.request_id) for e in wire.records
                   if e.direction == direction)


def test_the_wire_log_hears_each_received_message_once():
    """Both ends log their messages over tcp: everything one end sent,
    the other logged as received exactly once, where it was read.  That
    includes the late reply to a caller whose deadline passed, which a
    drive drops as stale (``ReplyDemux.discard``) and no caller ever
    processes."""
    api = compile_idl("interface Naps { unsigned long nap("
                      "in unsigned long ms); };", module_name="_wire_once_idl")

    class Impl(api.Naps_skel):
        def nap(self, ms):
            time.sleep(ms / 1000.0)
            return ms

    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"))
    try:
        client_wire = client.enable_tracing(wire=True).wire
        server_wire = server.enable_tracing(wire=True).wire
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        assert stub.nap(0) == 0
        with pytest.raises(TIMEOUT):
            client.invoke(stub.ior, stub._signature("nap"), [300],
                          policy=InvocationPolicy(timeout=0.05))
        # the stale reply is sent, then read (and dropped) by the loop
        _until(lambda: len(_logged(server_wire, "send")) == 2 and
               _logged(client_wire, "recv") == _logged(server_wire, "send"))
        assert stub.nap(1) == 1
        # the server logs a send once it is written
        _until(lambda: len(_logged(server_wire, "send")) == 3)
        sent = _logged(server_wire, "send")
        assert sent == _logged(client_wire, "recv")
        assert sorted(sent.values()) == [1, 1, 1]
        received = _logged(server_wire, "recv")
        assert received == _logged(client_wire, "send")
        assert sorted(received.values()) == [1, 1, 1]
    finally:
        client.shutdown()
        server.shutdown()
