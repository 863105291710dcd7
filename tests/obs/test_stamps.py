"""What the ORB layers stamp into their sinks, on live calls.

The connection reads replies on a thread that is not the caller's, so
a reply's ``server-wait`` / ``deposit-recv`` stages are built by the
awaiting caller from the numbers the read left on the message.  These
tests hold what that buys (a stage can no longer be charged the
connection's idle time), what it must not cost (event-consuming sinks
see the same six stages in the same order), and that byte events are
built only for a sink that keeps them.
"""

import time

import pytest

from repro.core import OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.obs import (CLIENT_STAGES, ByteEvent, CompositeSink, EventSink,
                       FlightRecorder, RecordingSink, StageEvent)
from repro.orb import ORB, ORBConfig
from tests.conftest import make_store_impl

IDLE = 0.3


@pytest.fixture(scope="module")
def ping_api():
    return compile_idl("interface Idle { void ping(in unsigned long x); };",
                       module_name="_stamps_idl")


def _ping_pair(api, **config):
    class Impl(api.Idle_skel):
        def ping(self, x):
            return None

    server = ORB(ORBConfig(**config))
    client = ORB(ORBConfig(slow_call_threshold=0.0, **config))
    stub = client.string_to_object(
        server.object_to_string(server.activate(Impl())))
    return stub, client, server


@pytest.mark.parametrize("traced", [False, True], ids=["recorder", "traced"])
@pytest.mark.parametrize("config", [
    {"scheme": "tcp", "reactor": True}, {"scheme": "tcp", "reactor": False},
    {"scheme": "loop"}], ids=["tcp-reactor", "tcp-thread", "loop"])
def test_no_stage_is_charged_the_idle_before_its_call(ping_api, config,
                                                      traced):
    """``ping; sleep; ping``: the second call's stages fit inside its
    span, whichever engine read the reply and whichever sink kept it.
    (A reader that opens ``server-wait`` when the previous message was
    delivered charges the pause to the next call.)"""
    stub, client, server = _ping_pair(ping_api, **config)
    try:
        tracer = client.enable_tracing() if traced else None
        stub.ping(1)
        time.sleep(IDLE)
        woke = client.flightrec.clock()
        stub.ping(2)
        span = client.flightrec.recent()[-1]
        assert (span.name, span.kind) == ("ping", "client")
        # the thing itself, not a wall-clock bound a loaded host can
        # miss: the span opened after the pause, so nothing inside it
        # (every stage is held to the span below) can contain the pause
        assert span.start_s >= woke
        records = [span.stages]
        if traced:
            records.append(tracer.last.stages)
            # the split send stages are only there for a wire-stage sink
            assert tracer.last.stage_order() == list(CLIENT_STAGES)
            assert [e.stage for e in span.stages] == list(CLIENT_STAGES)
        for stages in records:
            assert stages, "slow_call_threshold=0 keeps the detail"
            for event in stages:
                assert 0.0 <= event.duration_s <= span.duration_s, event
            assert sum(e.duration_s for e in stages) <= \
                span.duration_s + 1e-3
    finally:
        client.shutdown()
        server.shutdown()


def test_a_pumped_requests_read_is_not_charged_the_idle_before_it(ping_api):
    """One ORB calling itself over ``loop``, dispatching inline: the
    server's read of a request runs on the caller's thread, inside the
    call's span, so its ``recv-wait`` must start with the request, not
    with the pause before it (the pump begins the next message's parse
    as soon as it has read the last one)."""
    class Impl(ping_api.Idle_skel):
        def ping(self, x):
            return None

    orb = ORB(ORBConfig(scheme="loop", collocated_calls=False,
                        server_workers=0, slow_call_threshold=0.0))
    try:
        stub = orb.string_to_object(orb.object_to_string(
            orb.activate(Impl())))
        stub.ping(1)
        time.sleep(IDLE)
        stub.ping(2)
        span = orb.flightrec.recent()[-1]
        assert (span.name, span.kind) == ("ping", "client")
        (read,) = [e for e in span.stages if e.stage == "recv-wait"]
        assert 0.0 <= read.duration_s <= span.duration_s, read
    finally:
        orb.shutdown()


def test_traced_call_delivers_six_stages_in_order_to_every_sink(test_api):
    """A user RecordingSink behind the CompositeSink sees the six
    StageEvents; the recorder's span, the collector's span and the
    breakdown are one record read three times (same ids, same stages),
    and the server's span hangs under it."""
    user = RecordingSink()
    server = ORB(ORBConfig(scheme="tcp", slow_call_threshold=0.0))
    client = ORB(ORBConfig(scheme="tcp", slow_call_threshold=0.0), sink=user)
    try:
        tracer = client.enable_tracing(distributed=True)
        server.enable_tracing(distributed=True)
        stub = client.string_to_object(server.object_to_string(
            server.activate(make_store_impl(test_api))))
        stub.get(4096)  # warm: dial, first reply
        user.clear()
        assert len(stub.get(DEPOSIT_MIN_SIZE)) == DEPOSIT_MIN_SIZE
        events = user.of_type(StageEvent)
        assert [e.stage for e in events] == list(CLIENT_STAGES)
        assert tracer.last.stages == events
        (cli,) = [s for s in tracer.spans.spans
                  if s.kind == "client"][-1:]
        assert cli.stages == events
        rec_span = client.flightrec.recent()[-1]
        assert rec_span.stages == events
        # one record: the ring and the collector hold the same object,
        # and the breakdown was read off it
        assert rec_span is cli
        assert tracer.last.request_id == cli.request_id > 0
        assert (len(cli.trace_id), len(cli.span_id)) == (32, 16)
        srv = _wait_for(lambda: [
            s for s in server.flightrec.recent()
            if s.kind == "server" and s.request_id == cli.request_id])[0]
        assert (srv.trace_id, srv.parent_id) == (cli.trace_id, cli.span_id)
        assert srv in server.dtracer.collector.spans
        by_stage = {e.stage: e for e in events}
        assert by_stage["deposit-recv"].nbytes == DEPOSIT_MIN_SIZE
        assert by_stage["server-wait"].nbytes > 0
        assert by_stage["demarshal"].nbytes > 0
    finally:
        client.shutdown()
        server.shutdown()


def _wait_for(probe, timeout=5.0):
    """A server span finishes on a worker thread, after the reply left."""
    deadline = time.monotonic() + timeout
    while not (got := probe()) and time.monotonic() < deadline:
        time.sleep(0.005)
    return got


def test_stamp_default_builds_the_event_and_the_recorder_does_not(clock):
    sink = RecordingSink(clock=clock)
    sink.stamp("marshal", 0.25, 64)
    assert sink.events == [StageEvent("marshal", 0.25, 64)]
    combo = CompositeSink([RecordingSink(), RecordingSink()])
    combo.stamp("demarshal", 0.5)
    assert combo.sinks[0].events == combo.sinks[1].events == \
        [StageEvent("demarshal", 0.5, 0)]

    rec = FlightRecorder(slow_threshold=0.0, clock=clock)
    rec.stamp("marshal", 0.1)  # no open span on this thread: kept nowhere
    active = rec.start_client_span("op", rec.begin_invocation())
    rec.stamp("marshal", 0.25, 64)
    rec.emit(StageEvent("demarshal", 0.5, 8))
    span = rec.finish(active)
    assert span.stages == [StageEvent("marshal", 0.25, 64),
                           StageEvent("demarshal", 0.5, 8)]


class TestByteEvents:
    def test_sinks_declare_whether_they_keep_byte_events(self):
        assert EventSink().byte_events is True
        rec = FlightRecorder()
        assert rec.byte_events is False
        assert CompositeSink([rec]).byte_events is False
        assert CompositeSink([rec, RecordingSink()]).byte_events is True
        assert CompositeSink([]).byte_events is False

    def test_default_orb_hands_marshalers_no_hook(self, test_api):
        """The recorder drops byte events, so none are built for it."""
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop"))
        try:
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            stub.put_std(OctetSequence(b"y" * 100))
            (proxy,) = client._proxies.values()
            assert proxy.conn.sink is client.flightrec
            assert proxy.conn.bytes_hook() is None
            conns = server._server.connections()
            assert conns and all(c.bytes_hook() is None for c in conns)
        finally:
            client.shutdown()
            server.shutdown()

    def test_a_sink_that_keeps_them_still_sees_every_one(self, test_api):
        """Under enable_tracing (timer + recorder + the user's sink) the
        sink's byte events are the legacy hook's, one for one."""
        legacy = []
        user = RecordingSink()
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop"), sink=user,
                     on_bytes=lambda kind, n: legacy.append((kind, n)))
        try:
            client.enable_tracing()
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            n_put, n_get = 2 * DEPOSIT_MIN_SIZE, DEPOSIT_MIN_SIZE
            stub.put(ZCOctetSequence.from_data(b"x" * n_put))
            stub.put_std(OctetSequence(b"y" * 100))
            stub.get(n_get)
            stub.get_std(10)
            seen = [(e.kind, e.nbytes) for e in user.of_type(ByteEvent)]
            assert seen == [("reference", n_put), ("marshal-bulk", 100),
                            ("reference", n_get), ("marshal-bulk", 10)]
            # the connection reports its deposit traffic to the legacy
            # hook directly; everything a marshaler said reached both
            assert seen == [c for c in legacy
                            if not c[0].startswith("deposit-")]
        finally:
            client.shutdown()
            server.shutdown()
