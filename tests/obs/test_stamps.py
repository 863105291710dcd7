"""What the ORB layers stamp into their span producer, on live calls.

The connection reads replies on a thread that is not the caller's, so
a reply's ``server-wait`` / ``deposit-recv`` stages are built by the
awaiting caller from the numbers the read left on the message, as a
request's ``recv-wait`` / ``deposit-recv`` are by the server span that
owns it.  These tests hold what that buys (a stage can no longer be charged the
connection's idle time), what it must not cost (every reader of the
producer sees the same six stages in the same order), and that the
legacy ``on_bytes`` hook hears the marshalers whoever observes.
"""

import time

import pytest

from repro.core import OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.obs import CLIENT_STAGES, FlightRecorder, StageEvent
from repro.orb import ORB, ORBConfig
from repro.transport.shm import shm_available
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
    {"scheme": "tcp"}, {"scheme": "tcp", "server_workers": 0},
    {"scheme": "loop"},
    pytest.param({"scheme": "shm"}, marks=pytest.mark.skipif(
        not shm_available(), reason="no shared-memory directory"))],
    ids=["tcp-reactor", "tcp-thread", "loop", "shm"])
def test_no_stage_is_charged_the_idle_before_its_call(ping_api, config,
                                                      traced):
    """``ping; sleep; ping``: the second call's stages fit inside its
    span, whichever engine read the reply and whichever sink kept it.
    (A reader that opens ``server-wait`` when the previous message was
    delivered charges the pause to the next call.)  Traced or not, the
    span carries the six stages: a send is stamped whoever listens."""
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
        assert [e.stage for e in span.stages] == list(CLIENT_STAGES)
        if traced:
            records.append(tracer.last.stages)
            assert tracer.last.stage_order() == list(CLIENT_STAGES)
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
    call's span, and stamps nothing there.  The server span that owns
    the request begins with its header and stamps its ``recv-wait``,
    which must not hold the pause before it (the pump begins the next
    message's parse as soon as it has read the last one)."""
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
        woke = orb.flightrec.clock()
        stub.ping(2)
        server, client = orb.flightrec.slow_trees()[-1]
        assert (client.name, client.kind) == ("ping", "client")
        assert (server.kind, server.parent) == ("server", client.number)
        assert [e.stage for e in client.stages] == list(CLIENT_STAGES)
        assert server.start_s >= woke
        (read,) = [e for e in server.stages if e.stage == "recv-wait"]
        assert 0.0 <= read.duration_s <= server.duration_s, read
    finally:
        orb.shutdown()


def test_a_connection_older_than_its_producer_opens_its_span_now(ping_api):
    """A ``flight_recorder=False`` server that starts tracing after its
    first connection: that connection reads with no producer, so its
    messages carry no read numbers.  The server span of the next call
    still opens when it is dispatched, and stamps no read."""
    class Impl(ping_api.Idle_skel):
        def ping(self, x):
            return None

    server = ORB(ORBConfig(scheme="tcp", flight_recorder=False,
                           server_workers=0))
    client = ORB(ORBConfig(scheme="tcp"))
    try:
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        stub.ping(1)  # dials: the server's connection has no producer
        seen = []
        server.enable_tracing()
        server.span_producer.consumers.append(seen.append)
        before = server.span_producer.clock()
        stub.ping(2)
        deadline = time.monotonic() + 5.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.005)
        (span,) = seen
        assert span.kind == "server" and span.start_s >= before
        assert "recv-wait" not in [e.stage for e in span.stages]
    finally:
        client.shutdown()
        server.shutdown()


def test_traced_call_delivers_six_stages_in_order_to_every_sink(test_api):
    """A reader the user appends to ``span_producer.consumers`` sees the
    six stages; the recorder's span, the collector's span and the
    breakdown are one record read three times (same ids, same stages),
    and the server's span hangs under it."""
    seen = []
    server = ORB(ORBConfig(scheme="tcp", slow_call_threshold=0.0))
    client = ORB(ORBConfig(scheme="tcp", slow_call_threshold=0.0))
    client.span_producer.consumers.append(seen.append)
    try:
        tracer = client.enable_tracing(distributed=True)
        server.enable_tracing(distributed=True)
        stub = client.string_to_object(server.object_to_string(
            server.activate(make_store_impl(test_api))))
        stub.get(4096)  # warm: dial, first reply
        seen.clear()
        assert len(stub.get(DEPOSIT_MIN_SIZE)) == DEPOSIT_MIN_SIZE
        (span,) = [s for s in seen if s.kind == "client"]
        events = span.stages
        assert [e.stage for e in events] == list(CLIENT_STAGES)
        assert tracer.last.stages == events
        (cli,) = [s for s in tracer.spans.spans
                  if s.kind == "client"][-1:]
        assert cli is span
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


def test_the_recorder_keeps_numbers_and_builds_events_on_read(clock):
    rec = FlightRecorder(slow_threshold=0.0, clock=clock)
    rec.stamp("marshal", 0.1)  # no open span on this thread: kept nowhere
    active = rec.start_client_span("op", rec.begin_invocation())
    rec.stamp("marshal", 0.25, 64)
    rec.stamp("demarshal", 0.5, 8)
    span = rec.finish(active)
    assert span.stamps == [("marshal", 0.25, 64), ("demarshal", 0.5, 8)]
    assert span.stages == [StageEvent("marshal", 0.25, 64),
                           StageEvent("demarshal", 0.5, 8)]


class TestOnBytes:
    """The legacy ``on_bytes(kind, nbytes)`` hook: every marshaler, on
    both sides, reports to the connection's ``on_bytes`` as it is, and
    what observes the ORB changes nothing about it."""

    def test_default_orb_hands_marshalers_no_hook(self, test_api):
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop"))
        try:
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            stub.put_std(OctetSequence(b"y" * 100))
            (proxy,) = client._proxies.values()
            assert proxy.conn.sink is client.span_producer
            assert proxy.conn.on_bytes is None
            assert proxy.conn.make_marshal_context().on_bytes is None
            conns = server._server.connections()
            assert conns and all(c.on_bytes is None for c in conns)
        finally:
            client.shutdown()
            server.shutdown()

    def test_the_hook_hears_every_marshaler_under_tracing(self, test_api):
        """Under enable_tracing with a wire log the hook the client was
        built with hears every marshaler, one event per payload."""
        legacy = []
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop"),
                     on_bytes=lambda kind, n: legacy.append((kind, n)))
        try:
            client.enable_tracing(wire=True)
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            n_put, n_get = 2 * DEPOSIT_MIN_SIZE, DEPOSIT_MIN_SIZE
            stub.put(ZCOctetSequence.from_data(b"x" * n_put))
            stub.put_std(OctetSequence(b"y" * 100))
            stub.get(n_get)
            stub.get_std(10)
            (proxy,) = client._proxies.values()
            assert proxy.conn.make_marshal_context().on_bytes is \
                client.on_bytes
            # the connection reports its deposit traffic to the hook
            # directly, the marshalers everything else
            assert [c for c in legacy if not c[0].startswith("deposit-")] \
                == [("reference", n_put), ("marshal-bulk", 100),
                    ("reference", n_get), ("marshal-bulk", 10)]
        finally:
            client.shutdown()
            server.shutdown()

    @pytest.mark.parametrize("recorder", [True, False],
                             ids=["recorder", "no-recorder"])
    def test_a_servers_demarshal_reports_to_the_hook_it_was_given(
            self, test_api, recorder):
        """``ORB.on_bytes`` assigned on a server before its first
        connection: the request's demarshal reports to it whether or
        not the ORB keeps a flight recorder."""
        seen = []
        server = ORB(ORBConfig(scheme="tcp", flight_recorder=recorder))
        client = ORB(ORBConfig(scheme="tcp"))
        try:
            ref = server.activate(make_store_impl(test_api))
            server.on_bytes = lambda kind, n: seen.append(kind)
            stub = client.string_to_object(server.object_to_string(ref))
            stub.put_std(OctetSequence(b"y" * 100))
            assert seen == ["marshal-bulk"]
        finally:
            client.shutdown()
            server.shutdown()
