"""Distributed tracing end-to-end through the real ORB.

The acceptance scenarios of the tracing PR:

* a two-hop call (client -> frontend servant -> nested naming lookup
  and backend invoke) produces ONE trace whose span tree mirrors the
  call graph — over loopback and over real TCP sockets;
* per-span control/deposit byte attribution agrees with the
  connection-level :class:`ConnStats` totals;
* with tracing disabled (the default) no service context is added to
  the wire — checked at the codec level, on the decoded request;
* unknown service-context tags in a Request are echoed on the Reply
  unmodified (wire-level transparency).
"""

import time

import pytest

from repro.core import OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import (SVC_CTX_TRACE, TRACE_CTX_SIZE, RequestHeader,
                        ServiceContext)
from repro.idl import compile_idl
from repro.obs import (CLIENT_STAGES, SpanCollector, build_span_tree,
                       dump_spans)
from repro.obs.cli import main as metrics_cli
from repro.orb import ORB, ORBConfig
from repro.orb.dispatcher import MethodDispatcher
from repro.services.naming import NameClient, start_name_service

FRONT_IDL = """
interface Front {
    unsigned long fetch(in string path, in unsigned long n);
};
"""

_front_api = None


def _front():
    global _front_api
    if _front_api is None:
        _front_api = compile_idl(FRONT_IDL, module_name="_dtrace_front_idl")
    return _front_api


def _wait_spans(collector, n, timeout=5.0):
    """Server spans finish on pump threads; wait for them to land."""
    deadline = time.monotonic() + timeout
    while len(collector) < n and time.monotonic() < deadline:
        time.sleep(0.005)
    return collector.spans


def _traced_orb(scheme, collector, seed, server=True):
    cfg = ORBConfig(scheme=scheme) if server else \
        ORBConfig(scheme=scheme, collocated_calls=False)
    orb = ORB(cfg)
    orb.enable_tracing(distributed=True, collector=collector,
                       trace_seed=seed)
    return orb


@pytest.fixture
def traced_pair(test_api, store_impl):
    orbs = []

    def make(scheme="loop", collector=None):
        collector = collector or SpanCollector()
        server = _traced_orb(scheme, collector, seed=1)
        client = _traced_orb(scheme, collector, seed=2, server=False)
        orbs.extend([client, server])
        ref = server.activate(store_impl)
        stub = client.string_to_object(server.object_to_string(ref))
        return stub, collector, client, server

    yield make
    for orb in orbs:
        orb.shutdown()


class TestSingleHop:
    @pytest.mark.parametrize("scheme", ["loop", "tcp"])
    def test_client_server_span_pair(self, traced_pair, scheme):
        stub, collector, client, server = traced_pair(scheme)
        stub.put_std(OctetSequence(b"hello"))
        spans = _wait_spans(collector, 2)
        assert {s.kind for s in spans} == {"client", "server"}
        assert len({s.trace_id for s in spans}) == 1
        srv = next(s for s in spans if s.kind == "server")
        cli = next(s for s in spans if s.kind == "client")
        assert srv.parent_id == cli.span_id
        assert srv.request_id == cli.request_id
        assert cli.status == "NO_EXCEPTION"
        assert srv.status == "NO_EXCEPTION"
        assert cli.node == f"orb{client.orb_id}"
        assert srv.node == f"orb{server.orb_id}"
        # the client span saw all six Fig. 7 stages
        stages = [e.stage for e in cli.stages]
        assert stages == ["marshal", "control-send", "deposit-send",
                          "server-wait", "deposit-recv", "demarshal"]

    def test_user_exception_status(self, traced_pair, test_api):
        stub, collector, _, _ = traced_pair("loop")
        with pytest.raises(test_api.Test_Failed):
            stub.put(ZCOctetSequence.from_data(b""))
        srv = next(s for s in collector.spans if s.kind == "server")
        cli = next(s for s in collector.spans if s.kind == "client")
        assert srv.status == "USER_EXCEPTION"
        assert cli.status == "Test_Failed"

    def test_separate_calls_get_separate_traces(self, traced_pair):
        stub, collector, _, _ = traced_pair("loop")
        stub.put_std(OctetSequence(b"a"))
        stub.put_std(OctetSequence(b"b"))
        assert len(collector.trace_ids()) == 2


class TestTwoHop:
    """client C -> Front servant on M -> naming + Store on backend B."""

    @pytest.mark.parametrize("scheme", ["loop", "tcp"])
    def test_one_trace_spanning_three_orbs(self, test_api, store_impl,
                                           scheme, tmp_path):
        front_api = _front()
        collector = SpanCollector()
        backend = _traced_orb(scheme, collector, seed=11)
        middle = _traced_orb(scheme, collector, seed=12)
        client = _traced_orb(scheme, collector, seed=13, server=False)
        try:
            root = start_name_service(backend)
            store_ref = backend.activate(store_impl)
            NameClient(root).bind("store", store_ref)
            root_at_m = middle.string_to_object(
                backend.object_to_string(root))

            class FrontImpl(front_api.Front_skel):
                def fetch(self, path, n):
                    ref = NameClient(root_at_m).resolve(path)
                    store = ref._narrow(test_api.Test_Store)
                    return len(store.get_std(n))

            front_ref = middle.activate(FrontImpl())
            stub = client.string_to_object(
                middle.object_to_string(front_ref))

            assert stub.fetch("store", 64) == 64

            spans = _wait_spans(collector, 6)
            assert len(spans) == 6
            trace_ids = {s.trace_id for s in spans}
            assert len(trace_ids) == 1, "one logical call => one trace"
            forest = build_span_tree(spans)
            roots = forest[trace_ids.pop()]
            assert len(roots) == 1
            root_node = roots[0]
            assert (root_node.span.kind, root_node.span.name) == \
                ("client", "fetch")
            assert root_node.span.node == f"orb{client.orb_id}"

            (srv_fetch,) = root_node.children
            assert (srv_fetch.span.kind, srv_fetch.span.name) == \
                ("server", "fetch")
            assert srv_fetch.span.node == f"orb{middle.orb_id}"

            # the servant's nested calls parent under its server span
            nested = [(c.span.kind, c.span.name)
                      for c in srv_fetch.children]
            assert ("client", "resolve") in nested
            assert ("client", "get_std") in nested
            for child in srv_fetch.children:
                (grand,) = child.children
                assert grand.span.kind == "server"
                assert grand.span.name == child.span.name
                assert grand.span.node == f"orb{backend.orb_id}"

            # the dump round-trips through the CLI: check + tree render
            dump_path = str(tmp_path / f"spans-{scheme}.json")
            dump_spans(collector, dump_path)
            assert metrics_cli(["check", dump_path]) == 0
            assert metrics_cli(["tree", dump_path]) == 0
        finally:
            client.shutdown()
            middle.shutdown()
            backend.shutdown()


class TestWithoutFlightRecorder:
    def test_tracing_works_and_no_ring_is_kept(self, test_api, store_impl):
        """``flight_recorder=False`` takes the rings away, not the
        spans: ``enable_tracing`` gives the ORB a producer that keeps
        nothing itself and every reader works as before."""
        collector = SpanCollector()
        config = dict(scheme="tcp", flight_recorder=False)
        server, client = ORB(ORBConfig(**config)), ORB(ORBConfig(**config))
        try:
            assert client.span_producer is None and client.sink is None
            server.enable_tracing(distributed=True, collector=collector)
            tracer = client.enable_tracing(distributed=True,
                                           collector=collector)
            stub = client.string_to_object(
                server.object_to_string(server.activate(store_impl)))
            assert len(stub.get(4096)) == 4096
            cli, srv = sorted(_wait_spans(collector, 2),
                              key=lambda s: s.kind)
            assert (cli.kind, srv.kind) == ("client", "server")
            assert (srv.trace_id, srv.parent_id) == \
                (cli.trace_id, cli.span_id)
            assert [e.stage for e in cli.stages] == list(CLIENT_STAGES)
            assert tracer.last.stages == cli.stages
            for orb in (client, server):
                assert orb.flightrec is None
                assert orb.span_producer.recent() == []
                assert orb.span_producer.slow_trees() == []
        finally:
            client.shutdown()
            server.shutdown()


class TestJoinRule:
    """A server span joins the trace context that arrives, whether or
    not its own ORB traces; what no tracer is attached to puts nothing
    on the wire."""

    def test_default_server_parents_under_a_tracing_clients_span(
            self, test_api, store_impl, monkeypatch):
        seen = []
        orig = MethodDispatcher.dispatch

        def spy(self, conn, rm):
            seen.append((conn.orb, [sc.context_id for sc in
                                    rm.msg.body_header.service_contexts]))
            return orig(self, conn, rm)

        monkeypatch.setattr(MethodDispatcher, "dispatch", spy)
        front_api = _front()
        backend = ORB(ORBConfig(scheme="tcp"))      # default
        middle = ORB(ORBConfig(scheme="tcp"))       # default
        client = _traced_orb("tcp", SpanCollector(), seed=31, server=False)
        try:
            store = middle.string_to_object(backend.object_to_string(
                backend.activate(store_impl)))

            class FrontImpl(front_api.Front_skel):
                def fetch(self, path, n):
                    return len(store.get_std(n))

            stub = client.string_to_object(middle.object_to_string(
                middle.activate(FrontImpl())))
            assert stub.fetch("x", 16) == 16
            (cli,) = client.dtracer.collector.spans
            deadline = time.monotonic() + 5.0
            while not (middle.flightrec.recorded_total and
                       backend.flightrec.recorded_total) and \
                    time.monotonic() < deadline:
                time.sleep(0.005)
            srv = middle.flightrec.recent()[-1]
            assert (srv.kind, srv.name) == ("server", "fetch")
            assert (srv.trace_id, srv.parent_id, srv.request_id) == \
                (cli.trace_id, cli.span_id, cli.request_id)
            # the default middle ORB keeps the trace on its own stack
            # but, having no tracer, sends no context on: the backend
            # roots a trace of its own
            assert seen == [(middle, [SVC_CTX_TRACE]), (backend, [])]
            far = backend.flightrec.recent()[-1]
            assert far.parent_id is None and far.trace_id != cli.trace_id
        finally:
            client.shutdown()
            middle.shutdown()
            backend.shutdown()


class TestByteAttribution:
    def test_client_span_totals_match_connstats(self, traced_pair):
        """Per-span control/deposit byte split, summed over every
        client span, must equal the connection-level ConnStats —
        the two accountings observe the same wire."""
        stub, collector, client, _ = traced_pair("loop")
        n_put, n_get = DEPOSIT_MIN_SIZE, 2 * DEPOSIT_MIN_SIZE
        stub.put(ZCOctetSequence.from_data(bytes(n_put)))
        stub.put_std(OctetSequence(bytes(4 * 1024)))
        assert len(bytes(stub.get(n_get))) == n_get
        assert stub.total == n_put + 4 * 1024

        proxy = next(iter(client._proxies.values()))
        stats = proxy.stats
        cli_spans = [s for s in collector.spans if s.kind == "client"]
        assert len(cli_spans) == 4
        assert sum(s.control_bytes_sent for s in cli_spans) == \
            stats.bytes_sent
        assert sum(s.control_bytes_recv for s in cli_spans) == \
            stats.bytes_received
        assert sum(s.deposit_bytes_sent for s in cli_spans) == \
            stats.deposit_bytes_sent == n_put
        assert sum(s.deposit_bytes_recv for s in cli_spans) == \
            stats.deposit_bytes_received == n_get
        # time was attributed to both paths
        assert all(s.control_seconds > 0 for s in cli_spans)


class TestWireHygiene:
    @pytest.fixture
    def dispatch_spy(self, monkeypatch):
        """Captures the service contexts of every DECODED request —
        i.e. exactly what the wire carried, after the codec."""
        seen = []
        orig = MethodDispatcher.dispatch

        def spy(self, conn, rm):
            seen.append(list(rm.msg.body_header.service_contexts))
            return orig(self, conn, rm)

        monkeypatch.setattr(MethodDispatcher, "dispatch", spy)
        return seen

    def test_disabled_tracing_adds_zero_contexts(self, dispatch_spy,
                                                 loop_pair):
        stub, _, _, _ = loop_pair
        stub.put_std(OctetSequence(b"quiet"))
        assert dispatch_spy[-1] == []

    def test_enabled_tracing_adds_exactly_one_context(self, dispatch_spy,
                                                      traced_pair):
        stub, _, _, _ = traced_pair("loop")
        stub.put_std(OctetSequence(b"traced"))
        contexts = dispatch_spy[-1]
        assert [sc.context_id for sc in contexts] == [SVC_CTX_TRACE]
        assert len(contexts[0].data) == TRACE_CTX_SIZE

    def test_unknown_request_context_echoed_on_reply(self, loop_pair):
        """A tag the server does not understand must come back on the
        Reply byte-identical (wire-level interop contract)."""
        from repro.giop import MsgType, ReplyStatus
        from repro.orb.connection import GIOPConn
        from repro.transport.base import registry as default_registry

        stub, _, _, server = loop_pair
        key = stub.ior.iiop_profile().object_key
        stream = default_registry().get("loop").connect(server.endpoint)
        conn = GIOPConn(stream)
        try:
            foreign = ServiceContext(0x4242, b"opaque-blob")
            req = RequestHeader(request_id=conn.next_request_id(),
                                object_key=key,
                                operation="_non_existent",
                                service_contexts=[foreign])
            conn.send_message(req)
            # the reply leaves the server's worker pool asynchronously;
            # loopback reads never block, so wait for it to be queued
            deadline = time.monotonic() + 5.0
            while stream.available == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            rm = conn.read_message()
            assert rm.header.msg_type is MsgType.Reply
            reply = rm.msg.body_header
            assert reply.request_id == req.request_id
            assert reply.reply_status is ReplyStatus.NO_EXCEPTION
            assert foreign in reply.service_contexts
            # the server adds nothing of its own when untraced
            assert [sc.context_id for sc in reply.service_contexts] == \
                [0x4242]
        finally:
            conn.close()
