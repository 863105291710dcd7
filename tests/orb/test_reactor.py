"""The event-loop connection engine: adoption rules, thread hygiene,
graceful shutdown, and identical failure semantics on the async path.

The owner offers the loop: a client at the hand-over, a server with a
worker pool at accept (one with ``server_workers=0`` keeps a reader
thread per connection), over tcp, shm or a fault-injected stream alike;
a loopback stream is pumped whatever it is offered.  Every
thread the ORB starts must be joined on shutdown, an in-flight request
must drain before the server closes its connections, and a mid-call
fault must surface the *same* CORBA exception/completion mapping
whether the call was sync or awaited.
"""

import asyncio
import threading
import time

import pytest

from repro.core import OctetSequence
from repro.giop import MsgType, encode_giop_header
from repro.orb import COMM_FAILURE, NO_RETRY, ORB, ORBConfig, run_sync
from repro.orb.aio import async_api
from repro.orb.connection import GIOPConn
from repro.orb.reactor import get_reactor
from repro.transport import (FaultPlan, LoopbackTransport, TCPTransport,
                             faulty_registry)
from repro.transport.faulty import FaultyStream
from tests.conftest import make_store_impl


def _on_the_loop(conn) -> bool:
    return any(driver.conn is conn
               for driver in list(get_reactor()._drivers.values()))


def _settle(predicate, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


@pytest.fixture
def tcp_stream_pair():
    transport = TCPTransport()
    accepted = []
    listener = transport.listen("127.0.0.1", 0, accepted.append)
    client = transport.connect(listener.endpoint)
    assert _settle(lambda: accepted)
    yield client, accepted[0]
    client.close()
    accepted[0].close()
    listener.close()


class TestAdoption:
    def test_tcp_stream_is_adoptable(self, tcp_stream_pair):
        """Offered the loop, a socket stream is read there: no reader
        thread, and what the peer sends arrives on the loop thread."""
        client, accepted = tcp_stream_pair
        conn = GIOPConn(accepted)
        seen = []
        try:
            assert conn.start_reading(
                lambda rm, driver: seen.append(
                    (rm.msg_type, threading.current_thread().name)),
                lambda exc, driver: None, reactor=get_reactor()) is None
            assert _settle(lambda: _on_the_loop(conn))
            client.send(encode_giop_header(MsgType.CloseConnection, 0))
            assert _settle(lambda: seen)
            assert seen == [(MsgType.CloseConnection, "giop-reactor-0")]
        finally:
            conn.close()

    def test_faulty_tcp_is_adopted_and_its_faults_fire_on_the_loop(
            self, test_api):
        """A FaultyStream keeps the non-blocking contract of the socket
        it wraps, so the loop reads it, and what the plan injects
        happens there: a recv stall holds the stream without blocking
        the loop or spinning it, a reset fails the call."""
        plan = FaultPlan()
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"),
                     transports=faulty_registry(plan), policy=NO_RETRY)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(
                    make_store_impl(test_api))))
            aio = async_api(stub)
            assert run_sync(aio.put_std(OctetSequence(b"over"))) == 4
            demux = next(iter(client._proxies.values()))._demux
            assert isinstance(demux.conn.stream, FaultyStream)
            assert not demux.callers_read and _on_the_loop(demux.conn)

            async def stalled():
                call = asyncio.ensure_future(
                    aio.put_std(OctetSequence(b"slow")))
                loop, lag = asyncio.get_running_loop(), 0.0
                while not call.done():
                    t0 = loop.time()
                    await asyncio.sleep(0.01)
                    lag = max(lag, loop.time() - t0 - 0.01)
                return await call, lag

            plan.stall_recv(nth=None, delay=0.2)
            cpu, t0 = time.process_time(), time.monotonic()
            total, lag = run_sync(stalled(), timeout=10.0)
            wall, cpu = time.monotonic() - t0, time.process_time() - cpu
            assert total == 8 and wall >= 0.2
            assert plan.events[-1].action == "stall"
            assert lag < 0.05, f"the loop lagged {lag:.3f}s in a 0.2s stall"
            assert cpu < 0.1, f"{cpu:.3f}s of CPU in a 0.2s stall"

            plan.reset_on_recv(nth=None)
            with pytest.raises(COMM_FAILURE):
                run_sync(aio.put_std(OctetSequence(b"zap")), timeout=10.0)
            assert plan.events[-1].action == "reset"
        finally:
            client.shutdown()
            server.shutdown()

    def test_loopback_stream_offered_the_loop_is_pumped(self):
        """A stream with no socket delivers on the sender's thread:
        offered the loop, it takes the pump, and no driver or thread."""
        transport = LoopbackTransport()
        accepted = []
        listener = transport.listen("adopt-host", 0, accepted.append)
        client = transport.connect(listener.endpoint)
        conn = GIOPConn(accepted[0])
        seen = []
        try:
            assert conn.start_reading(
                lambda rm: seen.append((rm.msg_type,
                                        threading.current_thread())),
                seen.append, reactor=get_reactor()) is None
            assert not _on_the_loop(conn)
            client.send(encode_giop_header(MsgType.CloseConnection, 0))
            assert seen == [(MsgType.CloseConnection,
                             threading.current_thread())]
        finally:
            conn.close()
            client.close()
            listener.close()


class TestThreadHygiene:
    def test_active_count_returns_to_baseline(self, test_api):
        """S1: shutdown joins the demux readers, accept threads and
        worker pool — a full client/server cycle must not leave
        threads behind (the persistent reactor shard is warmed first
        so it is part of the baseline)."""

        def cycle():
            server = ORB(ORBConfig(scheme="tcp"))
            client = ORB(ORBConfig(scheme="tcp"))
            try:
                impl = make_store_impl(test_api)
                stub = client.string_to_object(
                    server.object_to_string(server.activate(impl)))
                assert stub.put_std(OctetSequence(b"x" * 64)) == 64
            finally:
                client.shutdown()
                server.shutdown()

        cycle()  # warm: reactor shard thread + default executor persist
        assert _settle(lambda: True)
        baseline = threading.active_count()
        cycle()
        assert _settle(
            lambda: threading.active_count() <= baseline), \
            [t.name for t in threading.enumerate()]

    def test_threaded_fallback_also_joins(self, test_api):
        """The same hygiene where the server keeps a reader thread per
        connection (``server_workers=0``: it dispatches inline), after
        an awaited call handed the client's connection to the loop, over
        tcp and over shm."""
        from repro.transport.shm import shm_available
        for scheme in ("tcp", "shm") if shm_available() else ("tcp",):
            self._threaded_cycles(test_api, scheme)

    @staticmethod
    def _threaded_cycles(test_api, scheme):
        def cycle():
            server = ORB(ORBConfig(scheme=scheme, server_workers=0))
            client = ORB(ORBConfig(scheme=scheme))
            try:
                impl = make_store_impl(test_api)
                stub = client.string_to_object(
                    server.object_to_string(server.activate(impl)))
                assert stub.put_std(OctetSequence(b"y" * 8)) == 8
                assert run_sync(async_api(stub).put_std(
                    OctetSequence(b"z" * 4))) == 12
                assert [t.name for t in threading.enumerate()
                        if t.name.startswith("iiop-server-")]
            finally:
                client.shutdown()
                server.shutdown()

        cycle()
        assert _settle(lambda: True)
        baseline = threading.active_count()
        cycle()
        assert _settle(
            lambda: threading.active_count() <= baseline), \
            [t.name for t in threading.enumerate()]


    def test_a_server_keeps_no_ended_reader(self, test_api):
        """A ``server_workers=0`` server reads each connection on a
        thread of its own and keeps the live ones only: after twenty
        connections came and went, the next one's is all it holds."""
        server = ORB(ORBConfig(scheme="tcp", server_workers=0))
        try:
            ior = server.object_to_string(server.activate(
                make_store_impl(test_api)))
            iiop = server._server
            for i in range(21):
                assert _settle(lambda: not any(
                    t.is_alive() for t in iiop._reader_threads))
                client = ORB(ORBConfig(scheme="tcp"))
                try:
                    assert client.string_to_object(ior).put_std(
                        OctetSequence(b"ping")) == 4 * (i + 1)
                    if i == 20:  # the accept thread lists it after
                        assert _settle(lambda: [  # its reader started
                            t.is_alive() for t in iiop._reader_threads]
                            == [True])
                finally:
                    client.shutdown()
        finally:
            server.shutdown()


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_request(self, test_api):
        """S3: a request already handed to a worker completes (and its
        reply reaches the client) before shutdown closes the
        connections."""
        impl = make_store_impl(test_api)
        entered = threading.Event()
        release = threading.Event()
        orig = impl.put_std

        def slow_put_std(data):
            entered.set()
            assert release.wait(10.0)
            return orig(data)

        impl.put_std = slow_put_std
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"))
        result = []
        errors = []
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))

            def call():
                try:
                    result.append(stub.put_std(OctetSequence(b"drain!")))
                except Exception as e:  # noqa: BLE001 - recorded
                    errors.append(e)

            t = threading.Thread(target=call)
            t.start()
            assert entered.wait(10.0)
            shut = threading.Thread(target=server.shutdown)
            shut.start()
            time.sleep(0.1)  # let shutdown reach its drain loop
            release.set()
            shut.join(10.0)
            t.join(10.0)
            assert not errors, errors
            assert result == [6]
        finally:
            release.set()
            client.shutdown()
            server.shutdown()


class TestAsyncFailureMapping:
    """S3 + S6: the async path surfaces the same CORBA exception and
    completion status as the sync path, and fault injection keeps
    working (faulty streams fall back to the reader thread)."""

    @staticmethod
    def _faulty_pair(plan, store_impl):
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"),
                     transports=faulty_registry(plan), policy=NO_RETRY)
        ref = server.activate(store_impl)
        stub = client.string_to_object(server.object_to_string(ref))
        return stub, client, server

    def test_mid_call_reset_maps_identically(self, test_api):
        def run_one(asynchronous):
            # recv #1 is the reply *header* (the demux blocks there
            # from the moment it starts); resetting recv #2 lands the
            # fault deterministically mid-reply, after the request is
            # on the wire — COMPLETED_MAYBE on both paths
            plan = FaultPlan().reset_on_recv(nth=2)
            stub, client, server = self._faulty_pair(
                plan, make_store_impl(test_api))
            try:
                if asynchronous:
                    async def go():
                        await async_api(stub).put_std(
                            OctetSequence(b"zap"))
                    with pytest.raises(COMM_FAILURE) as ei:
                        asyncio.run(go())
                else:
                    with pytest.raises(COMM_FAILURE) as ei:
                        stub.put_std(OctetSequence(b"zap"))
                return ei.value
            finally:
                client.shutdown()
                server.shutdown()

        sync_exc = run_one(asynchronous=False)
        async_exc = run_one(asynchronous=True)
        assert type(async_exc) is type(sync_exc)
        assert async_exc.completed == sync_exc.completed

    def test_stalled_recv_still_completes_async(self, test_api):
        plan = FaultPlan().stall_recv(nth=1, delay=0.05)
        stub, client, server = self._faulty_pair(
            plan, make_store_impl(test_api))
        try:
            async def go():
                return await async_api(stub).put_std(
                    OctetSequence(b"slow"))
            assert asyncio.run(go()) == 4
        finally:
            client.shutdown()
            server.shutdown()

    def test_partial_send_fails_async_like_sync(self, test_api):
        def run_one(asynchronous):
            plan = FaultPlan().partial_send(nth=2, fraction=0.5)
            stub, client, server = self._faulty_pair(
                plan, make_store_impl(test_api))
            try:
                stub.put_std(OctetSequence(b"warm"))  # send #1 is clean
                if asynchronous:
                    async def go():
                        await async_api(stub).put_std(
                            OctetSequence(b"torn"))
                    with pytest.raises(COMM_FAILURE) as ei:
                        asyncio.run(go())
                else:
                    with pytest.raises(COMM_FAILURE) as ei:
                        stub.put_std(OctetSequence(b"torn"))
                return ei.value
            finally:
                client.shutdown()
                server.shutdown()

        sync_exc = run_one(asynchronous=False)
        async_exc = run_one(asynchronous=True)
        assert type(async_exc) is type(sync_exc)
        assert async_exc.completed == sync_exc.completed


class TestShmUnderReactor:
    def test_shm_handshake_and_deposits_unchanged(self, test_api):
        """S6: after one awaited call the loop reads the shm client's
        connection, deposit records included, and from its accept the
        server's, with no reader thread; the handshake, deposits and
        fallbacks behave exactly as before, sync and awaited."""
        from repro.transport.shm import shm_available
        if not shm_available("/dev/shm"):
            pytest.skip("no usable shared-memory filesystem")
        from repro.core import ZCOctetSequence
        impl = make_store_impl(test_api)
        server = ORB(ORBConfig(scheme="shm"))
        client = ORB(ORBConfig(scheme="shm", collocated_calls=False))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            assert run_sync(async_api(stub).put_std(
                OctetSequence(b"over"))) == 4
            demux = next(iter(client._proxies.values()))._demux
            assert not demux.callers_read and _on_the_loop(demux.conn)
            (accepted,) = server._server.connections()
            assert _on_the_loop(accepted)
            assert not [t.name for t in threading.enumerate()
                        if t.name.startswith("iiop-server-")]
            payload = bytes(range(256)) * 256  # 64 KiB
            assert stub.put(ZCOctetSequence.from_data(payload)) \
                == 4 + len(payload)
            got = stub.get(1024)
            assert bytes(got)[:4] == bytes([0, 1, 2, 3])
            got = run_sync(async_api(stub).get(2 * len(payload)))
            assert len(got) == 2 * len(payload)
        finally:
            client.shutdown()
            server.shutdown()


    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_one_thread_reads_every_connection(self, test_api, clients):
        """ROADMAP item 2: a server with a worker pool reads 1, 4 or 16
        shm connections with one thread, the loop's; none has a reader
        thread of its own."""
        from repro.transport.shm import shm_available
        if not shm_available("/dev/shm"):
            pytest.skip("no usable shared-memory filesystem")
        server = ORB(ORBConfig(scheme="shm"))
        client = ORB(ORBConfig(scheme="shm", collocated_calls=False))
        proxies = []
        try:
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            profile = client.select_profile(stub._ior)
            call = (profile.object_key, stub._signature("put_std"),
                    [OctetSequence(b"ping")])
            for i in range(clients):
                proxies.append(client._new_proxy(profile.endpoint))
                assert proxies[-1].invoke(*call) == 4 * (i + 1)
            conns = server._server.connections()
            assert len(conns) == clients
            assert _settle(lambda: all(_on_the_loop(c) for c in conns))
            assert [t.name for t in threading.enumerate()
                    if t.name.startswith("iiop-server-")] == []
        finally:
            for proxy in proxies:
                proxy.close()
            client.shutdown()
            server.shutdown()


class TestReactorTelemetry:
    def test_loop_metrics_reach_the_registry(self, test_api):
        """S2: the heartbeat publishes loop_lag_seconds/loop_tasks
        into every attached ORB's metrics registry, and a client ORB is
        attached once it uses the loop: its first awaited call, which
        hands the connection over.  Before that its callers read it."""
        orb = ORB(ORBConfig(scheme="tcp"))
        server = ORB(ORBConfig(scheme="tcp"))
        try:
            orb.enable_tracing()
            impl = make_store_impl(test_api)
            stub = orb.string_to_object(
                server.object_to_string(server.activate(impl)))

            def seen():
                names = {m["name"]
                         for m in orb.metrics.snapshot()["metrics"]}
                return "loop_lag_seconds" in names \
                    and "loop_tasks" in names
            stub.put_std(OctetSequence(b"t"))
            time.sleep(0.2)  # four heartbeats of the server's loop
            assert not seen()

            async def go():
                return await async_api(stub).put_std(OctetSequence(b"t"))
            assert asyncio.run(go()) == 2
            assert _settle(seen, timeout=3.0)
        finally:
            orb.shutdown()
            server.shutdown()
