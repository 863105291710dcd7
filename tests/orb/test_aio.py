"""The native coroutine surface: ``await proxy.op(...)``, windowed
fan-out, the sync↔async bridge, and buffer hygiene when an awaited
call is cancelled mid-flight."""

import asyncio
import threading
import time

import pytest

from repro.core import BufferPool, OctetSequence
from repro.orb import BAD_OPERATION, ORB, ORBConfig
from repro.orb.aio import async_api, gather_window, run_sync
from tests.conftest import make_store_impl


def _settle(predicate, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def _no_leak(pool):
    """Every buffer the pool handed out came back (and some did go)."""
    s = pool.stats()
    acquired = s["hits"] + s["misses"]
    return acquired > 0 and acquired == s["reclaims"]


@pytest.fixture
def async_pair(test_api):
    impl = make_store_impl(test_api)
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"))
    stub = client.string_to_object(
        server.object_to_string(server.activate(impl)))
    yield async_api(stub), stub, impl, client, server
    client.shutdown()
    server.shutdown()


class TestAsyncStub:
    def test_await_returns_sync_result(self, async_pair):
        ast, stub, impl, *_ = async_pair

        async def go():
            return await ast.put_std(OctetSequence(b"hello"))

        assert asyncio.run(go()) == 5
        assert impl._total == 5

    def test_multiple_ops_and_user_exception(self, async_pair, test_api):
        ast, *_ = async_pair

        async def go():
            got = await ast.get_std(16)
            assert bytes(got) == bytes(i % 256 for i in range(16))
            with pytest.raises(test_api.Test_Failed) as ei:
                from repro.core import ZCOctetSequence
                await ast.put(ZCOctetSequence.from_data(b""))
            assert ei.value.code == 7

        asyncio.run(go())

    def test_unknown_operation_raises_at_call(self, async_pair):
        ast, *_ = async_pair

        async def go():
            await ast.no_such_op()

        with pytest.raises(BAD_OPERATION):
            asyncio.run(go())

    def test_private_attribute_stays_attribute_error(self, async_pair):
        ast, *_ = async_pair
        with pytest.raises(AttributeError):
            ast._private

    def test_sync_property_returns_wrapped_stub(self, async_pair):
        ast, stub, *_ = async_pair
        assert ast.sync is stub


class TestGatherWindow:
    def test_results_in_submission_order(self, async_pair):
        ast, *_ = async_pair

        async def go():
            return await gather_window(
                [lambda n=n: ast.get_std(n) for n in range(12)],
                window=3)

        results = asyncio.run(go())
        assert [len(bytes(r)) for r in results] == list(range(12))

    def test_return_exceptions(self, async_pair):
        ast, *_ = async_pair

        async def go():
            return await gather_window(
                [lambda: ast.get_std(4), lambda: ast.no_such_op()],
                window=2, return_exceptions=True)

        ok, err = asyncio.run(go())
        assert bytes(ok) == bytes([0, 1, 2, 3])
        assert isinstance(err, BAD_OPERATION)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            asyncio.run(gather_window([], window=0))


class TestRunSync:
    def test_bridges_from_a_plain_thread(self, async_pair):
        ast, *_ = async_pair
        got = run_sync(ast.get_std(5), timeout=30.0)
        assert len(bytes(got)) == 5


class TestCancellation:
    def test_cancelled_call_releases_deposit_buffers(self, test_api):
        """S3: cancel an awaited zero-copy reply mid-flight; when the
        stale reply lands later its deposit buffers must go straight
        back to the client's BufferPool — no leak."""
        pool = BufferPool()
        impl = make_store_impl(test_api)
        entered = threading.Event()
        release = threading.Event()
        orig_get = impl.get

        def slow_get(n):
            entered.set()
            assert release.wait(10.0)
            return orig_get(n)

        impl.get = slow_get
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"), pool=pool)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            ast = async_api(stub)

            async def go():
                task = asyncio.create_task(ast.get(256 * 1024))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 10)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                release.set()

            asyncio.run(go())

            # the late reply is stale: the demux drops it and releases
            # every deposit buffer it acquired from the pool
            assert _settle(lambda: _no_leak(pool)), pool.stats()
        finally:
            release.set()
            client.shutdown()
            server.shutdown()

    def test_interrupted_blocking_wait_releases_late_reply(
            self, test_api, monkeypatch):
        """The blocking twin: an exception out of the sync driver's
        wait (KeyboardInterrupt is the real one) abandons the call in
        the same shared body — registration retired at once, the late
        reply's buffers released when it lands, no finalizer needed."""
        from repro.orb.demux import ReplyFuture

        pool = BufferPool()
        impl = make_store_impl(test_api)
        entered = threading.Event()
        release = threading.Event()
        orig_get = impl.get

        def slow_get(n):
            entered.set()
            assert release.wait(10.0)
            return orig_get(n)

        impl.get = slow_get
        orig_wait = ReplyFuture.wait
        interrupted = []

        def interrupted_wait(future, timeout=None):
            if interrupted:
                return orig_wait(future, timeout)
            interrupted.append(future)
            assert entered.wait(10.0)  # the request is at the servant
            raise KeyboardInterrupt

        monkeypatch.setattr(ReplyFuture, "wait", interrupted_wait)
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"), pool=pool)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            with pytest.raises(KeyboardInterrupt):
                stub.get(256 * 1024)
            demux = next(iter(client._proxies.values()))._demux
            assert demux.inflight == 0
            release.set()

            assert _settle(lambda: _no_leak(pool)), pool.stats()
            assert interrupted[0].message is None  # dropped, not parked
        finally:
            release.set()
            client.shutdown()
            server.shutdown()

    def test_cancel_during_send_hop_releases_late_reply(
            self, test_api, monkeypatch):
        """The nastier race: cancellation lands while the marshal+send
        is still on the executor thread — the awaiter never reaches the
        reply wait, but the send completes anyway and registers a
        reply nobody will collect.  The registration must be retired
        and the late reply's buffers reclaimed."""
        from repro.orb import GIOPConn

        pool = BufferPool()
        impl = make_store_impl(test_api)
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"), pool=pool)
        in_send = threading.Event()
        cancelled = threading.Event()
        orig_send = GIOPConn.send_message

        def held_send(conn, *a, **kw):
            if conn.orb is client:  # the server's reply is not held
                in_send.set()
                assert cancelled.wait(10.0)
            return orig_send(conn, *a, **kw)

        monkeypatch.setattr(GIOPConn, "send_message", held_send)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            ast = async_api(stub)

            async def go():
                task = asyncio.create_task(ast.get(256 * 1024))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, in_send.wait, 10)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                cancelled.set()

            asyncio.run(go())

            assert _settle(lambda: _no_leak(pool)), pool.stats()
        finally:
            cancelled.set()
            client.shutdown()
            server.shutdown()
