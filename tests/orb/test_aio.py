"""The native coroutine surface: ``await proxy.op(...)``, windowed
fan-out, the sync↔async bridge, buffer hygiene when an awaited call is
cancelled mid-flight, and where an awaited call's send runs: on the
loop that awaits it, over tcp and shm, with only what would block on
the executor, whole unless the socket took part of it."""

import asyncio
import contextlib
import errno
import socket
import threading
import time

import pytest

from repro.core import BufferPool, OctetSequence, ZCOctetSequence
from repro.giop import GIOP_HEADER_SIZE, GIOPHeader, MsgType
from repro.idl import compile_idl
from repro.orb import BAD_OPERATION, ORB, ORBConfig
from repro.orb.aio import async_api, gather_window, run_sync
from repro.orb.reactor import get_reactor
from repro.transport.shm import shm_available
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

    def test_tasks_scale_with_the_window_not_the_calls(self):
        """300 queued calls are ``window`` worker tasks pulling from one
        iterator, not 300 tasks parked on a semaphore."""
        live = []

        async def call(n):
            await asyncio.sleep(0)
            live.append(len(asyncio.all_tasks()))
            return n

        async def go():
            return await gather_window(
                [lambda n=n: call(n) for n in range(300)], window=4)

        assert asyncio.run(go()) == list(range(300))
        assert max(live) <= 4 + 1  # the workers and the task awaiting them

    def test_first_exception_propagates_and_stops_the_rest(self):
        started = []

        async def call(n):
            started.append(n)
            await asyncio.sleep(0.01 * (n % 2))  # even calls fail first
            if n == 2:
                raise KeyError(n)
            return n

        async def go():
            with pytest.raises(KeyError):
                await gather_window(
                    [lambda n=n: call(n) for n in range(50)], window=2)
            count = len(started)
            await asyncio.sleep(0.05)
            assert len(started) == count  # nobody went on pulling calls

        asyncio.run(go())
        assert len(started) < 50


class TestRunSync:
    def test_bridges_from_a_plain_thread(self, async_pair):
        ast, *_ = async_pair
        got = run_sync(ast.get_std(5), timeout=30.0)
        assert len(bytes(got)) == 5

    def test_on_the_loop_thread_raises_instead_of_deadlocking(self):
        """``run_sync`` waits for the loop; on the loop's own thread it
        would wait for itself.  The coroutine is closed, not leaked."""
        ran = []

        async def inner():
            ran.append(1)

        async def outer():
            coro = inner()
            with pytest.raises(RuntimeError):
                run_sync(coro)
            return coro.cr_frame is None  # closed: it can never run

        assert run_sync(outer(), timeout=10.0) is True
        assert ran == []

    def test_timeout_cancels_the_task(self):
        """The caller got ``TimeoutError`` and will collect nothing: the
        coroutine must not go on issuing requests."""
        state = []

        async def forever():
            try:
                while True:
                    await asyncio.sleep(0.005)
                    state.append("tick")
            except asyncio.CancelledError:
                state.append("cancelled")
                raise

        with pytest.raises(TimeoutError):
            run_sync(forever(), timeout=0.05)
        assert _settle(lambda: state and state[-1] == "cancelled")
        ticks = len(state)
        time.sleep(0.05)
        assert len(state) == ticks


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


WIRE_IDL = """
interface Wire {
  void ping(in unsigned long x);
  sequence<zc_octet> get(in unsigned long n);
  oneway void post(in sequence<octet> data);
};
"""


@pytest.fixture(scope="module")
def wire_api():
    return compile_idl(WIRE_IDL, module_name="_aio_wire_idl")


@pytest.fixture
def wire_pair(wire_api):
    """``(stub, proxy, pool)`` over tcp with the connection dialed, so
    the next send finds it live."""
    from repro.core import ZCOctetSequence

    class Impl(wire_api.Wire_skel):
        def ping(self, x):
            return None

        def get(self, n):
            return ZCOctetSequence.from_data(bytes(n))

        def post(self, data):
            pass

    pool = BufferPool()
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"), pool=pool)
    stub = client.string_to_object(
        server.object_to_string(server.activate(Impl())))
    stub.ping(0)
    yield stub, next(iter(client._proxies.values())), pool
    client.shutdown()
    server.shutdown()


@contextlib.contextmanager
def _executor_hops(loop):
    """What ``loop.run_in_executor`` is asked to run meanwhile."""
    hops, hop = [], loop.run_in_executor

    def spy(executor, fn, *args):
        hops.append(fn)
        return hop(executor, fn, *args)

    loop.run_in_executor = spy
    try:
        yield hops
    finally:
        del loop.run_in_executor


@contextlib.asynccontextmanager
async def _ticking():
    """A sibling task on the running loop; ``ticks[0]`` stands still
    while the loop is blocked."""
    ticks = [0]

    async def tick():
        while True:
            await asyncio.sleep(0.002)
            ticks[0] += 1

    task = asyncio.ensure_future(tick())
    try:
        yield ticks
    finally:
        task.cancel()


class _ChokedSocket:
    """The socket of a peer that stopped reading: a ``MSG_DONTWAIT``
    write is taken up to ``room`` bytes, then refused (``EAGAIN``); a
    blocking one waits for ``release``.  Everything else is the real
    socket's."""

    def __init__(self, sock, room):
        self._sock, self.room = sock, room
        self.blocked, self.release = threading.Event(), threading.Event()

    def sendmsg(self, buffers, ancdata=(), flags=0):
        if not self.release.is_set():
            if not flags & socket.MSG_DONTWAIT:
                self.blocked.set()
                assert self.release.wait(10.0)
            elif not self.room:
                raise BlockingIOError(errno.EAGAIN, "choked")
            else:
                data = b"".join(bytes(b) for b in buffers)[:self.room]
                self.room -= len(data)
                return self._sock.send(data)
        return self._sock.sendmsg(buffers, ancdata, flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _DeafPeer:
    """A raw listening socket that accepts one connection and does not
    read it until ``drain`` is set; then keeps every byte up to EOF."""

    def __init__(self):
        self._sock = socket.socket()
        # inherited by the accepted socket: a small window, so the
        # sender's kernel buffer fills after a few KiB
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self.drain = threading.Event()
        self.data = bytearray()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conn, _ = self._sock.accept()
        with conn:
            self.drain.wait(30.0)
            while chunk := conn.recv(1 << 16):
                self.data += chunk

    def frames(self):
        """The stream as GIOP ``(type, body)`` frames, whole."""
        self._thread.join(10.0)
        self._sock.close()
        out, data, at = [], bytes(self.data), 0
        while at < len(data):
            header = GIOPHeader.decode(data[at:at + GIOP_HEADER_SIZE])
            at += GIOP_HEADER_SIZE + header.size
            out.append((header.msg_type, data[at - header.size:at]))
        assert at == len(data)
        return out

    def messages(self):
        return [(mtype, len(body)) for mtype, body in self.frames()]


class TestInPlaceSend:
    """DESIGN.md §15: over a live connection the awaiting driver
    marshals and writes where it stands; a dial, a contended lock and a
    socket that pushes back go to the executor; the loop never waits."""

    @pytest.mark.parametrize("own_loop", [False, True],
                             ids=["reactor-loop", "callers-loop"])
    def test_awaited_pings_never_leave_the_loop(self, wire_pair, own_loop):
        stub, proxy, _ = wire_pair
        ping = async_api(stub).ping

        async def go():
            loop = asyncio.get_running_loop()
            assert (loop is get_reactor().loop) is not own_loop
            before = set(threading.enumerate())
            with _executor_hops(loop) as hops:
                for i in range(200):
                    assert await ping(i) is None
            return hops, set(threading.enumerate()) - before

        sent = proxy.stats.messages_sent
        hops, started = asyncio.run(go()) if own_loop \
            else run_sync(go(), timeout=30.0)
        assert hops == [] and started == set()
        assert proxy.stats.messages_sent == sent + 200

    def test_the_dial_still_hops(self, wire_pair):
        stub, proxy, _ = wire_pair
        proxy.close()

        async def go():
            with _executor_hops(asyncio.get_running_loop()) as hops:
                await async_api(stub).ping(1)
                await async_api(stub).ping(2)
            return hops

        assert len(asyncio.run(go())) == 1

    def test_contended_send_lock_goes_to_the_executor(self, wire_pair):
        stub, proxy, _ = wire_pair
        conn = proxy.conn
        held, release = threading.Event(), threading.Event()

        def hold():
            with conn._send_lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)

        async def go():
            async with _ticking() as ticks:
                with _executor_hops(asyncio.get_running_loop()) as hops:
                    call = asyncio.ensure_future(async_api(stub).ping(1))
                    await asyncio.sleep(0.1)
                    # the send waits for the lock on an executor thread;
                    # the loop does not
                    assert len(hops) == 1 and not call.done()
                    assert ticks[0] >= 5
                    release.set()
                    assert await asyncio.wait_for(call, 10.0) is None
                    assert len(hops) == 1

        try:
            asyncio.run(go())
        finally:
            release.set()
            holder.join()

    def test_pushback_hands_the_tail_over_and_frames_stay_whole(
            self, wire_api):
        """Oneway 64 KiB posts at a peer that is not reading: the one
        that does not fit is finished on the executor while the loop
        goes on, and what the peer finally reads is, byte for byte, what
        the sync stub sends."""
        payload = OctetSequence(bytes(range(256)) * 256)

        def dial(peer):
            client = ORB(ORBConfig(scheme="tcp"))
            stub = client.string_to_object(
                f"corbaloc::127.0.0.1:{peer.port}/wire",
                stub_cls=wire_api.Wire)
            return client, stub

        async def go(stub, client, peer):
            loop = asyncio.get_running_loop()
            post = async_api(stub).post
            await post(OctetSequence(b"dial"))
            stream = next(iter(client._proxies.values())).conn.stream
            stream._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    4096)

            async def pump():
                posted = 0
                while not hops:  # in place: no yield until pushback
                    await post(payload)
                    posted += 1
                return posted

            async with _ticking() as ticks:
                with _executor_hops(loop) as hops:
                    pumping = asyncio.ensure_future(pump())
                    while not hops:
                        await asyncio.sleep(0.002)
                    seen = ticks[0]
                    await asyncio.sleep(0.1)
                    # the tail blocks an executor thread, not the loop
                    assert not pumping.done() and ticks[0] >= seen + 5
                    peer.drain.set()
                    posted = await asyncio.wait_for(pumping, 10.0)
                    assert len(hops) == 1
            return posted

        peer = _DeafPeer()
        client, stub = dial(peer)
        try:
            posted = asyncio.run(go(stub, client, peer))
        finally:
            peer.drain.set()
            client.shutdown()
        frames = peer.messages()
        assert frames[:-1] == [(MsgType.Request, frames[0][1])] + \
            [(MsgType.Request, frames[1][1])] * posted
        assert frames[-1] == (MsgType.CloseConnection, 0)

        twin = _DeafPeer()
        twin.drain.set()
        client, stub = dial(twin)
        try:
            stub.post(OctetSequence(b"dial"))
            for _ in range(posted):
                stub.post(payload)
        finally:
            client.shutdown()
        assert twin.messages() == frames
        assert bytes(twin.data) == bytes(peer.data)

    def test_tails_and_sync_senders_never_interleave(self, wire_api):
        """Eight tasks on a loop and four plain threads post through one
        connection whose socket keeps pushing back: in-place writes,
        tails handed to the executor with the locks, contended sends
        and blocking sends all meet.  Every frame the peer reads is one
        sender's, whole."""
        import sys
        size, each = 32 * 1024, 10
        peer = _DeafPeer()
        peer.drain.set()
        client = ORB(ORBConfig(scheme="tcp"))
        stub = client.string_to_object(
            f"corbaloc::127.0.0.1:{peer.port}/wire", stub_cls=wire_api.Wire)
        stub.post(OctetSequence(b""))
        stream = next(iter(client._proxies.values())).conn.stream
        stream._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        def sync_sender(fill):
            for _ in range(each):
                stub.post(OctetSequence(bytes([fill]) * size))

        async def go():
            post = async_api(stub).post

            async def sender(fill):
                for _ in range(each):
                    await post(OctetSequence(bytes([fill]) * size))

            with _executor_hops(asyncio.get_running_loop()) as hops:
                await asyncio.wait_for(
                    asyncio.gather(*(sender(fill) for fill in range(8))), 60)
            return len(hops)

        threads = [threading.Thread(target=sync_sender, args=(fill,))
                   for fill in range(8, 12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            hops = asyncio.run(go())
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            client.shutdown()
        assert hops > 0  # the socket did push back
        bodies = [body for mtype, body in peer.frames()[1:]
                  if mtype is MsgType.Request]
        assert len(bodies) == 12 * each
        per_sender = {}
        for body in bodies:
            fill = body[-1]
            assert body[-size:] == bytes([fill]) * size
            per_sender[fill] = per_sender.get(fill, 0) + 1
        assert per_sender == dict.fromkeys(range(12), each)

    def test_the_tail_does_not_queue_for_a_pool_worker(self, wire_pair):
        """The tail holds the send lock.  Queued on the loop's executor
        it could sit behind the very jobs that wait for that lock (six
        contended sends fill the default pool), so it runs on a thread
        of its own and the executor hop only waits for it: with every
        pool worker taken, the message still goes out."""
        from concurrent.futures import ThreadPoolExecutor
        stub, proxy, _ = wire_pair
        stream = proxy.conn.stream
        choke = stream._sock = _ChokedSocket(stream._sock, 10)
        sent = proxy.stats.messages_sent
        taken = threading.Event()

        async def go():
            loop = asyncio.get_running_loop()
            loop.set_default_executor(ThreadPoolExecutor(1))
            busy = loop.run_in_executor(None, taken.wait, 10.0)
            call = asyncio.ensure_future(async_api(stub).ping(1))
            while not choke.blocked.is_set():
                await asyncio.sleep(0.002)
            choke.release.set()  # the peer drains; the pool stays full
            while proxy.stats.messages_sent == sent:
                await asyncio.sleep(0.002)
            assert not call.done()  # its hop is still queued
            taken.set()
            await busy
            assert await call is None

        async def bounded():
            try:
                await asyncio.wait_for(go(), 5.0)
            finally:  # or the loop's shutdown waits for the pool
                taken.set()
                choke.release.set()

        asyncio.run(bounded())

    def test_cancel_while_the_tail_is_on_the_executor(self, wire_pair):
        """The in-place write took 10 bytes; the rest is another
        thread's, with the locks, and an executor hop waits for it.
        Cancelling the await now must not tear the message: it goes out
        whole, and the reply nobody awaits is retired, its buffers back
        in the pool."""
        stub, proxy, pool = wire_pair
        conn, demux = proxy.conn, proxy._demux
        choke = conn.stream._sock = _ChokedSocket(conn.stream._sock, 10)
        sent = proxy.stats.messages_sent

        async def go():
            task = asyncio.ensure_future(async_api(stub).get(256 * 1024))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, choke.blocked.wait, 10)
            # handed over, not released: nothing can interleave
            assert conn._send_lock.locked()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            choke.release.set()

        try:
            asyncio.run(go())
        finally:
            choke.release.set()
        assert _settle(lambda: proxy.stats.messages_sent == sent + 1)
        assert _settle(lambda: demux.inflight == 0)
        assert _settle(lambda: _no_leak(pool)), pool.stats()
        assert not conn._send_lock.locked()
        assert len(stub.get(16)) == 16  # the stream is still in frame
        assert proxy.stats.reconnects == 0


@contextlib.contextmanager
def _threads_started():
    """The names of the threads started meanwhile."""
    names, start = [], threading.Thread.start

    def spy(thread):
        names.append(thread.name)
        return start(thread)

    threading.Thread.start = spy
    try:
        yield names
    finally:
        threading.Thread.start = start


@pytest.fixture
def store_over(test_api):
    """``make(scheme, traced=False)`` -> a Store stub over ``scheme``
    whose first call dials."""
    orbs = []

    def make(scheme, traced=False):
        if scheme == "shm" and not shm_available():
            pytest.skip("no usable /dev/shm")
        server = ORB(ORBConfig(scheme=scheme))
        client = ORB(ORBConfig(scheme=scheme, collocated_calls=False))
        orbs.extend([client, server])
        if traced:
            client.enable_tracing()
        return client.string_to_object(server.object_to_string(
            server.activate(make_store_impl(test_api))))

    yield make
    for orb in orbs:
        orb.shutdown()


def _await_each(call, *args, n=20):
    """``n`` awaited calls, one after another, on a loop of their own:
    what they sent to the executor and the threads they started."""
    async def go():
        with _executor_hops(asyncio.get_running_loop()) as hops, \
                _threads_started() as started:
            for _ in range(n):
                await call(*args)
        return hops, [name for name in started
                      if name.startswith("giop-send-tail")]

    return asyncio.run(go())


class TestWholeSendsGoBack:
    """A send that finds it would wait before it wrote a byte goes to
    the executor whole, with the send lock free: only a half-written
    message keeps the lock on a ``giop-send-tail`` thread (DESIGN.md
    §15).  And a send over shm that carries no deposit never waits."""

    def test_traced_calls_start_no_tail_thread(self, store_over):
        """A traced call makes the writes an untraced one makes: each
        awaited call is written in place (only the dial hops), and none
        of them starts a tail thread."""
        stub = store_over("tcp", traced=True)
        hops, tails = _await_each(async_api(stub).put_std,
                                  OctetSequence(b"ping"))
        assert len(hops) == 1 and tails == []
        assert stub.total == 4 * 20

    def test_awaited_shm_calls_write_in_place(self, store_over):
        """Over shm, as over tcp, a call with no deposit is written on
        the loop that awaits it: only the dial hops."""
        stub = store_over("shm")
        hops, tails = _await_each(async_api(stub).put_std,
                                  OctetSequence(b"ping"))
        assert len(hops) == 1 and tails == []
        assert stub.total == 4 * 20

    def test_awaited_shm_deposits_hop_whole(self, store_over):
        """A deposit's staging may wait for a slot, so each 128 KiB put
        goes to the executor whole, with no tail thread, and the slot
        its marshaling filled is still the one the send posts."""
        stub = store_over("shm")
        data = ZCOctetSequence.from_data(bytes(range(256)) * 512)
        hops, tails = _await_each(async_api(stub).put, data)
        assert len(hops) == 20 and tails == []
        assert stub.total == 20 * len(data)
        stats = next(iter(stub._orb._proxies.values())).stats
        assert stats.shm_references == stats.shm_deposits == 20
