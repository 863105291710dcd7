"""The waiter (DESIGN.md §10): a client's plain tcp connection is read
by the blocking callers waiting for its replies, one at a time, until
the first awaited call hands it to the drive ``start_reading`` chooses.

What that must keep: every reply reaches its own caller however many
share the connection, and only one of them reads at a time; each caller
gives up at its own deadline (or at an interrupt) and a message a caller
stops inside of is finished by the next reader; a reply nobody waits
for any more is read by a drive, whether or not another call follows;
what arrived while nobody read (a
``CloseConnection``, EOF) is seen before the next write; the hand-over
to the loop, or a reader thread, loses nothing; and ``ORB.shutdown``
ends a caller blocked in ``recv`` the way it ends one whose reply a
reader thread waits for.
"""

import asyncio
import collections
import select
import struct
import sys
import threading
import time

import pytest

from repro.core import BufferPool, DepositDescriptor, ZCOctetSequence
from repro.giop import (GIOP_HEADER_SIZE, MsgType, ReplyHeader, ReplyStatus,
                        ServiceContext, decode_body, decode_header,
                        encode_giop_header, encode_message)
from repro.idl import compile_idl
from repro.orb import (COMM_FAILURE, ORB, TIMEOUT, CompletionStatus,
                       InvocationPolicy, ORBConfig, async_api, run_sync)
from repro.orb.reactor import get_reactor
from repro.transport import TCPTransport

#: every wait below is bounded by this, never by an invocation policy
WATCHDOG = 5.0

api = compile_idl("""interface Waiter {
    unsigned long poke(in unsigned long x);
    double work(in double seconds);
    unsigned long hold();
    sequence<zc_octet> late(in double seconds, in unsigned long size);
};""", module_name="_waiter_reads_idl")


def _settle(predicate, timeout=WATCHDOG, step=0.002):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(step)
    return True


def _demux_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("giop-demux-")]


class _Call:
    """One call on a thread of its own; ``join()`` -> what it got."""

    def __init__(self, fn, *args):
        self.outcome = None
        self.elapsed = None
        self.thread = threading.Thread(target=self._run, args=(fn, args),
                                       daemon=True)
        self.thread.start()

    def _run(self, fn, args):
        t0 = time.monotonic()
        try:
            self.outcome = fn(*args)
        except (Exception, KeyboardInterrupt) as exc:  # the outcome under test
            self.outcome = exc
        self.elapsed = time.monotonic() - t0

    def join(self, timeout=WATCHDOG):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "the call never returned"
        return self.outcome


class _Impl(api.Waiter_skel):
    def __init__(self):
        self.release = threading.Event()

    def poke(self, x):
        return (x + 1) & 0xFFFFFFFF

    def work(self, seconds):
        time.sleep(seconds)
        return seconds

    def hold(self):
        assert self.release.wait(WATCHDOG)
        return 7

    def late(self, seconds, size):
        time.sleep(seconds)
        return ZCOctetSequence.from_data(bytes(size))


@pytest.fixture
def served():
    """``make(**client_config)`` -> (client ORB, stub, servant) against
    a default tcp server, the connection dialed."""
    orbs, impls = [], []

    def make(**config):
        server = ORB(ORBConfig(scheme="tcp", server_workers=8))
        client = ORB(ORBConfig(scheme="tcp", **config))
        orbs.extend([client, server])
        impls.append(_Impl())
        stub = client.string_to_object(
            server.object_to_string(server.activate(impls[-1])))
        assert stub.poke(0) == 1
        return client, stub, impls[-1]

    yield make
    for impl in impls:
        impl.release.set()
    for orb in orbs:
        orb.shutdown()


def _proxy(client):
    return next(iter(client._proxies.values()))


class _ReadWatch:
    """Wraps a stream's reads: how many threads were inside one at once."""

    def __init__(self, stream):
        self._lock = threading.Lock()
        self._inside = collections.Counter()
        self.most = 0
        for name in ("recv_exact", "recv_into", "recv_into_nb"):
            setattr(stream, name, self._watched(getattr(stream, name)))

    def _watched(self, read):
        def watched(*args):
            me = threading.get_ident()
            with self._lock:
                self._inside[me] += 1
                self.most = max(self.most, len(self._inside))
            try:
                return read(*args)
            finally:
                with self._lock:
                    self._inside[me] -= 1
                    if not self._inside[me]:
                        del self._inside[me]
        return watched


# -- (a) one reader at a time -------------------------------------------------

def test_eight_callers_share_one_connection_and_one_reader(served):
    client, stub, _ = served()
    proxy = _proxy(client)
    conn, demux = proxy._conn, proxy._demux
    assert demux.callers_read
    watch = _ReadWatch(conn.stream)
    seen_demux_threads, stop = set(), threading.Event()

    def look():
        while not stop.is_set():
            seen_demux_threads.update(_demux_threads())
            time.sleep(0.001)

    def caller(k):
        return [stub.poke(k * 1000 + i) == k * 1000 + i + 1
                for i in range(200)]

    looker = threading.Thread(target=look, daemon=True)
    looker.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt inside every hand-off there is
    try:
        calls = [_Call(caller, k) for k in range(8)]
        outcomes = [call.join(30.0) for call in calls]
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    looker.join(WATCHDOG)

    assert outcomes == [[True] * 200] * 8
    assert seen_demux_threads == set()
    assert watch.most == 1
    assert demux._pending == {} and demux.callers_read
    assert proxy._conn is conn and proxy.stats.reconnects == 0


def test_replies_that_come_together_wake_every_follower(served):
    """Eight callers at once, replies due together: while the leader
    routes the others' replies they are still parked as followers, so
    the turn it hands on may land on one whose reply is in already.
    That one must pass it on, or the rest wait for a reader forever."""
    client, stub, _ = served()
    rounds = threading.Barrier(8, timeout=WATCHDOG)

    def caller():
        for _ in range(20):
            rounds.wait()
            assert stub.work(0.01) == 0.01
        return True

    calls = [_Call(caller) for _ in range(8)]
    assert [call.join(30.0) for call in calls] == [True] * 8
    assert _proxy(client)._demux._pending == {}


# -- (b) deadlines ------------------------------------------------------------

def test_a_leader_that_times_out_hands_the_read_to_a_follower(served):
    client, stub, _ = served()
    proxy = _proxy(client)
    demux = proxy._demux
    leader = _Call(client.invoke, stub.ior, stub._signature("work"), [0.6],
                   InvocationPolicy(timeout=0.25))
    assert _settle(lambda: demux.inflight == 1 and demux._leading)
    time.sleep(0.02)  # past its send, into its wait: it leads
    follower = _Call(stub.work, 0.4)  # no deadline
    assert _settle(lambda: demux._followers, timeout=0.2), \
        "the second caller never waited as a follower"

    failure = leader.join()
    assert isinstance(failure, TIMEOUT)
    assert failure.completed is CompletionStatus.COMPLETED_MAYBE
    assert leader.elapsed < 0.5  # its own deadline, not its reply's
    assert follower.join() == 0.4  # read by the follower it promoted
    assert stub.poke(41) == 42
    assert (proxy.stats.timeouts, proxy.stats.reconnects) == (1, 0)


class _Peer:
    """A tcp listener with no ORB behind it, read and answered by hand."""

    def __init__(self):
        self.accepted = []
        self.listener = TCPTransport().listen("127.0.0.1", 0,
                                              self.accepted.append)

    def stub(self, client):
        port = self.listener.endpoint[2]
        return client.string_to_object(f"corbaloc::127.0.0.1:{port}/w",
                                       stub_cls=api.Waiter)

    def stream(self, k: int):
        assert _settle(lambda: len(self.accepted) > k), "never dialed"
        stream = self.accepted[k]
        stream.set_timeout(WATCHDOG)
        return stream

    def request_id(self, k: int) -> int:
        """Read one request off the k-th connection: its id."""
        stream = self.stream(k)
        header = decode_header(stream.recv_exact(GIOP_HEADER_SIZE))
        body = stream.recv_exact(header.size)
        return decode_body(header, body).body_header.request_id

    @staticmethod
    def reply(request_id: int, value: int, contexts=()) -> bytes:
        return encode_message(
            ReplyHeader(request_id=request_id,
                        reply_status=ReplyStatus.NO_EXCEPTION,
                        service_contexts=list(contexts)),
            struct.pack("=I", value))

    def close(self):
        self.listener.close()
        for stream in self.accepted:
            stream.close()


@pytest.fixture
def peer():
    peer = _Peer()
    clients = []

    def make(**kw):
        clients.append(ORB(ORBConfig(scheme="tcp"), **kw))
        return clients[-1], peer.stub(clients[-1])

    yield peer, make
    for client in clients:
        client.shutdown()
    peer.close()


def test_a_body_that_stalls_past_the_deadline_is_finished_by_the_next_reader(
        peer):
    peer, make = peer
    pool = BufferPool()
    client, stub = make(pool=pool)
    first = _Call(client.invoke, stub.ior, stub._signature("poke"), [1],
                  InvocationPolicy(timeout=0.2))
    # the stale reply lands a deposit: 4 KiB from the connection's pool
    stale = peer.reply(peer.request_id(0), 2, [ServiceContext.for_deposit(
        DepositDescriptor(1, 4096))]) + bytes(4096)
    peer.stream(0).send(stale[:GIOP_HEADER_SIZE + 4])  # header, then stall

    failure = first.join()
    assert isinstance(failure, TIMEOUT)
    assert failure.completed is CompletionStatus.COMPLETED_MAYBE
    assert first.elapsed < 0.5
    proxy = _proxy(client)
    conn = proxy._conn
    assert not conn.closed and conn._gen is not None  # inside the message
    # its reply is owed and no caller waits for it: the loop reads on
    assert not proxy._demux.callers_read

    peer.stream(0).send(stale[GIOP_HEADER_SIZE + 4:])
    second = _Call(stub.poke, 5)
    peer.stream(0).send(peer.reply(peer.request_id(0), 6))
    assert second.join() == 6
    assert proxy._conn is conn and not conn.closed
    assert (proxy.stats.reconnects, proxy.stats.timeouts) == (0, 1)
    stats = pool.stats()
    assert stats["misses"] + stats["hits"] == stats["reclaims"] > 0


def test_a_late_reply_to_an_idle_client_is_drained_and_frees_the_server():
    """A reply larger than the socket buffers comes after its caller
    gave up, and the client makes no next call.  Someone must read it,
    or the server's one worker blocks writing it and serves nobody."""
    server = ORB(ORBConfig(scheme="tcp", server_workers=1))
    pool = BufferPool()
    idle = ORB(ORBConfig(scheme="tcp"), pool=pool)
    other = ORB(ORBConfig(scheme="tcp"))
    try:
        ior = server.object_to_string(server.activate(_Impl()))
        stub = idle.string_to_object(ior)
        with pytest.raises(TIMEOUT):
            idle.invoke(stub.ior, stub._signature("late"), [0.3, 16 << 20],
                        InvocationPolicy(timeout=0.1))
        proxy = _proxy(idle)
        assert not proxy._demux.callers_read  # a drive reads it
        # queued behind the late reply on the server's one worker
        assert _Call(other.string_to_object(ior).poke, 1).join() == 2
        assert _settle(lambda: pool.stats()["reclaims"] > 0)
        stats = pool.stats()
        assert stats["misses"] + stats["hits"] == stats["reclaims"]
        assert stub.poke(3) == 4
        assert (proxy.stats.reconnects, proxy.stats.timeouts) == (0, 1)
    finally:
        idle.shutdown()
        other.shutdown()
        server.shutdown()


class _InterruptedPoll:
    """A connection's poll object that raises ``KeyboardInterrupt``,
    once, in the caller waiting in it with no deadline, as soon as
    another caller waits behind it."""

    def __init__(self, poll, demux):
        self._poll, self._demux, self.armed = poll, demux, True

    def poll(self, ms):
        if self.armed and ms < 0:
            self.armed = False
            assert _settle(lambda: self._demux._followers)
            raise KeyboardInterrupt
        return self._poll.poll(ms)


def test_an_interrupted_leader_leaves_the_connection_to_the_others(served):
    """An interrupt lands where a leader waits for its reply (no bytes
    of a message taken): its own call ends, the follower's goes on, on
    the same connection, and the interrupted call's reply is drained."""
    client, stub, impl = served()
    proxy = _proxy(client)
    conn, demux = proxy._conn, proxy._demux
    assert conn._poll is not None  # the fixture's call waited in it
    conn._poll = _InterruptedPoll(conn._poll, demux)
    leader = _Call(stub.hold)
    assert _settle(lambda: demux._leading)
    follower = _Call(stub.work, 0.2)

    assert isinstance(leader.join(), KeyboardInterrupt)
    assert follower.join() == 0.2  # read by the follower it promoted
    assert not conn.closed and proxy._conn is conn
    assert demux.inflight == 0 and not demux.callers_read
    impl.release.set()  # the interrupted call's reply, read by a drive
    assert [stub.poke(i) for i in range(5)] == list(range(1, 6))
    assert proxy.stats.reconnects == 0


# -- (c) what arrived while nobody read --------------------------------------

@pytest.mark.parametrize("ending", ["close-connection", "eof"])
def test_an_idle_connection_the_peer_closed_is_dialed_afresh(peer, ending):
    peer, make = peer
    client, stub = make()
    first = _Call(stub.poke, 1)
    peer.stream(0).send(peer.reply(peer.request_id(0), 2))
    assert first.join() == 2
    proxy = _proxy(client)
    old = proxy._conn
    if ending == "close-connection":
        peer.stream(0).send(encode_giop_header(MsgType.CloseConnection, 0))
    peer.stream(0).close()
    # it is there to be read before the next call writes
    assert _settle(lambda: select.select([old.stream.fileno()], [], [], 0)[0])

    second = _Call(stub.poke, 3)
    peer.stream(1).send(peer.reply(peer.request_id(1), 4))
    assert second.join() == 4
    assert old.closed and proxy._conn is not old
    assert proxy.stats.reconnects == 1


# -- (d) the hand-over ----------------------------------------------------------

@pytest.mark.parametrize("reactor", [True, False], ids=["loop", "thread"])
def test_the_first_awaited_call_hands_the_connection_over(served, reactor):
    client, stub, _ = served(reactor=reactor)
    proxy = _proxy(client)
    conn, demux = proxy._conn, proxy._demux

    def on_the_loop():
        driver = get_reactor()._drivers.get(conn.stream.fileno())
        return driver is not None and driver.conn is conn

    assert [stub.poke(i) for i in range(20)] == list(range(1, 21))
    assert demux.callers_read and _demux_threads() == []
    assert not on_the_loop()

    async def window():
        poke = async_api(stub).poke
        return await asyncio.gather(*(poke(100 + i) for i in range(8)))

    assert run_sync(window(), timeout=WATCHDOG) == list(range(101, 109))
    assert not demux.callers_read
    assert on_the_loop() is reactor
    if reactor:
        assert demux._thread is None
    else:
        assert demux._thread.is_alive()
        assert demux._thread.name.startswith("giop-demux-")
    assert [stub.poke(i) for i in range(20)] == list(range(1, 21))
    assert proxy._conn is conn and proxy.stats.reconnects == 0


# -- (e) shutdown ---------------------------------------------------------------

def _blocked_call_at_shutdown(make, hand_over: bool):
    """(exception type, completion status) of a call without a deadline
    whose client ORB shuts down while it waits for the reply, and
    whether the threads came back to where they were (a waiting client
    has none of its own)."""
    client, stub, impl = make(reactor=False)
    baseline = threading.active_count()
    demux = _proxy(client)._demux
    if hand_over:  # a reader thread waits for the reply instead
        run_sync(async_api(stub).poke(1), timeout=WATCHDOG)
        assert demux._thread is not None
    call = _Call(stub.hold)
    assert _settle(lambda: demux.inflight == 1)
    if not hand_over:
        assert _settle(lambda: demux._leading)  # in recv, no deadline
    time.sleep(0.05)
    client.shutdown()
    failure = call.join()
    assert call.elapsed < WATCHDOG
    impl.release.set()
    return (type(failure), failure.completed,
            _settle(lambda: threading.active_count() <= baseline))


def test_shutdown_ends_a_leader_in_recv_as_it_ends_a_reader_thread(served):
    waiter = _blocked_call_at_shutdown(served, hand_over=False)
    reader_thread = _blocked_call_at_shutdown(served, hand_over=True)
    assert waiter == reader_thread == (
        COMM_FAILURE, CompletionStatus.COMPLETED_MAYBE, True)
