"""One read path (DESIGN.md §10): whichever drive reads a connection
(``GIOPConn.start_reading``: pump, loop, reader thread; and a client's
connection over a socket, tcp, shm or fault-injected, the callers
waiting for replies until an awaited call hands it over), a server
treats a message, or a peer's garbage, the same, and a client fails its
in-flight calls the same.  One table of hostile streams, every drive,
both roles, against a peer with no ORB behind it (its shm deposit-record
rows on the drives that read records, ``thread-shm`` and
``waiter-shm``); that no drive reads by blocking, which is what makes
the one read path one, and that no client's callers need a reader
thread; then the regressions the table grew out of, one per drive.
(The server half of the loop
drive's is in the table: its ``bad-magic``, ``unknown-type`` and
``ff-body`` rows on ``loop``, a default tcp server, got neither an
answer nor a hang-up before ``_ConnDriver._resume``.)

This is the first piece of ROADMAP item 4(a)'s connection fuzzer; size
limits (oversized headers, endless fragment chains) stay with that item.
"""

import asyncio
import errno
import os
import random
import socket
import struct
import threading
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

import pytest

from repro.core import (BufferPool, DepositDescriptor, OctetSequence,
                        ZCOctetSequence)
from repro.core.buffers import PAGE_SIZE
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import (GIOP_HEADER_SIZE, IOR, IIOPProfile, LocateReplyHeader,
                        LocateRequestHeader, LocateStatus, MsgType, ReplyHeader,
                        ReplyStatus, RequestHeader, ServiceContext,
                        decode_body, decode_header, encode_giop_header,
                        encode_message)
from repro.orb import (COMM_FAILURE, INTERNAL, MARSHAL, ORB, CompletionStatus,
                       ORBConfig, async_api)
from repro.transport import FaultPlan, FaultyStream, faulty_registry
from repro.transport.base import TransportError, TransportTimeout
from repro.transport.shm import SHM_MAGIC, shm_available

#: every wait below is bounded by this, never by an invocation policy:
#: a hang is a failure of the test, not a TIMEOUT it could mistake for one
WATCHDOG = 5.0

#: drive -> the ORBConfig that makes ``start_reading`` choose it
DRIVES = {
    "pump": dict(scheme="loop"),
    "loop": dict(scheme="tcp"),
    "thread+pool": dict(scheme="tcp", reactor=False),
    "thread-inline": dict(scheme="tcp", server_workers=0),
    "thread-shm": dict(scheme="shm"),
}
#: client drive -> the server drive whose ORBConfig the client takes.  A
#: client has no dispatch, so inline or pooled is one drive to it, and
#: its connection over a socket is read by its waiting callers until the
#: first awaited call hands it to the loop (or, without one, a thread).
#: A ``-faulty`` client dials through a FaultyStream with an empty plan
CLIENT_DRIVES = {"pump": "pump", "waiter": "loop", "loop": "loop",
                 "thread+pool": "thread+pool", "waiter-shm": "thread-shm",
                 "waiter-faulty": "loop", "loop-faulty": "loop"}
#: the client drives reached by way of one awaited call
HANDED_OVER = ("loop", "thread+pool", "loop-faulty")

MESSAGE_ERROR = bytes(encode_giop_header(MsgType.MessageError, 0))
MAYBE = CompletionStatus.COMPLETED_MAYBE

#: what a server does about a stream: MessageError then EOF, EOF alone,
#: or nothing (the connection stays up)
ANSWERED, DROPPED, IGNORED = MESSAGE_ERROR, b"", None


def _framed(msg_type: MsgType, body: bytes, size: Optional[int] = None):
    return bytes(encode_giop_header(
        msg_type, len(body) if size is None else size)) + body


def _twice_named_deposit(_rng, _to_server) -> bytes:
    named = ServiceContext.for_deposit(DepositDescriptor(1, 4096))
    return encode_message(ReplyHeader(
        request_id=1, reply_status=ReplyStatus.NO_EXCEPTION,
        service_contexts=[named, named]))


def _deposit_then(record: bytes) -> Callable:
    """A Request (to a server) or a Reply naming one 4 KiB deposit, then
    ``record`` where an shm peer's deposit record goes."""
    def build(_rng, to_server: bool) -> bytes:
        named = [ServiceContext.for_deposit(DepositDescriptor(1, 4096))]
        header = RequestHeader(
            request_id=1, object_key=b"store", operation="put",
            service_contexts=named) if to_server else ReplyHeader(
                request_id=1, reply_status=ReplyStatus.NO_EXCEPTION,
                service_contexts=named)
        return encode_message(header) + record
    return build


def _record(slot: int = -1, size: int = 4096, magic: int = SHM_MAGIC):
    return struct.pack("<IiQQ", magic, slot, 0, size)


class Hostile(NamedTuple):
    """One row: ``build(rng, to_server)`` -> the bytes; whether the peer
    hangs up after them; what a server does; what a client's in-flight
    calls get; whether they hold an shm deposit record (read only by a
    connection that has a deposit channel)."""

    name: str
    build: Callable
    server: Optional[bytes]
    client: tuple
    then_eof: bool = False
    record: bool = False


STREAMS = [
    Hostile("bad-magic", lambda rng, s: b"XXXX" + rng.randbytes(8),
            ANSWERED, (COMM_FAILURE, MAYBE)),
    Hostile("unknown-type",
            lambda rng, s: b"GIOP\x01\x01\x01\x09" + struct.pack("<I", 0),
            ANSWERED, (COMM_FAILURE, MAYBE)),
    Hostile("ff-body",
            lambda rng, s: _framed(
                MsgType.Request if s else MsgType.Reply, b"\xff" * 8),
            ANSWERED, (COMM_FAILURE, MAYBE)),
    Hostile("random-body",
            lambda rng, s: _framed(
                MsgType.Request if s else MsgType.Reply, rng.randbytes(40)),
            ANSWERED, (COMM_FAILURE, MAYBE)),
    Hostile("truncated",
            lambda rng, s: _framed(
                MsgType.Request if s else MsgType.Reply, rng.randbytes(5),
                size=1000),
            DROPPED, (COMM_FAILURE, MAYBE), then_eof=True),
    Hostile("orphan-fragment",
            lambda rng, s: _framed(MsgType.Fragment, rng.randbytes(8)),
            ANSWERED, (INTERNAL, MAYBE)),
    # the other role's message: a server drops a stale Reply and carries
    # on, a client must never see a Request
    Hostile("wrong-role",
            lambda rng, s: encode_message(
                ReplyHeader(request_id=7,
                            reply_status=ReplyStatus.NO_EXCEPTION) if s
                else RequestHeader(request_id=7, object_key=b"k",
                                   operation="ping")),
            IGNORED, (INTERNAL, MAYBE)),
    # refused while preparing the landing: no payload byte is expected,
    # and the buffer prepared for the first naming goes back to the pool
    Hostile("deposit-id-twice", _twice_named_deposit,
            DROPPED, (MARSHAL, MAYBE)),
    # the record behind a deposit the message names, checked like the
    # descriptor it stands for: a lie is a protocol violation, an end
    # inside the record or its inline payload is an end
    Hostile("record-bad-magic", _deposit_then(_record(magic=0)),
            DROPPED, (MARSHAL, MAYBE), record=True),
    Hostile("record-size-mismatch", _deposit_then(_record(size=4095)),
            DROPPED, (MARSHAL, MAYBE), record=True),
    Hostile("record-slot-outside", _deposit_then(_record(slot=9999)),
            DROPPED, (MARSHAL, MAYBE), record=True),
    Hostile("record-slot-not-posted", _deposit_then(_record(slot=0)),
            DROPPED, (MARSHAL, MAYBE), record=True),
    Hostile("record-cut-short", _deposit_then(_record()[:10]),
            DROPPED, (COMM_FAILURE, MAYBE), then_eof=True, record=True),
    Hostile("inline-cut-short", _deposit_then(_record() + bytes(1000)),
            DROPPED, (COMM_FAILURE, MAYBE), then_eof=True, record=True),
]


def _bytes_of(row: Hostile, to_server: bool) -> bytes:
    return row.build(random.Random(f"read-drives/{row.name}"), to_server)


def _settle(predicate, timeout=WATCHDOG, step=0.005):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(step)
    return True


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _skip_without(drive: str) -> dict:
    cfg = DRIVES[drive]
    if cfg["scheme"] == "shm" and not shm_available():
        pytest.skip("no usable /dev/shm")
    return cfg


def _client(drive: str, **kw) -> ORB:
    """A client ORB on client ``drive``'s wire."""
    if drive.endswith("-faulty"):
        kw["transports"] = faulty_registry(FaultPlan())
    return ORB(ORBConfig(**_skip_without(CLIENT_DRIVES[drive])), **kw)


class _RawStream:
    """The test's end of a connection, written and read by hand."""

    def __init__(self, stream):
        self.stream = stream
        stream.set_timeout(WATCHDOG)
        #: loopback: reads never block, they raise when short of bytes
        self.polled = hasattr(stream, "available")

    def send(self, data: bytes) -> None:
        self.stream.send(data)

    def hang_up(self) -> None:
        """EOF to the peer, our read side still open where there is
        one (a loopback close takes both directions at once)."""
        tcp = getattr(self.stream, "_inner", self.stream)
        if self.polled:
            self.stream.close()
        else:
            tcp._sock.shutdown(socket.SHUT_WR)

    def recv(self, n: int) -> bytes:
        if self.polled:
            assert _settle(lambda: self.stream.available >= n), \
                f"{n} bytes never arrived"
        return bytes(self.stream.recv_exact(n))

    def recv_message(self) -> bytes:
        header = self.recv(GIOP_HEADER_SIZE)
        return header + self.recv(decode_header(header).size)

    def recv_to_eof(self) -> bytes:
        """Everything the peer sent until it closed the connection."""
        if self.polled:
            assert _settle(lambda: self.stream.closed), "never closed"
            return self.recv(self.stream.available)
        out = bytearray()
        while True:
            try:
                out += self.stream.recv_exact(1)
            except TransportTimeout:
                pytest.fail(f"neither answered nor closed; got {bytes(out)}")
            except TransportError:
                return bytes(out)

    def close(self) -> None:
        self.stream.close()


@pytest.fixture
def served(test_api, store_impl):
    """``make(drive[, pool][, client_drive])`` -> (server ORB, a
    well-behaved client's stub)."""
    orbs = []

    def make(drive, pool=None, client_drive=None):
        cfg = _skip_without(drive)
        server = ORB(ORBConfig(**cfg), pool=pool)
        client = _client(client_drive) if client_drive \
            else ORB(ORBConfig(**cfg))
        orbs.extend([client, server])
        return server, client.string_to_object(
            server.object_to_string(server.activate(store_impl)))

    yield make
    for orb in orbs:
        orb.shutdown()


def _dial(server: ORB) -> _RawStream:
    endpoint = server.endpoint
    return _RawStream(server.transports.get(endpoint[0]).connect(
        endpoint, timeout=WATCHDOG))


class _Footprint:
    """Threads, fds and accepted connections of a server process, to be
    back where they were, with nothing left queued or executing.  A leak
    is *more* than there was: threads and fds may end up fewer (what an
    earlier test left behind closing late is not this test's failure),
    accepted connections must be exactly as many."""

    def __init__(self, server: ORB):
        self.server = server._server
        assert _settle(self.idle)
        self.was = self.now()

    def idle(self) -> bool:
        pool = self.server.workers
        return pool is None or pool.inflight == 0

    def now(self) -> tuple:
        return (threading.active_count(), _fds(),
                len(self.server.connections()))

    def restored(self) -> bool:
        def back() -> bool:
            threads, fds, conns = self.now()
            return (self.idle() and threads <= self.was[0]
                    and fds <= self.was[1] and conns == self.was[2])
        return _settle(back)


# -- server role ----------------------------------------------------------

@pytest.mark.parametrize("row", [row for row in STREAMS if not row.record],
                         ids=lambda row: row.name)
@pytest.mark.parametrize("drive", DRIVES)
def test_server_treats_a_hostile_stream_the_same_on_every_drive(
        drive, row, served):
    server, stub = served(drive)
    assert stub.put_std(OctetSequence(b"before")) == 6
    footprint = _Footprint(server)

    peer = _dial(server)
    try:
        peer.send(_bytes_of(row, to_server=True))
        if row.then_eof:
            peer.hang_up()
        if row.server is IGNORED:
            # the connection is up: it still answers
            peer.send(encode_message(LocateRequestHeader(
                request_id=9, object_key=b"nobody")))
            assert peer.recv_message() == encode_message(LocateReplyHeader(
                request_id=9, locate_status=LocateStatus.UNKNOWN_OBJECT))
        else:
            assert peer.recv_to_eof() == row.server
    finally:
        peer.close()

    assert stub.put_std(OctetSequence(b"after!")) == 12
    assert footprint.restored(), (footprint.was, footprint.now())


# -- client role ----------------------------------------------------------

class _RawServer:
    """A listener with no ORB behind it, and a reference to it."""

    def __init__(self, client: ORB, api):
        scheme = client.config.scheme
        self.accepted = []
        self.listener = client.transports.get(scheme).listen(
            "raw-peer" if scheme == "loop" else "127.0.0.1", 0,
            lambda stream: self.accepted.append(_RawStream(stream)))
        _, host, port = self.listener.endpoint
        self.stub = client.string_to_object(IOR.for_object(
            api._Test_Store_IFACE.repo_id, IIOPProfile(
                host=host if scheme == "tcp" else f"{scheme}!{host}",
                port=port, object_key=b"store")).to_string())

    def close(self) -> None:
        self.listener.close()
        for stream in self.accepted:
            stream.close()


class _Callers:
    """``n`` threads, one blocking call each; what each one got."""

    def __init__(self, stub, n: int):
        self.outcomes = []
        self.threads = [threading.Thread(target=self._call, args=(stub,),
                                         daemon=True) for _ in range(n)]
        for t in self.threads:
            t.start()

    def _call(self, stub) -> None:
        try:
            self.outcomes.append(stub.put_std(OctetSequence(b"ping")))
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            self.outcomes.append(exc)

    def join(self) -> list:
        deadline = time.monotonic() + WATCHDOG
        for t in self.threads:
            t.join(max(0.0, deadline - time.monotonic()))
        hung = sum(t.is_alive() for t in self.threads)
        assert not hung, f"{hung} callers still waiting for a reply"
        return self.outcomes


@pytest.fixture
def raw_server(test_api):
    """``make(client drive)`` -> (client ORB, its pool, a
    :class:`_RawServer`)."""
    clients, servers = [], []

    def make(drive):
        pool = BufferPool()
        clients.append(_client(drive, pool=pool))
        servers.append(_RawServer(clients[-1], test_api))
        return clients[-1], pool, servers[-1]

    yield make
    for client in clients:
        client.shutdown()
    for server in servers:
        server.close()


def _await_one_call(server: _RawServer) -> None:
    """One awaited call, answered by hand: the connection is read by the
    drive ``start_reading`` chooses from now on."""
    got = []
    caller = threading.Thread(target=lambda: got.append(asyncio.run(
        async_api(server.stub).put_std(OctetSequence(b"over")))),
        daemon=True)
    caller.start()
    assert _settle(lambda: server.accepted)
    request = server.accepted[0].recv_message()
    header = decode_header(request)
    request_id = decode_body(
        header, request[GIOP_HEADER_SIZE:]).body_header.request_id
    server.accepted[0].send(encode_message(
        ReplyHeader(request_id=request_id,
                    reply_status=ReplyStatus.NO_EXCEPTION),
        struct.pack("=I", 4)))
    caller.join(WATCHDOG)
    assert got == [4]


@pytest.mark.parametrize("row", [row for row in STREAMS if not row.record],
                         ids=lambda row: row.name)
@pytest.mark.parametrize("drive", CLIENT_DRIVES)
def test_client_fails_every_inflight_call_the_same_on_every_drive(
        drive, row, raw_server):
    client, pool, server = raw_server(drive)
    if drive in HANDED_OVER:
        _await_one_call(server)
    callers = _Callers(server.stub, 3)
    assert _settle(lambda: server.accepted)
    peer = server.accepted[0]
    for _ in callers.threads:
        peer.recv_message()
    proxy = next(iter(client._proxies.values()))
    demux = proxy._demux
    assert demux.inflight == 3
    # the table reaches the drive it names
    assert demux.callers_read is drive.startswith("waiter")
    assert (demux._thread is not None) is drive.startswith("thread")
    assert isinstance(demux.conn.stream, FaultyStream) \
        is drive.endswith("-faulty")

    peer.send(_bytes_of(row, to_server=False))
    if row.then_eof:
        peer.hang_up()

    outcomes = callers.join()
    assert [(type(o), getattr(o, "completed", None)) for o in outcomes] \
        == [row.client] * 3, outcomes
    assert demux._pending == {} and demux.conn.closed
    stats = pool.stats()
    assert stats["hits"] + stats["misses"] == stats["reclaims"]


def _leased(pool: BufferPool) -> int:
    """Buffers the pool handed out and has not had back."""
    stats = pool.stats()
    return stats["hits"] + stats["misses"] - stats["reclaims"]


# -- shm deposit records --------------------------------------------------

@pytest.mark.parametrize("row", [row for row in STREAMS if row.record],
                         ids=lambda row: row.name)
@pytest.mark.parametrize("role", ["server", "client"])
def test_the_parse_reads_a_hostile_shm_record_as_any_other_bytes(
        role, row, served, raw_server):
    """A deposit record is read by the parse like the rest of the
    message, so what the peer lies about in one, or where it stops,
    ends the connection by §7's table, and leaves no landing buffer
    leased and no slot of the arena the records name taken."""
    if role == "server":
        pool = BufferPool()
        server, stub = served("thread-shm", pool)
        assert stub.put_std(OctetSequence(b"before")) == 6
        footprint = _Footprint(server)
        peer = _dial(server)
    else:
        client, pool, server = raw_server("waiter-shm")
        callers = _Callers(server.stub, 3)
        assert _settle(lambda: server.accepted)
        peer = server.accepted[0]
        for _ in callers.threads:
            peer.recv_message()
        assert next(iter(client._proxies.values()))._demux.callers_read
    try:
        # the arena the reading end maps the peer's slots from
        arena = peer.stream.send_arena
        free, leased = arena.free_slots, _leased(pool)
        peer.send(_bytes_of(row, to_server=role == "server"))
        if row.then_eof:
            peer.hang_up()
        if role == "server":
            assert peer.recv_to_eof() == row.server
        else:
            assert [(type(o), getattr(o, "completed", None))
                    for o in callers.join()] == [row.client] * 3
        assert _settle(lambda: _leased(pool) == leased)
        assert arena.free_slots == free
    finally:
        if role == "server":
            peer.close()
    if role == "server":
        assert stub.put_std(OctetSequence(b"after!")) == 12
        assert footprint.restored(), (footprint.was, footprint.now())


# -- one way bytes reach the parse ----------------------------------------

@pytest.mark.parametrize("role,drive", [
    *(("server", drive) for drive in DRIVES),
    *(("client", drive) for drive in CLIENT_DRIVES)])
def test_no_drive_makes_a_blocking_read(role, drive, served, monkeypatch):
    """Every drive feeds the parse through ``GIOPConn._read_nb``: once a
    connection is set up (dialed, and on shm its handshake, which does
    read blocking, done) neither end of it calls ``recv_exact`` or
    ``recv_into``, for a message, a deposit, or on shm a deposit record
    with an inline payload behind it."""
    server_drive = drive if role == "server" else CLIENT_DRIVES[drive]
    server, stub = served(server_drive,
                           client_drive=role == "client" and drive)
    if role == "client" and drive in HANDED_OVER:
        asyncio.run(async_api(stub).put_std(OctetSequence(b"over")))
    total = stub.put_std(OctetSequence(b"set-up"))
    conn = next(iter(stub._orb._proxies.values())).conn
    blocking = []
    for stream in [conn.stream, *(c.stream for c in
                                  server._server.connections())]:
        for layer in (stream, getattr(stream, "_inner", None)):
            for name in ("recv_exact", "recv_into"):
                if layer is not None:
                    monkeypatch.setattr(layer, name, partial(
                        _recorded, blocking, name, getattr(layer, name)))

    sizes = [2 * DEPOSIT_MIN_SIZE]
    if DRIVES[server_drive]["scheme"] == "shm":  # and an inline record
        sizes.append(conn.stream.send_arena.slot_size + PAGE_SIZE)
    assert stub.total == total  # a ping
    for n in sizes:
        total += n
        assert stub.put(ZCOctetSequence.from_data(bytes(n))) == total
        assert len(stub.get(n)) == n
    assert blocking == []


def _recorded(calls: list, name: str, read, *args):
    calls.append(name)
    return read(*args)


@pytest.mark.parametrize("drive", [d for d in CLIENT_DRIVES
                                   if d.startswith("waiter")])
def test_sync_calls_run_no_reader_thread(drive, served):
    """A client whose callers read its connection starts no thread for
    it, neither when it dials nor while four callers share it: over tcp,
    over shm and through a fault-injected tcp stream alike."""
    _, stub = served(CLIENT_DRIVES[drive], client_drive=drive)
    seen = set()

    def calls():
        for _ in range(20):
            stub.put_std(OctetSequence(b"ping"))
            seen.update(t.name for t in threading.enumerate()
                        if t.name.startswith("giop-demux-"))

    callers = [threading.Thread(target=calls) for _ in range(4)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(WATCHDOG)
    assert stub.total == 4 * 20 * 4
    demux = next(iter(stub._orb._proxies.values()))._demux
    assert seen == set() and demux._thread is None and demux.callers_read


# -- the regressions, one per drive ---------------------------------------

def test_garbage_reply_fails_a_default_client_at_once_without_a_policy(
        raw_server):
    """A default client's sync callers read its connection themselves
    (the waiter drive; the escape that left a caller with no deadline
    waiting for ever was the loop's, and the table's ``loop`` rows hold
    it since).  No policy here, so nothing but the read path can end
    the call; then the dead connection is replaced."""
    client, _, server = raw_server("waiter")
    assert client.policy is None
    callers = _Callers(server.stub, 1)
    assert _settle(lambda: server.accepted)
    server.accepted[0].recv_message()
    server.accepted[0].send(b"XXXX" + b"\x00" * 8)
    (failure,) = callers.join()
    assert isinstance(failure, COMM_FAILURE) and failure.completed is MAYBE
    assert "framing error" in failure.message
    proxy = next(iter(client._proxies.values()))
    assert proxy._demux.inflight == 0

    again = _Callers(server.stub, 1)
    assert _settle(lambda: len(server.accepted) == 2), "no redial"
    server.accepted[1].recv_message()
    server.accepted[1].close()
    (failure,) = again.join()
    assert isinstance(failure, COMM_FAILURE)


def test_reader_threads_survive_peers_that_send_garbage_and_reset(served):
    """Thread drive: the courtesy MessageError to a peer that already
    reset raised ``TransportError``, an ``OSError``, past an ``except
    SystemException``: the reader died before it closed, and the fd and
    the ``connections()`` entry stayed."""
    server, stub = served("thread+pool")
    assert stub.put_std(OctetSequence(b"before")) == 6
    footprint = _Footprint(server)
    endpoint = server.endpoint
    for _ in range(20):
        sock = socket.create_connection(endpoint[1:], timeout=WATCHDOG)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.sendall(_framed(MsgType.Request, b"\xff" * 8))
        sock.close()  # linger 0: a reset, not a FIN
    assert footprint.restored(), (footprint.was, footprint.now())
    assert stub.put_std(OctetSequence(b"after!")) == 12


# -- on the loop nothing waits --------------------------------------------

def _accepted_conn(server: ORB, peer: _RawStream):
    """The server's connection for ``peer``, once it answers."""
    peer.send(encode_message(LocateRequestHeader(
        request_id=1, object_key=b"nobody")))
    peer.recv_message()
    return server._server.connections()[-1]


def test_loop_drops_the_courtesy_rather_than_wait_for_the_send_lock(served):
    """Someone holds the connection's send lock (a worker inside a
    large reply).  The loop must not queue behind it: no courtesy, the
    connection closed at once, and every other connection still read."""
    server, stub = served("loop")
    peer = _dial(server)
    conn = _accepted_conn(server, peer)
    with conn._send_lock:
        peer.send(b"XXXX" + b"\x00" * 8)
        assert _settle(lambda: conn.closed), "the loop waited for the lock"
        assert stub.put_std(OctetSequence(b"served")) == 6
        assert peer.recv_to_eof() == b""
    peer.close()


class _FullSocket:
    """A socket whose buffer takes nothing more without waiting (while
    it is open; a closed one fails as a closed one does)."""

    def __init__(self, sock):
        self._sock = sock

    def sendmsg(self, buffers, ancdata=(), flags=0):
        if flags & socket.MSG_DONTWAIT and self._sock.fileno() >= 0:
            raise BlockingIOError(errno.EAGAIN, "full")
        return self._sock.sendmsg(buffers, ancdata, flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_loop_drops_a_courtesy_the_socket_does_not_take_at_once(served):
    """The unsent tail of a non-blocking write owns the stream's write
    lock; dropped with the connection, it must not keep it from a
    worker that still has a reply for this connection."""
    server, _ = served("loop")
    peer = _dial(server)
    conn = _accepted_conn(server, peer)
    stream = conn.stream
    stream._sock = _FullSocket(stream._sock)
    peer.send(b"XXXX" + b"\x00" * 8)
    assert peer.recv_to_eof() == b""
    assert conn.closed
    assert stream._wlock.acquire(timeout=WATCHDOG), "write lock leaked"
    stream._wlock.release()
    peer.close()
