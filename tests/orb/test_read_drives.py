"""One read path (DESIGN.md §10): whichever drive reads a connection
(``GIOPConn.start_reading``: pump, loop, a server's reader thread; and
a client's connection over a socket, tcp, shm or fault-injected, the
callers waiting for replies until an awaited call hands it to the
loop), a server treats a message, or a peer's garbage, the same, and a
client fails its in-flight calls the same.  One table of hostile
streams, every drive, both roles, against a peer with no ORB behind it
(its shm deposit-record rows on the drives that read records,
``thread-shm``, ``waiter-shm`` and ``loop-shm``); that no drive reads by
blocking, which is what makes the one read path one, and that no
client, sync or awaited, starts a reader thread; then the regressions
the table grew out of, one per drive.
(The server half of the loop
drive's is in the table: its ``bad-magic``, ``unknown-type`` and
``ff-body`` rows on ``loop``, a default tcp server, got neither an
answer nor a hang-up before ``_ConnDriver._resume``.)

This is the first piece of ROADMAP item 4(a)'s connection fuzzer.  Its
``oversized-*`` rows are the size bounds of ``repro.giop.messages``: a
claim just over one is refused before anything of its size is
allocated.  The last section is a well-framed message whose parameters
do not decode: ``MARSHAL``, both roles.
"""

import asyncio
import errno
import os
import random
import socket
import struct
import threading
import time
import tracemalloc
from functools import partial
from typing import Callable, NamedTuple, Optional

import pytest

from repro.cdr import CDREncoder, CDRError
from repro.core import (BufferPool, DepositDescriptor, OctetSequence,
                        ZCOctetSequence)
from repro.core.buffers import PAGE_SIZE
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import (GIOP_HEADER_SIZE, IOR, IIOPProfile, LocateReplyHeader,
                        LocateRequestHeader, LocateStatus, MsgType, ReplyHeader,
                        ReplyStatus, RequestHeader, ServiceContext,
                        decode_body, decode_header, encode_giop_header,
                        encode_message)
from repro.giop.messages import MAX_DEPOSIT_NBYTES, MAX_MESSAGE_SIZE
from repro.obs import CLIENT_STAGES
from repro.orb import (COMM_FAILURE, INTERNAL, MARSHAL, ORB, UNKNOWN,
                       CompletionStatus, ORBConfig, async_api)
from repro.orb.exceptions import decode_system_exception
from repro.orb.reactor import get_reactor
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
    "loop-shm": dict(scheme="shm"),
    "thread-inline": dict(scheme="tcp", server_workers=0),
    "thread-shm": dict(scheme="shm", server_workers=0),
}
#: client drive -> the server drive whose ORBConfig the client takes.  A
#: client has no dispatch and no reader thread: its connection over a
#: socket is read by its waiting callers until the first awaited call
#: hands it to the loop, whatever the socket carries.  A ``-faulty``
#: client dials through a FaultyStream with an empty plan
CLIENT_DRIVES = {"pump": "pump", "waiter": "loop", "loop": "loop",
                 "waiter-shm": "loop-shm", "loop-shm": "loop-shm",
                 "waiter-faulty": "loop", "loop-faulty": "loop"}
#: the client drives reached by way of one awaited call
HANDED_OVER = ("loop", "loop-shm", "loop-faulty")

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


def _oversized_fragment_chain(_rng, to_server: bool) -> bytes:
    """An 8-byte first fragment, then a Fragment header whose size
    takes the chain one byte over the bound (no body follows)."""
    first = bytes(encode_giop_header(
        MsgType.Request if to_server else MsgType.Reply, 8,
        more_fragments=True)) + bytes(8)
    return first + bytes(encode_giop_header(MsgType.Fragment,
                                            MAX_MESSAGE_SIZE - 7))


def _oversized_deposits(_rng, to_server: bool) -> bytes:
    """Two deposits, each under the bound, that sum to one byte over
    it (no payload follows)."""
    half = MAX_DEPOSIT_NBYTES // 2
    named = [ServiceContext.for_deposit(DepositDescriptor(1, half)),
             ServiceContext.for_deposit(DepositDescriptor(2, half + 1))]
    return encode_message(RequestHeader(
        request_id=1, object_key=b"store", operation="put",
        service_contexts=named) if to_server else ReplyHeader(
            request_id=1, reply_status=ReplyStatus.NO_EXCEPTION,
            service_contexts=named))


def _record(slot: int = -1, size: int = 4096, magic: int = SHM_MAGIC):
    return struct.pack("<IiQQ", magic, slot, 0, size)


class Hostile(NamedTuple):
    """One row: ``build(rng, to_server)`` -> the bytes; whether the peer
    hangs up after them; what a server does; what a client's in-flight
    calls get; whether they hold an shm deposit record (read only by a
    connection that has a deposit channel); whether they claim a size
    over a bound (the reading end then allocates nothing of it)."""

    name: str
    build: Callable
    server: Optional[bytes]
    client: tuple
    then_eof: bool = False
    record: bool = False
    oversized: bool = False


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
    # sizes a peer claims and never sends: refused before the body, the
    # next fragment or a landing buffer is allocated
    Hostile("oversized-header",
            lambda rng, s: _framed(
                MsgType.Request if s else MsgType.Reply, b"",
                size=MAX_MESSAGE_SIZE + 1),
            ANSWERED, (COMM_FAILURE, MAYBE), oversized=True),
    Hostile("oversized-fragment-chain", _oversized_fragment_chain,
            ANSWERED, (COMM_FAILURE, MAYBE), oversized=True),
    Hostile("oversized-deposit", _oversized_deposits,
            DROPPED, (MARSHAL, MAYBE), oversized=True),
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


#: what reading an ``oversized`` row may allocate at its peak, in all
#: (``tracemalloc``, which sees the numpy storage of pool buffers too)
OVERSIZED_PEAK = 4 << 20


class _Peak:
    """The ``tracemalloc`` peak over a block, for an ``oversized`` row
    (None for any other row, which is not traced)."""

    def __init__(self, row: Hostile):
        self.row, self.peak = row, None

    def __enter__(self):
        if self.row.oversized:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.row.oversized:
            self.peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return False

    def check(self) -> None:
        assert self.peak is None or self.peak < OVERSIZED_PEAK, \
            f"{self.row.name}: {self.peak} bytes allocated at the peak"


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
        with _Peak(row) as peak:
            peer.send(_bytes_of(row, to_server=True))
            if row.then_eof:
                peer.hang_up()
            if row.server is IGNORED:
                # the connection is up: it still answers
                peer.send(encode_message(LocateRequestHeader(
                    request_id=9, object_key=b"nobody")))
                assert peer.recv_message() == encode_message(
                    LocateReplyHeader(
                        request_id=9,
                        locate_status=LocateStatus.UNKNOWN_OBJECT))
            else:
                assert peer.recv_to_eof() == row.server
        peak.check()
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
    loop from now on."""
    got = []
    caller = threading.Thread(target=lambda: got.append(asyncio.run(
        async_api(server.stub).put_std(OctetSequence(b"over")))),
        daemon=True)
    caller.start()
    assert _settle(lambda: server.accepted)
    request = server.accepted[0].recv_message()
    header = decode_header(request)
    request_id = decode_body(
        header, request[GIOP_HEADER_SIZE:])[0].request_id
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
    assert _on_the_loop(demux.conn) is (drive in HANDED_OVER)
    assert isinstance(demux.conn.stream, FaultyStream) \
        is drive.endswith("-faulty")

    with _Peak(row) as peak:
        peer.send(_bytes_of(row, to_server=False))
        if row.then_eof:
            peer.hang_up()
        outcomes = callers.join()
    peak.check()
    assert [(type(o), getattr(o, "completed", None)) for o in outcomes] \
        == [row.client] * 3, outcomes
    assert demux._pending == {} and demux.conn.closed
    stats = pool.stats()
    assert stats["hits"] + stats["misses"] == stats["reclaims"]


def _on_the_loop(conn) -> bool:
    """Whether the reactor's loop reads ``conn``."""
    return any(driver.conn is conn
               for driver in list(get_reactor()._drivers.values()))


def _leased(pool: BufferPool) -> int:
    """Buffers the pool handed out and has not had back."""
    stats = pool.stats()
    return stats["hits"] + stats["misses"] - stats["reclaims"]


# -- shm deposit records --------------------------------------------------

@pytest.mark.parametrize("row", [row for row in STREAMS if row.record],
                         ids=lambda row: row.name)
@pytest.mark.parametrize("role", ["server", "client", "client-loop"])
def test_the_parse_reads_a_hostile_shm_record_as_any_other_bytes(
        role, row, served, raw_server):
    """A deposit record is read by the parse like the rest of the
    message, so what the peer lies about in one, or where it stops,
    ends the connection by §7's table, and leaves no landing buffer
    leased and no slot of the arena the records name taken: on a
    server's reader thread, and on a client's callers (``client``) or
    its loop (``client-loop``)."""
    if role == "server":
        pool = BufferPool()
        server, stub = served("thread-shm", pool)
        assert stub.put_std(OctetSequence(b"before")) == 6
        footprint = _Footprint(server)
        peer = _dial(server)
    else:
        drive = "waiter-shm" if role == "client" else "loop-shm"
        client, pool, server = raw_server(drive)
        if drive in HANDED_OVER:
            _await_one_call(server)
        callers = _Callers(server.stub, 3)
        assert _settle(lambda: server.accepted)
        peer = server.accepted[0]
        for _ in callers.threads:
            peer.recv_message()
        demux = next(iter(client._proxies.values()))._demux
        assert demux.callers_read is (drive not in HANDED_OVER)
        assert _on_the_loop(demux.conn) is (drive in HANDED_OVER)
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


# -- one span shape ----------------------------------------------------------

#: what a server span reads on every drive: its request's read (stamped
#: by the span that owns the request, from the numbers the read left on
#: the message), the upcall's demarshal, then the reply's send
SERVER_STAGES = ["recv-wait", "deposit-recv", "demarshal", "marshal",
                 "control-send", "deposit-send"]
SPAN_PAYLOAD = 1 << 20


def _spans_of_one_put(drive: str, served, store_impl):
    """``(client span, server span)`` of one ``put`` of a 1 MiB
    zero-copy payload, every span's detail kept.  ``pump-self`` is one
    ORB calling itself over ``loop``, dispatching inline: the server's
    read runs on the caller's thread, inside the client span."""
    if drive == "pump-self":
        orb = ORB(ORBConfig(scheme="loop", collocated_calls=False,
                            server_workers=0, slow_call_threshold=0.0))
        try:
            stub = orb.string_to_object(orb.object_to_string(
                orb.activate(store_impl)))
            assert stub.put(ZCOctetSequence.from_data(
                bytes(SPAN_PAYLOAD))) == SPAN_PAYLOAD
            server_span, client_span = orb.flightrec.slow_trees()[-1]
        finally:
            orb.shutdown()
        assert server_span.parent == client_span.number
        return client_span, server_span
    server, stub = served(drive)
    client = stub._orb
    for rec in (server.flightrec, client.flightrec):
        rec.slow_threshold = 0.0
    assert stub.put(ZCOctetSequence.from_data(
        bytes(SPAN_PAYLOAD))) == SPAN_PAYLOAD
    # a server span is finished after its reply is written
    assert _settle(lambda: [s for s in server.flightrec.recent()
                            if s.name == "put"])
    (server_span,) = [s for s in server.flightrec.recent()
                      if s.name == "put"]
    return client.flightrec.recent()[-1], server_span


@pytest.mark.parametrize("drive", [*DRIVES, "pump-self"])
def test_every_drive_gives_a_request_the_same_span(drive, served,
                                                   store_impl):
    """On every server drive the span that owns a request stamps its
    read: six server stages in order, the deposit landed whole; the
    client span reads the six client stages and no ``recv-wait``, a
    server reading on the caller's own thread included.  No stage is
    longer than its span, and a server span, which begins when its
    request's header is in, holds the sum of its stages."""
    client_span, server_span = _spans_of_one_put(drive, served, store_impl)
    assert (client_span.kind, server_span.kind) == ("client", "server")
    assert [e.stage for e in server_span.stages] == SERVER_STAGES
    assert server_span.stage_bytes("deposit-recv") == SPAN_PAYLOAD
    assert server_span.stage_bytes("recv-wait") > 0
    assert [e.stage for e in client_span.stages] == list(CLIENT_STAGES)
    assert client_span.stage_bytes("deposit-send") == SPAN_PAYLOAD
    for span in (client_span, server_span):
        for event in span.stages:
            assert 0.0 <= event.duration_s <= span.duration_s, event
    assert sum(e.duration_s for e in server_span.stages) <= \
        server_span.duration_s


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
    assert seen == set() and demux.callers_read


@pytest.mark.parametrize("drive", ["loop", "loop-shm"], ids=["tcp", "shm"])
def test_awaited_calls_run_no_reader_thread(drive, served):
    """Twenty connections, each handed to the loop by awaited calls,
    over tcp and over shm: no client starts a thread to read one."""
    _, stub = served(drive)
    client = stub._orb
    profile = client.select_profile(stub._ior)
    proxies = [client._new_proxy(profile.endpoint) for _ in range(20)]
    call = (profile.object_key, stub._signature("put_std"),
            [OctetSequence(b"ping")])
    seen = set()

    async def calls():
        for _ in range(3):
            await asyncio.gather(*(p.invoke_async(*call) for p in proxies))
            seen.update(t.name for t in threading.enumerate()
                        if t.name.startswith(("giop-demux-", "giop-reader")))

    try:
        asyncio.run(calls())
        assert seen == set()
        assert all(_on_the_loop(p._demux.conn) for p in proxies)
    finally:
        for proxy in proxies:
            proxy.close()


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
    server, stub = served("thread-inline")
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
    """The loop drops the courtesy the socket does not take at once:
    the send lock is free again for a worker that still has a reply
    for this connection."""
    server, _ = served("loop")
    peer = _dial(server)
    conn = _accepted_conn(server, peer)
    stream = conn.stream
    stream._sock = _FullSocket(stream._sock)
    peer.send(b"XXXX" + b"\x00" * 8)
    assert peer.recv_to_eof() == b""
    assert conn.closed
    assert conn._send_lock.acquire(timeout=WATCHDOG), "send lock leaked"
    conn._send_lock.release()
    peer.close()


# -- parameters that do not decode ----------------------------------------
#
# A message framed well, whose parameters are cut short: the parse takes
# it, the demarshal does not.  The servant never ran on the server, so
# its answer is MARSHAL / COMPLETED_NO and the connection stays up; a
# client's servant ran, unless what is lost is a SYSTEM_EXCEPTION's
# status.

def _reply_bodies() -> list:
    """(id, reply status, body, completion) rows for a client's call of
    ``put`` (an ``unsigned long`` result; raises ``Test::Failed``)."""
    user = CDREncoder()
    user.put_string("IDL:Test/Failed:1.0")
    user.put_ulong(100)  # the reason string's length; no bytes follow
    return [
        ("no-exception", ReplyStatus.NO_EXCEPTION, b"\x01\x02",
         CompletionStatus.COMPLETED_YES),
        ("user-exception", ReplyStatus.USER_EXCEPTION, user.getvalue(),
         CompletionStatus.COMPLETED_YES),
        ("system-exception", ReplyStatus.SYSTEM_EXCEPTION, b"\x01\x02",
         MAYBE),
    ]


@pytest.mark.parametrize("drive", ["pump", "loop"], ids=["pump", "tcp"])
def test_server_answers_parameters_that_do_not_decode_with_marshal(
        drive, served):
    server, stub = served(drive)
    peer = _dial(server)
    try:
        # put_std's sequence<octet> is missing altogether
        peer.send(encode_message(RequestHeader(
            request_id=5, object_key=stub._ior.iiop_profile().object_key,
            operation="put_std")))
        reply = peer.recv_message()
        body_header, dec = decode_body(decode_header(reply),
                                       reply[GIOP_HEADER_SIZE:])
        assert body_header.request_id == 5
        assert body_header.reply_status is ReplyStatus.SYSTEM_EXCEPTION
        exc = decode_system_exception(dec)
        assert (type(exc), exc.completed) == \
            (MARSHAL, CompletionStatus.COMPLETED_NO)
        # the connection is up: it still answers
        peer.send(encode_message(LocateRequestHeader(
            request_id=6, object_key=b"nobody")))
        assert peer.recv_message() == encode_message(LocateReplyHeader(
            request_id=6, locate_status=LocateStatus.UNKNOWN_OBJECT))
    finally:
        peer.close()
    assert stub.put_std(OctetSequence(b"after!")) == 6


@pytest.mark.parametrize("drive", ["pump", "loop"], ids=["pump", "tcp"])
def test_a_servant_that_raises_a_cdr_error_is_still_unknown(
        drive, served, store_impl):
    """Only the demarshal maps to MARSHAL: what the servant raises, even
    the codec's own error type, is a servant bug."""
    server, stub = served(drive)

    def put_std(data):
        raise CDRError("the servant's own")

    store_impl.put_std = put_std
    with pytest.raises(UNKNOWN) as info:
        stub.put_std(OctetSequence(b"x"))
    assert info.value.completed is MAYBE


@pytest.mark.parametrize("status,body,completed",
                         [row[1:] for row in _reply_bodies()],
                         ids=[row[0] for row in _reply_bodies()])
@pytest.mark.parametrize("drive", ["pump", "waiter"],
                         ids=["pump", "tcp"])
def test_client_maps_a_reply_that_does_not_decode_to_marshal(
        drive, status, body, completed, raw_server):
    _, _, server = raw_server(drive)
    got = []

    def call():
        try:
            got.append(server.stub.put(ZCOctetSequence.from_data(b"x")))
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            got.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    assert _settle(lambda: server.accepted)
    request = server.accepted[0].recv_message()
    request_id = decode_body(decode_header(request),
                             request[GIOP_HEADER_SIZE:])[0].request_id
    server.accepted[0].send(encode_message(
        ReplyHeader(request_id=request_id, reply_status=status), body))
    caller.join(WATCHDOG)
    assert not caller.is_alive(), "the caller is still waiting"
    assert [(type(o), getattr(o, "completed", None)) for o in got] == \
        [(MARSHAL, completed)], got
