"""One write lock per connection (DESIGN.md §10, lock rule 1): every
write a connection makes to its stream runs under its
``GIOPConn._send_lock``.  ``TCPStream`` takes no lock of its own, so
this is what keeps two messages from interleaving on the wire.

Each test wraps ``TCPStream.send`` / ``sendv`` / ``send_file`` and
notes, for every write whose stream belongs to a connection, which
thread made it and whether that connection's send lock was held.
"""

import asyncio
import os
import socket
import threading

import pytest

from repro.giop import MsgType, encode_giop_header
from repro.idl import compile_idl
from repro.orb import ORB, ORBConfig, async_api, run_sync
from repro.orb.connection import GIOPConn
from repro.services import BlobStoreImpl, read_all
from repro.transport.tcp import TCPStream
from tests.orb.test_aio import _ChokedSocket

WATCHDOG = 10.0

api = compile_idl("interface Locked { void ping(in unsigned long x); };",
                  module_name="_send_lock_idl")


class _Writes:
    """Every write a connection made: ``(method, thread, locked)``."""

    def __init__(self, monkeypatch):
        self.seen = []
        owners = {}
        init = GIOPConn.__init__

        def init_spy(conn, stream, **kw):
            init(conn, stream, **kw)
            while stream is not None:  # shm and faulty streams wrap tcp
                owners[id(stream)] = (stream, conn)
                stream = getattr(stream, "_inner", None)

        monkeypatch.setattr(GIOPConn, "__init__", init_spy)
        for name in ("send", "sendv", "send_file"):
            monkeypatch.setattr(TCPStream, name,
                                self._spy(name, getattr(TCPStream, name),
                                          owners))

    def _spy(self, name, write, owners):
        def spy(stream, *args, **kw):
            _, conn = owners.get(id(stream), (None, None))
            if conn is not None:
                self.seen.append((name, threading.current_thread().name,
                                  conn._send_lock.locked()))
            return write(stream, *args, **kw)
        return spy

    def unlocked(self):
        return [w for w in self.seen if not w[2]]

    def by(self, name=None, thread=None):
        return [w for w in self.seen
                if (name is None or w[0] == name)
                and (thread is None or w[1].startswith(thread))]


@pytest.fixture
def writes(monkeypatch):
    return _Writes(monkeypatch)


class _Impl(api.Locked_skel):
    def ping(self, x):
        return None


@pytest.fixture
def pair(writes):
    """``(stub, proxy, server)`` over tcp, dialed after the spies."""
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"))
    stub = client.string_to_object(
        server.object_to_string(server.activate(_Impl())))
    stub.ping(0)
    yield stub, next(iter(client._proxies.values())), server
    client.shutdown()
    server.shutdown()


def test_sync_and_awaited_in_place_writes(pair, writes):
    stub, proxy, _ = pair
    for i in range(20):
        stub.ping(i)

    async def awaited():
        ping = async_api(stub).ping
        for i in range(20):
            await ping(i)

    run_sync(awaited(), timeout=WATCHDOG)  # in place, on the loop
    assert writes.by("sendv", "MainThread")
    assert writes.by("sendv", "giop-reactor")
    assert len(writes.by("sendv")) >= 2 * 41  # requests and replies
    assert writes.unlocked() == []


def test_a_pushback_tail_on_its_own_thread(pair, writes):
    stub, proxy, _ = pair
    stream = proxy.conn.stream
    choke = stream._sock = _ChokedSocket(stream._sock, 10)

    async def go():
        call = asyncio.ensure_future(async_api(stub).ping(1))
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, choke.blocked.wait, WATCHDOG)
        choke.release.set()
        assert await asyncio.wait_for(call, WATCHDOG) is None

    try:
        asyncio.run(go())
    finally:
        choke.release.set()
    assert writes.by("sendv", "giop-send-tail")
    assert writes.unlocked() == []


def test_a_contended_send(pair, writes):
    stub, proxy, _ = pair
    conn = proxy.conn
    held, release = threading.Event(), threading.Event()

    def hold():
        with conn._send_lock:
            held.set()
            release.wait(WATCHDOG)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(WATCHDOG)

    async def go():
        call = asyncio.ensure_future(async_api(stub).ping(1))
        await asyncio.sleep(0.05)
        assert not call.done()  # it waits for the lock off the loop
        release.set()
        assert await asyncio.wait_for(call, WATCHDOG) is None

    senders = [threading.Thread(target=stub.ping, args=(i,))
               for i in range(4)]
    try:
        for t in senders:
            t.start()
        asyncio.run(go())
    finally:
        release.set()
        holder.join()
        for t in senders:
            t.join(WATCHDOG)
    assert len(writes.by("sendv")) >= 2 * 6
    assert writes.unlocked() == []


def test_a_sendfile_reply(writes, tmp_path):
    data = os.urandom(1024 * 1024)
    (tmp_path / "blob.bin").write_bytes(data)
    impl = BlobStoreImpl(tmp_path, chunk_size=512 * 1024)
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp", collocated_calls=False))
    try:
        store = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        assert read_all(store, "blob.bin") == data
    finally:
        impl.shutdown()
        client.shutdown()
        server.shutdown()
    assert len(writes.by("send_file")) == 2
    assert writes.unlocked() == []


def test_send_close(pair, writes):
    stub, proxy, server = pair
    stub.ping(1)
    proxy.close()  # the client's CloseConnection
    stub.ping(2)  # redials
    server.shutdown()  # the server's, on each connection it still has
    assert len(writes.by("send")) >= 2
    assert writes.unlocked() == []


def test_the_pools_message_error_courtesy(pair, writes):
    """The MessageError to a peer that sent garbage is written by the
    pool thread that read the garbage, under the send lock, the way a
    reader thread writes it."""
    _, _, server = pair
    peer = socket.create_connection(server.endpoint[1:], timeout=WATCHDOG)
    try:
        peer.sendall(b"XXXX" + bytes(8))
        assert peer.recv(64) == encode_giop_header(MsgType.MessageError, 0)
        assert peer.recv(64) == b""
    finally:
        peer.close()
    (courtesy,) = writes.by("send", "iiop-worker")
    assert courtesy[2]
    assert writes.unlocked() == []
