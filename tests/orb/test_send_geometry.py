"""One send geometry, whoever observes.

Observation must not change what the ORB writes: a traced call is
timed on the writes an untraced one makes (DESIGN.md §8).  Each row
makes one call with ``sendv`` and ``send_file`` wrapped on both ends
of its connection, three times over fresh ORB pairs: untraced,
``enable_tracing()`` and ``enable_tracing(wire=True,
distributed=True)``.  The calls, and the chunks of each, must be the
same in all three, except that a distributed tracer's requests carry a
trace context, which only the control chunk (the GIOP body head) may
grow by.

The rows cover every tier a payload can take: a memory deposit (the
gather write), an arena-resident sequence (a slot reference over shm)
and a file range at least ``sendfile_min_size`` long (the sendfile
tier over tcp, arena staging over shm, a second write over loopback).
"""

import contextlib
from functools import partial

import pytest

from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import MsgType
from repro.orb import ORB, ORBConfig
from repro.services import BlobStoreImpl
from repro.transport.loopback import LoopbackStream
from repro.transport.shm import ShmStream, shm_available
from repro.transport.tcp import TCPStream
from tests.conftest import make_store_impl

#: the outermost stream each scheme writes through (an shm stream
#: writes its control bytes through a TCPStream of its own)
STREAMS = {"loop": LoopbackStream, "tcp": TCPStream, "shm": ShmStream}
#: observation modes: untraced, then the keyword arguments of
#: ``enable_tracing`` on both ORBs
MODES = [None, {}, {"wire": True, "distributed": True}]
#: a file range at the default ``sendfile_min_size``
FILE_CHUNK = 256 * 1024

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared-memory directory")

#: (scheme, payload) -> writes per end (client, server) for one call
ROWS = {
    ("loop", "memory"): (1, 1),
    ("loop", "file"): (1, 2),      # control, then the mapped range
    ("tcp", "memory"): (1, 1),
    ("tcp", "file"): (1, 2),       # control, then send_file
    ("shm", "memory"): (1, 1),     # staged, then one gather write
    ("shm", "arena"): (1, 1),
    ("shm", "file"): (1, 1),
}


@contextlib.contextmanager
def _recording(cls):
    """Every ``sendv`` / ``send_file`` on ``cls``, per stream in order
    of each stream's first write: a ``sendv`` as ``(message type or
    None, chunk sizes)``, a ``send_file`` as ``("send_file", count)``."""
    logs = {}
    sendv, send_file = cls.sendv, getattr(cls, "send_file", None)

    def log(stream):
        return logs.setdefault(id(stream), [])

    def wrapped_sendv(self, chunks, *args):
        chunks = list(chunks)
        first = bytes(memoryview(chunks[0])[:8]) if chunks else b""
        kind = MsgType(first[7]).name if first[:4] == b"GIOP" else None
        log(self).append((kind, tuple(memoryview(c).nbytes
                                      for c in chunks)))
        return sendv(self, chunks, *args)

    def wrapped_send_file(self, fd, offset, count):
        log(self).append(("send_file", count))
        return send_file(self, fd, offset, count)

    cls.sendv = wrapped_sendv
    if send_file is not None:
        cls.send_file = wrapped_send_file
    try:
        yield logs
    finally:
        cls.sendv = sendv
        if send_file is not None:
            cls.send_file = send_file


def _writes(scheme, payload, mode, test_api, blob_root):
    """One call's writes on both ends, client's first, under ``mode``."""
    server = ORB(ORBConfig(scheme=scheme))
    client = ORB(ORBConfig(scheme=scheme, collocated_calls=False))
    blob = None
    try:
        if mode is not None:  # before the first connection exists
            for orb in (client, server):
                orb.enable_tracing(**mode)
        if payload == "file":
            blob = BlobStoreImpl(blob_root, chunk_size=FILE_CHUNK)
            store = client.string_to_object(
                server.object_to_string(server.activate(blob)))
            call = partial(store.read_range, store.open("blob.bin"), 0,
                           FILE_CHUNK)
        else:
            stub = client.string_to_object(server.object_to_string(
                server.activate(make_store_impl(test_api))))
            stub.get_std(1)  # dial
            if payload == "arena":
                conn = next(iter(client._proxies.values())).conn
                data = ZCOctetSequence.in_arena(
                    conn.stream.deposit_channel.send_arena, bytes(1024))
                assert data is not None
            else:
                data = ZCOctetSequence.from_data(
                    bytes(2 * DEPOSIT_MIN_SIZE))
            call = partial(stub.put, data)
        with _recording(STREAMS[scheme]) as logs:
            call()
        return list(logs.values())
    finally:
        if blob is not None:
            blob.shutdown()
        client.shutdown()
        server.shutdown()


def _without_request_control(ends):
    """The writes with each Request's control chunk left out."""
    return [[(kind, sizes[:1] + sizes[2:]) if kind == "Request"
             else (kind, sizes) for kind, sizes in writes]
            for writes in ends]


@pytest.mark.parametrize("scheme,payload", [
    pytest.param(scheme, payload, id=f"{scheme}-{payload}",
                 marks=[needs_shm] if scheme == "shm" else [])
    for scheme, payload in ROWS])
def test_one_geometry_whoever_observes(scheme, payload, test_api,
                                       tmp_path):
    (tmp_path / "blob.bin").write_bytes(bytes(2 * FILE_CHUNK))
    untraced, traced, distributed = (
        _writes(scheme, payload, mode, test_api, tmp_path) for mode in MODES)
    assert [len(writes) for writes in untraced] == \
        list(ROWS[scheme, payload])
    assert traced == untraced
    assert _without_request_control(distributed) == \
        _without_request_control(untraced)
    # what a distributed tracer adds is the trace context in the body
    # head of each request, and nothing else
    (grown,) = {mine[1][1] - theirs[1][1]
                for ends in zip(distributed, untraced)
                for mine, theirs in zip(*ends) if mine[0] == "Request"}
    assert grown > 0
