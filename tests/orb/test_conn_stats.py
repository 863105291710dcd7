"""Regression tests for ConnStats wire accounting and deposit cleanup.

Four bugs the overhead-breakdown tracing work exposed:

1. ``bytes_received`` double-counted reassembled fragments (each
   fragment's payload counted once per frame *and* once in the
   reassembled control-message size);
2. ``bytes_sent`` undercounted fragmented sends (a single
   ``GIOP_HEADER_SIZE`` even when ``_frame`` emitted N fragment
   headers);
3. a ``DepositError`` from ``DepositReceiver.prepare`` (duplicate
   descriptor id on the wire) escaped the transport-error handling,
   leaking the already-prepared pool buffer and leaving the
   connection open but byte-desynchronized;
4. a ``GIOPError`` during fragment reassembly propagated with the
   connection still open, though the stream position is undefined.

Ground truth for 1/2 is the loopback stream's own transport-level
byte counters: whatever the wire moved is what ConnStats must report.
"""

import itertools

import pytest

from repro.cdr import get_marshaller
from repro.cdr.typecode import TC_SEQ_OCTET, TC_SEQ_ZC_OCTET
from repro.core import OctetSequence, ZCOctetSequence
from repro.core.buffers import BufferPool
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.giop import GIOPError, GIOPHeader, MsgType, RequestHeader
from repro.orb.connection import GIOPConn
from repro.orb.exceptions import MARSHAL
from repro.transport import LoopbackTransport

_ids = itertools.count(1)


def _conn_pair(**sender_kw):
    """A raw client/server GIOPConn pair over one loopback stream."""
    transport = LoopbackTransport()
    accepted = []
    listener = transport.listen(f"stats-{next(_ids)}", 0, accepted.append)
    client_stream = transport.connect(listener.endpoint)
    listener.close()
    sender = GIOPConn(client_stream, **sender_kw)
    receiver_kw = {}
    if "pool" in sender_kw:
        receiver_kw["pool"] = sender_kw["pool"]
    receiver = GIOPConn(accepted[0], **receiver_kw)
    return sender, receiver, client_stream, accepted[0]


def _send_request(sender, data, zero_copy, request_id=1):
    tc = TC_SEQ_ZC_OCTET if zero_copy else TC_SEQ_OCTET
    value = (ZCOctetSequence.from_data(data) if zero_copy
             else OctetSequence(data))
    ctx = sender.make_marshal_context()
    enc = sender.body_encoder()
    get_marshaller(tc).marshal(enc, value, ctx)
    sender.send_message(
        RequestHeader(request_id=request_id, object_key=b"obj",
                      operation="put"),
        enc.getvalue(), ctx)
    return ctx


@pytest.mark.parametrize("fragment_size", [0, 100, 4096])
def test_send_recv_stats_agree_with_the_wire(fragment_size):
    """bytes_sent == stream truth == bytes_received, at any
    fragmentation threshold (bugs 1 and 2)."""
    sender, receiver, cstream, sstream = _conn_pair(
        fragment_size=fragment_size)
    _send_request(sender, b"\x5a" * 3000, zero_copy=False)
    rm = receiver.read_message()
    assert rm.header.msg_type is MsgType.Request

    # the loopback stream counts exactly what crossed the "wire"
    assert sender.stats.bytes_sent == cstream.bytes_sent
    assert receiver.stats.bytes_received == sstream.bytes_received
    assert sender.stats.bytes_sent == receiver.stats.bytes_received
    if fragment_size == 100:
        # N frames -> N GIOP headers must all be accounted for
        assert sender.stats.bytes_sent > 3000 + 12 * 20


def test_fragmented_zero_copy_round_trip_stats_balance():
    """Control and data path accounting split cleanly: control bytes in
    bytes_sent/received, payload bytes in the deposit counters, and
    their sums match the transport-level truth."""
    sender, receiver, cstream, sstream = _conn_pair(fragment_size=128)
    payload = bytes(range(256)) * (DEPOSIT_MIN_SIZE // 256)  # data path
    _send_request(sender, payload, zero_copy=True)
    rm = receiver.read_message()

    assert sender.stats.deposit_bytes_sent == len(payload)
    assert receiver.stats.deposit_bytes_received == len(payload)
    assert sender.stats.bytes_sent == receiver.stats.bytes_received
    assert sender.stats.bytes_sent + len(payload) == cstream.bytes_sent
    assert receiver.stats.bytes_received + len(payload) == \
        sstream.bytes_received
    (buf,) = rm.deposits.values()
    assert buf.tobytes() == payload


def test_duplicate_deposit_descriptor_aborts_without_leaking(test_api):
    """A duplicate deposit id on the wire is a protocol violation: the
    receiver must return the prepared buffer to the pool, close the
    connection, and surface MARSHAL — not leak and stay open (bug 3)."""
    pool = BufferPool()
    sender, receiver, _, _ = _conn_pair(pool=pool)
    ctx = sender.make_marshal_context()
    enc = sender.body_encoder()
    get_marshaller(TC_SEQ_ZC_OCTET).marshal(
        enc, ZCOctetSequence.from_data(b"q" * DEPOSIT_MIN_SIZE), ctx)
    # corrupt the control message: the same descriptor rides twice
    ctx.descriptors.append(ctx.descriptors[0])
    sender.send_message(
        RequestHeader(request_id=1, object_key=b"obj", operation="put"),
        enc.getvalue(), ctx)

    assert pool.cached_count == 0
    with pytest.raises(MARSHAL):
        receiver.read_message()
    assert receiver.closed
    # the one buffer prepare() acquired went back to the pool
    assert pool.cached_count == 1


def test_reassembly_error_closes_the_connection():
    """A non-Fragment continuation desynchronizes the byte stream; the
    connection must be marked closed before the error propagates, so
    no caller can keep reading garbage from it (bug 4)."""
    transport = LoopbackTransport()
    accepted = []
    listener = transport.listen(f"stats-{next(_ids)}", 0, accepted.append)
    stream = transport.connect(listener.endpoint)
    listener.close()
    receiver = GIOPConn(accepted[0])

    first = GIOPHeader(msg_type=MsgType.Request, size=16,
                       more_fragments=True)
    rogue = GIOPHeader(msg_type=MsgType.Request, size=16)  # not Fragment
    stream.sendv([first.encode(), b"\x00" * 16,
                  rogue.encode(), b"\x00" * 16])
    with pytest.raises(GIOPError):
        receiver.read_message()
    assert receiver.closed


class TestStatsSnapshot:
    """ConnStats.snapshot(): a consistent copy under the owning lock."""

    def test_snapshot_copies_every_counter_and_no_lock(self):
        from repro.orb.connection import ConnStats

        stats = ConnStats()
        stats.messages_sent = 3
        stats.shm_deposits = 2
        snap = stats.snapshot()
        assert snap["messages_sent"] == 3
        assert snap["shm_deposits"] == 2
        assert "owner_lock" not in snap
        assert set(snap) == set(ConnStats._COUNTER_FIELDS)
        # a snapshot is a copy, not a view
        stats.messages_sent = 9
        assert snap["messages_sent"] == 3

    def test_conn_adopts_stats_under_its_send_lock(self):
        sender, receiver, *_ = _conn_pair()
        assert sender.stats.owner_lock is sender._send_lock
        # adopting replacement stats rebinds the lock (proxy reconnect)
        from repro.orb.connection import ConnStats

        replacement = ConnStats()
        sender.adopt_stats(replacement)
        assert sender.stats is replacement
        assert replacement.owner_lock is sender._send_lock
        snap = receiver.stats.snapshot()
        assert snap["messages_received"] == 0
