"""The two rules of the deposit tier's price (DESIGN.md §11, §17).

(1) The marshaller chooses the tier from the payload's size: below
``DEPOSIT_MIN_SIZE`` a zero-copy sequence rides the control message
inline and lands by one copy in a page-aligned buffer; at the constant
it is a deposit; a payload that already lives in the send arena is a
slot reference whatever its size.

(2) Over shm a message and its deposit records are one gather write,
the bytes the two-step send put on the wire, and a write that fails
gives back the slots its staging posted or claimed.
"""

import numpy as np
import pytest

from repro.cdr import get_marshaller
from repro.cdr.typecode import TC_SEQ_ZC_OCTET
from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE, DepositReceiver
from repro.giop import RequestHeader, ServiceContext
from repro.idl import compile_idl
from repro.orb import COMM_FAILURE, ORB, ORBConfig
from repro.orb.connection import GIOPConn
from repro.transport.base import TransportError
from repro.transport.shm import (_RECORD, SEND_REFERENCE, SHM_MAGIC,
                                 ShmArena, ShmStream, shm_available)
from tests.conftest import make_store_impl

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared-memory directory")
SCHEMES = ["loop", "tcp", pytest.param("shm", marks=needs_shm)]


@pytest.fixture(params=SCHEMES)
def pair(request, test_api):
    impl = make_store_impl(test_api)
    server = ORB(ORBConfig(scheme=request.param))
    client = ORB(ORBConfig(scheme=request.param, collocated_calls=False))
    stub = client.string_to_object(
        server.object_to_string(server.activate(impl)))
    stub.get_std(1)  # dial
    yield stub, impl, next(iter(client._proxies.values())).conn
    client.shutdown()
    server.shutdown()


@pytest.fixture
def wire(monkeypatch):
    """``sent``: the size in every deposit descriptor a connection puts
    into a message's service contexts; ``landed``: every buffer a
    deposit receiver hands to demarshaling."""
    sent, landed = [], []
    for_deposit, complete = ServiceContext.for_deposit, DepositReceiver.complete

    def for_deposit_spy(desc):
        sent.append(desc.size)
        return for_deposit(desc)

    def complete_spy(self, deposit_id):
        landed.append(complete(self, deposit_id))
        return landed[-1]

    monkeypatch.setattr(ServiceContext, "for_deposit", for_deposit_spy)
    monkeypatch.setattr(DepositReceiver, "complete", complete_spy)
    return sent, landed


def _pattern(n):
    return bytes(i % 256 for i in range(n))  # what Store.get(n) returns


class TestBoundary:
    def test_one_byte_under_rides_the_control_message(self, pair, wire):
        stub, impl, conn = pair
        sent, landed = wire
        n = DEPOSIT_MIN_SIZE - 1
        before = conn.stats.snapshot()
        payload = bytes(i % 251 for i in range(n))
        stub.put(ZCOctetSequence.from_data(payload))
        assert isinstance(impl.last, ZCOctetSequence)
        assert impl.last.is_page_aligned and impl.last.tobytes() == payload
        out = stub.get(n)
        assert isinstance(out, ZCOctetSequence)
        assert out.is_page_aligned and out.tobytes() == _pattern(n)
        after = conn.stats.snapshot()
        for counter in ("deposits_sent", "deposits_received", "shm_deposits",
                        "shm_fallbacks"):
            assert after[counter] == before[counter], counter
        assert not sent and not landed

    def test_at_the_constant_it_is_a_deposit(self, pair, wire):
        stub, impl, conn = pair
        sent, landed = wire
        n = DEPOSIT_MIN_SIZE
        before = conn.stats.snapshot()
        payload = bytes(i % 251 for i in range(n))
        stub.put(ZCOctetSequence.from_data(payload))
        # the servant's sequence *is* the landed buffer: no copy after it
        assert impl.last.buffer is landed[0]
        assert impl.last.is_page_aligned and impl.last.tobytes() == payload
        out = stub.get(n)
        assert out.buffer is landed[1] and out.tobytes() == _pattern(n)
        after = conn.stats.snapshot()
        assert after["deposits_sent"] == before["deposits_sent"] + 1
        assert after["deposits_received"] == before["deposits_received"] + 1
        assert sent == [n, n]  # the put's request, the get's reply

    @pytest.mark.parametrize("little", [True, False], ids=["le", "be"])
    def test_small_numeric_sequence_on_both_byte_orders(self, little):
        api = compile_idl("""
        interface Vec { sequence<zc_double> twice(in sequence<zc_double> v); };
        """, module_name="_deposit_min_vec_idl")

        class Impl(api.Vec_skel):
            def twice(self, v):
                return v * 2

        server = ORB(ORBConfig(scheme="loop", wire_little_endian=little))
        client = ORB(ORBConfig(scheme="loop", wire_little_endian=little,
                               collocated_calls=False))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            x = np.linspace(-3, 3, DEPOSIT_MIN_SIZE // 8 - 1)
            out = stub.twice(x)
            assert out.dtype == np.float64 and out.flags.aligned
            assert np.array_equal(out, x * 2)
            conn = next(iter(client._proxies.values())).conn
            assert conn.stats.deposits_sent == 0
            assert conn.stats.deposits_received == 0
        finally:
            client.shutdown()
            server.shutdown()


@needs_shm
def test_a_small_arena_resident_is_still_a_slot_reference(test_api):
    impl = make_store_impl(test_api)
    server = ORB(ORBConfig(scheme="shm"))
    client = ORB(ORBConfig(scheme="shm", collocated_calls=False))
    try:
        stub = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        stub.get_std(1)  # dial
        conn = next(iter(client._proxies.values())).conn
        channel = conn.stream.deposit_channel
        seq = ZCOctetSequence.in_arena(channel.send_arena, b"r" * 1024)
        assert seq is not None
        stub.put(seq)
        assert conn.stats.shm_references == 1
        assert conn.stats.deposits_sent == conn.stats.shm_deposits == 1
        assert impl.last.tobytes() == b"r" * 1024
    finally:
        client.shutdown()
        server.shutdown()


# -- rule (2): staging, then one gather write ----------------------------------

SLOT = DEPOSIT_MIN_SIZE  # the arena-sized payload fills a slot exactly


class _Inner:
    """What an ``ShmStream`` writes through: records every ``sendv``
    chunk list, or refuses them all."""

    def __init__(self, fail=False):
        self.batches, self.fail = [], fail

    def sendv(self, chunks):
        if self.fail:
            raise TransportError("injected: the peer is gone")
        self.batches.append([bytes(c) for c in chunks])

    def close(self):
        pass


@pytest.fixture
def arena(tmp_path):
    a = ShmArena.create(str(tmp_path), slot_size=SLOT, slot_count=4)
    yield a
    a.close()


def _send_put(conn, *payloads):
    ctx = conn.make_marshal_context()
    enc = conn.body_encoder()
    for payload in payloads:
        get_marshaller(TC_SEQ_ZC_OCTET).marshal(enc, payload, ctx)
    conn.send_message(
        RequestHeader(request_id=1, object_key=b"k", operation="put"),
        enc, ctx)


def test_two_deposits_and_their_message_are_one_write(arena):
    """One arena deposit and one over-slot inline fallback: control
    message, record, record + payload, adjacent, in one ``sendv``."""
    in_slot = ZCOctetSequence.from_data(b"\x11" * SLOT)
    oversize = ZCOctetSequence.from_data(b"\x22" * (2 * SLOT))
    plain = _Inner()
    _send_put(GIOPConn(plain), in_slot, oversize)
    (reference,) = plain.batches  # control chunks, then the two payloads
    control = b"".join(reference[:-2])

    inner = _Inner()
    stream = ShmStream(inner, "rec", send_arena=arena, recv_arena=arena)
    conn = GIOPConn(stream)
    _send_put(conn, in_slot, oversize)
    (batch,) = inner.batches
    assert b"".join(batch) == control \
        + _RECORD.pack(SHM_MAGIC, 0, 0, SLOT) \
        + _RECORD.pack(SHM_MAGIC, -1, 0, 2 * SLOT) + b"\x22" * (2 * SLOT)
    assert bytes(arena.slot_view(0, 0, SLOT)) == b"\x11" * SLOT
    assert (conn.stats.shm_deposits, conn.stats.shm_fallbacks) == (1, 1)
    # the slot was filled while marshaling: the send posts it as is
    assert conn.stats.shm_references == 1


def _record_tiers(stream):
    """The tier of every deposit ``stream`` stages, as
    ``send_deposit`` returns it."""
    tiers, send_deposit = [], stream.send_deposit

    def spy(view):
        staged = send_deposit(view)
        tiers.append(staged[0])
        return staged

    stream.send_deposit = spy
    return tiers


class TestFailedWriteGivesBackWhatItStaged:
    def test_a_posted_slot_of_the_connections_own_arena(self, arena):
        stream = ShmStream(_Inner(fail=True), "dead", send_arena=arena,
                           recv_arena=arena)
        tiers = _record_tiers(stream)
        conn = GIOPConn(stream)
        with pytest.raises(COMM_FAILURE):
            _send_put(conn, ZCOctetSequence.from_data(b"\x33" * SLOT))
        assert tiers == [SEND_REFERENCE]  # it was staged and posted
        assert arena.free_slots == arena.slot_count
        assert conn.closed and conn.stats.deposits_sent == 0

    def test_a_claimed_reference_on_a_shared_fanout_slot(self, arena):
        """Two connections write records naming one shared slot, and
        one write fails after its record took a reference: that
        reference comes back, so the creator's let-go and the other
        reader's release free the slot (it would otherwise stay POSTED
        until ``reclaim_stale``)."""
        slot, _ = arena.alloc()
        shared = arena.slot_view(slot, 0, 1024)
        shared[:] = b"\x44" * 1024
        arena.share(slot)
        free_before = arena.free_slots
        good = _Inner()
        for inner in (_Inner(fail=True), good):
            conn = GIOPConn(ShmStream(inner, "fan", send_arena=arena,
                                      recv_arena=arena,
                                      owns_send_arena=False))
            try:
                _send_put(conn, shared)
            except COMM_FAILURE:
                assert inner.fail
        assert good.batches[0][-1] == _RECORD.pack(SHM_MAGIC, slot, 0, 1024)
        assert arena.refcount(slot) == 2  # the hold and the good record
        arena.unshare(slot)
        assert arena.refcount(slot) == 1 and arena.free_slots == free_before
        arena.free(slot)  # the reader that did get its record lets go
        assert arena.free_slots == arena.slot_count


def test_staging_reports_the_tier_and_writes_nothing(arena):
    inner = _Inner()
    stream = ShmStream(inner, "stage", send_arena=arena, recv_arena=arena)
    staged = arena.acquire(1024)
    tier, waited, chunks, slot = stream.send_deposit(staged.view())
    assert (tier, waited, slot) == (SEND_REFERENCE, 0.0, 0)
    assert chunks == [_RECORD.pack(SHM_MAGIC, 0, 0, 1024)]
    assert not inner.batches
