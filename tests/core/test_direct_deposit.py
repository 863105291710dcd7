"""Tests for the direct-deposit protocol objects (§3.2, §4.4-4.5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (PAGE_SIZE, BufferPool, DepositDescriptor,
                        DepositError, DepositReceiver, DepositRegistry,
                        ZCOctetSequence)


class TestDescriptor:
    def test_round_trip(self):
        desc = DepositDescriptor(deposit_id=7, size=123456,
                                 alignment=PAGE_SIZE, flags=3)
        assert DepositDescriptor.decode(desc.encode()) == desc

    def test_bad_magic_rejected(self):
        raw = bytearray(DepositDescriptor(1, 10).encode())
        raw[0] ^= 0xFF
        with pytest.raises(DepositError):
            DepositDescriptor.decode(bytes(raw))

    def test_short_data_rejected(self):
        with pytest.raises(DepositError):
            DepositDescriptor.decode(b"\x01\x02")

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(DepositError):
            DepositDescriptor(1, 10, alignment=3000).encode()

    @given(st.integers(min_value=1, max_value=2**31),
           st.integers(min_value=0, max_value=2**40),
           st.sampled_from([1, 16, 4096, 65536]))
    def test_round_trip_property(self, dep_id, size, alignment):
        desc = DepositDescriptor(dep_id, size, alignment)
        assert DepositDescriptor.decode(desc.encode()) == desc


class TestRegistry:
    def test_register_assigns_unique_ids(self):
        reg = DepositRegistry()
        d1 = reg.register(memoryview(b"aaa"))
        d2 = reg.register(memoryview(b"bbbb"))
        assert d1.deposit_id != d2.deposit_id
        assert d1.size == 3 and d2.size == 4
        assert len(reg) == 2

    def test_drain_preserves_order_and_clears(self):
        reg = DepositRegistry()
        views = [memoryview(bytes([i]) * (i + 1)) for i in range(5)]
        ids = [reg.register(v).deposit_id for v in views]
        drained = reg.drain()
        assert [i for i, _ in drained] == ids
        assert [v.tobytes() for _, v in drained] == \
            [v.tobytes() for v in views]
        assert len(reg) == 0

    def test_pop_specific(self):
        reg = DepositRegistry()
        d = reg.register(memoryview(b"xy"))
        assert reg.pop(d.deposit_id).tobytes() == b"xy"
        with pytest.raises(DepositError):
            reg.pop(d.deposit_id)

    def test_register_passes_reference_not_copy(self):
        reg = DepositRegistry()
        storage = bytearray(b"mutable")
        reg.register(memoryview(storage))
        storage[0:1] = b"M"
        (_, view), = reg.drain()
        assert view.tobytes() == b"Mutable"  # saw the mutation: no copy


class TestReceiver:
    def test_prepare_allocates_aligned_landing_buffer(self):
        recv = DepositReceiver(BufferPool())
        desc = DepositDescriptor(1, 10000)
        buf = recv.prepare(desc)
        assert buf.length == 10000
        assert buf.address % PAGE_SIZE == 0

    def test_duplicate_prepare_rejected(self):
        recv = DepositReceiver(BufferPool())
        recv.prepare(DepositDescriptor(1, 10))
        with pytest.raises(DepositError):
            recv.prepare(DepositDescriptor(1, 10))

    def test_complete_returns_same_buffer(self):
        recv = DepositReceiver(BufferPool())
        buf = recv.prepare(DepositDescriptor(5, 100))
        assert recv.complete(5) is buf
        assert buf.length == 100
        assert recv.pending_in_order() == []  # handed off: nothing left

    def test_complete_unknown_rejected(self):
        recv = DepositReceiver(BufferPool())
        with pytest.raises(DepositError):
            recv.complete(99)

    def test_pending_in_order(self):
        recv = DepositReceiver(BufferPool())
        for i in (3, 1, 2):
            recv.prepare(DepositDescriptor(i, 10))
        assert [d.deposit_id for d, _ in recv.pending_in_order()] == [3, 1, 2]

    def test_abort_releases_buffers(self):
        pool = BufferPool()
        recv = DepositReceiver(pool)
        recv.prepare(DepositDescriptor(1, 100))
        recv.prepare(DepositDescriptor(2, 200))
        recv.abort()
        assert pool.cached_count == 2
        assert recv.pending_in_order() == []


class TestEndToEndDeposit:
    """Sender registry -> (simulated wire) -> receiver, zero ORB copies."""

    @given(st.lists(st.binary(min_size=1, max_size=5000),
                    min_size=1, max_size=8))
    def test_multi_deposit_order_and_integrity(self, payloads):
        reg = DepositRegistry()
        descs = [reg.register(memoryview(p)) for p in payloads]
        recv = DepositReceiver(BufferPool())
        for desc in descs:
            recv.prepare(desc)
        # the wire: land each payload in descriptor order
        drained = reg.drain()
        for (dep_id, view), (desc, buf) in zip(drained,
                                               recv.pending_in_order()):
            assert dep_id == desc.deposit_id
            buf.view()[:] = view
        landed = [recv.complete(d.deposit_id) for d in descs]
        for payload, buf in zip(payloads, landed):
            seq = ZCOctetSequence.adopt(buf)
            assert seq.tobytes() == payload
            assert seq.buffer is buf  # demarshal sets a reference
