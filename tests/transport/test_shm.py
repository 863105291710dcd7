"""Shared-memory transport tests: arena, deposit channel, ORB wiring."""

import gc
import threading

import pytest

from repro.core.buffers import PAGE_SIZE, BufferPool, MappedBuffer
from repro.core.direct_deposit import (DEPOSIT_MIN_SIZE, DepositDescriptor,
                                       DepositError)
from repro.transport.shm import (SEND_COPY, SEND_INLINE, SEND_REFERENCE,
                                 SEND_SHARED, SHM_MAGIC, ShmArena, ShmError,
                                 ShmStream, ShmTransport)

SIZE_64K = 64 * 1024


@pytest.fixture
def arena(tmp_path):
    a = ShmArena.create(str(tmp_path), slot_size=SIZE_64K, slot_count=4)
    yield a
    a.close()


def _stream_pair(transport):
    """A connected (client, server) ShmStream pair + their listener."""
    accepted = []
    ready = threading.Event()

    def on_accept(stream):
        accepted.append(stream)
        ready.set()

    listener = transport.listen("127.0.0.1", 0, on_accept)
    client = transport.connect(listener.endpoint)
    assert ready.wait(5), "accept did not happen"
    return client, accepted[0], listener


def _deposit(stream, view):
    """Stage ``view`` and write what staging returned, as the gather
    write of the carrying message would; ``(tier, slot_wait_s)``."""
    tier, waited, chunks, _slot = stream.send_deposit(view)
    stream.sendv(chunks)
    return tier, waited


def _recv_deposit(stream, desc, pool):
    """Read ``desc``'s record, land it, and read the payload behind an
    inline one, as the connection reading the message would;
    ``(buffer, via_arena)``."""
    record = stream.recv_exact(ShmStream.RECORD_SIZE)
    buf, via_arena = stream.recv_deposit(desc, record, pool)
    if not via_arena and desc.size:
        stream.recv_into(buf.view())
    return buf, via_arena


@pytest.fixture
def pair():
    transport = ShmTransport(slot_size=SIZE_64K, slot_count=4,
                             slot_wait=0.05)
    client, server, listener = _stream_pair(transport)
    yield client, server
    client.close()
    server.close()
    listener.close()


class TestShmArena:
    def test_create_and_attach(self, arena):
        peer = ShmArena(arena.path, arena.slot_size, arena.slot_count,
                        create=False)
        try:
            assert peer.slot_size == arena.slot_size
            assert peer.slot_count == arena.slot_count
            assert arena.free_slots == 4
        finally:
            peer.close()

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(ShmError, match="slot count"):
            ShmArena(str(tmp_path / "x"), SIZE_64K, 0, create=True)
        with pytest.raises(ShmError, match="page multiple"):
            ShmArena(str(tmp_path / "x"), 1000, 4, create=True)

    def test_attach_undersized_file_rejected(self, tmp_path, arena):
        with pytest.raises(ShmError, match="smaller"):
            ShmArena(arena.path, arena.slot_size, arena.slot_count + 10,
                     create=False)

    def test_alloc_post_free_lifecycle(self, arena):
        slot, waited = arena.alloc()
        assert slot == 0 and waited < 0.01
        assert arena.free_slots == 3
        arena.post(slot)
        assert arena.free_slots == 3  # POSTED, not FREE
        arena.free(slot)
        assert arena.free_slots == 4

    def test_alloc_exhaustion_times_out(self, arena):
        slots = [arena.alloc()[0] for _ in range(4)]
        assert None not in slots
        slot, waited = arena.alloc(timeout=0.02)
        assert slot is None
        assert waited >= 0.02

    def test_slots_are_page_aligned(self, arena):
        for slot in range(arena.slot_count):
            assert arena.slot_address(slot) % PAGE_SIZE == 0

    def test_acquire_returns_mapped_buffer(self, arena):
        buf = arena.acquire(5000)
        assert isinstance(buf, MappedBuffer)
        assert buf.length == 5000
        assert buf.is_page_aligned
        assert arena.free_slots == 3
        buf.release()
        assert arena.free_slots == 4

    def test_dropped_buffer_frees_slot_via_finalizer(self, arena):
        buf = arena.acquire(100)
        assert arena.free_slots == 3
        del buf  # application forgot release(): the finalizer frees
        gc.collect()
        assert arena.free_slots == 4

    def test_locate_owned_slot(self, arena):
        buf = arena.acquire(4096)
        loc = arena.locate(buf.view())
        assert loc is not None
        slot, offset = loc
        assert offset == 0
        buf.release()

    def test_locate_foreign_memory_is_none(self, arena):
        foreign = bytearray(4096)
        assert arena.locate(memoryview(foreign)) is None

    def test_locate_after_post_is_none(self, arena):
        """Posting transfers ownership: the view no longer locates."""
        buf = arena.acquire(4096)
        slot, _ = arena.locate(buf.view())
        arena.post(slot)
        assert arena.locate(buf.view()) is None
        buf.release()  # safe no-op after the transfer

    def test_creator_unlinks_on_close(self, tmp_path):
        import os
        a = ShmArena.create(str(tmp_path), SIZE_64K, 2)
        path = a.path
        assert os.path.exists(path)
        a.close()
        assert not os.path.exists(path)


class TestHandshake:
    def test_both_sides_get_channels(self, pair):
        client, server = pair
        assert client.deposit_channel is client
        assert server.deposit_channel is server
        assert client.send_arena is not None
        assert client.recv_arena is not None

    def test_control_plane_still_streams(self, pair):
        client, server = pair
        client.send(b"control bytes")
        assert server.recv_exact(13).tobytes() == b"control bytes"

    def test_degrades_without_arena(self, monkeypatch):
        """No arena on one side -> both degrade to plain streaming."""
        transport = ShmTransport(slot_size=SIZE_64K, slot_count=4)
        monkeypatch.setattr(ShmTransport, "_make_arena", lambda self: None)
        client, server, listener = _stream_pair(transport)
        try:
            assert client.deposit_channel is None
            assert server.deposit_channel is None
            client.send(b"plain")
            assert server.recv_exact(5).tobytes() == b"plain"
        finally:
            client.close()
            server.close()
            listener.close()


class TestDepositChannel:
    def _desc(self, size, deposit_id=1):
        return DepositDescriptor(deposit_id=deposit_id, size=size)

    def test_copy_path_round_trip(self, pair):
        client, server = pair
        payload = bytes(range(256)) * 64  # 16 KiB
        tier, _ = _deposit(client, memoryview(payload))
        assert tier == SEND_COPY
        pool = BufferPool()
        buf, via_arena = _recv_deposit(server, self._desc(len(payload)), pool)
        assert via_arena
        assert buf.tobytes() == payload
        assert buf.is_page_aligned
        # releasing the landed buffer returns the slot to the sender
        free_before = client.send_arena.free_slots
        buf.release()
        assert client.send_arena.free_slots == free_before + 1

    def test_reference_path_zero_copy(self, pair):
        """A payload already living in the arena is sent by reference."""
        client, server = pair
        staged = client.send_arena.acquire(8192)
        staged.view()[:] = b"\xa5" * 8192
        tier, _ = _deposit(client, staged.view())
        assert tier == SEND_REFERENCE
        buf, via_arena = _recv_deposit(server, self._desc(8192), BufferPool())
        assert via_arena
        assert buf.tobytes() == b"\xa5" * 8192
        staged.release()  # ownership moved: a safe no-op
        buf.release()

    def test_oversize_payload_falls_back_inline(self, pair):
        client, server = pair
        payload = bytes(2 * SIZE_64K)  # larger than any slot
        tier, _ = _deposit(client, memoryview(payload))
        assert tier == SEND_INLINE
        buf, via_arena = _recv_deposit(server, self._desc(len(payload)),
                                       BufferPool())
        assert not via_arena
        assert buf.tobytes() == payload
        buf.release()

    def test_slot_exhaustion_falls_back_then_recovers(self, pair):
        """Receiver holding every slot forces the inline path for the
        next deposit; freeing a slot restores the arena path."""
        client, server = pair
        client.slot_wait = 0.01
        pool = BufferPool()
        payload = b"\x42" * 1024
        held = []
        for i in range(4):  # consume all 4 slots
            _deposit(client, memoryview(payload))
            buf, via = _recv_deposit(server, self._desc(1024, i + 1), pool)
            assert via
            held.append(buf)
        tier, waited = _deposit(client, memoryview(payload))
        assert tier == SEND_INLINE  # exhausted -> inline
        assert waited > 0.0
        buf, via = _recv_deposit(server, self._desc(1024, 5), pool)
        assert not via
        assert buf.tobytes() == payload
        buf.release()
        held.pop().release()  # free one slot
        used_arena, _ = _deposit(client, memoryview(payload))
        assert used_arena  # arena path is back
        buf, via = _recv_deposit(server, self._desc(1024, 6), pool)
        assert via
        buf.release()
        for b in held:
            b.release()

    def test_record_size_mismatch_rejected(self, pair):
        client, server = pair
        _deposit(client, memoryview(b"x" * 100))
        with pytest.raises(DepositError, match="size"):
            _recv_deposit(server, self._desc(999), BufferPool())

    def test_bad_record_magic_rejected(self, pair):
        import struct
        client, server = pair
        client.send(struct.pack("<IiQQ", SHM_MAGIC ^ 0xFF, 0, 0, 16))
        with pytest.raises(DepositError, match="magic"):
            _recv_deposit(server, self._desc(16), BufferPool())

    def test_out_of_range_slot_rejected(self, pair):
        import struct
        client, server = pair
        client.send(struct.pack("<IiQQ", SHM_MAGIC, 99, 0, 16))
        with pytest.raises(DepositError, match="geometry"):
            _recv_deposit(server, self._desc(16), BufferPool())


    def test_record_naming_a_slot_nobody_posted_rejected(self, pair):
        """Inside the geometry is not enough: mapping a FREE or OWNED
        slot would alias bytes the sender is about to write.  Refused
        like any bad descriptor, and the slot's state is left alone."""
        import struct
        client, server = pair
        owned = client.send_arena.acquire(16)  # slot 0: OWNED, never posted
        for slot in (0, 1):  # OWNED, FREE
            client.send(struct.pack("<IiQQ", SHM_MAGIC, slot, 0, 16))
            with pytest.raises(DepositError, match="not posted"):
                _recv_deposit(server, self._desc(16), BufferPool())
        assert client.send_arena.free_slots == 3
        owned.release()
        assert client.send_arena.free_slots == 4


class TestShmORB:
    def _orbs(self, **server_kw):
        from repro.orb import ORB, ORBConfig
        server = ORB(ORBConfig(scheme="shm", **server_kw))
        client = ORB(ORBConfig(scheme="shm", collocated_calls=False))
        return server, client

    def test_zero_copy_call_uses_arena(self):
        from repro.apps.ttcp import _TTCPServant, _ttcp_api
        from repro.core import ZCOctetSequence
        _ttcp_api()
        server, client = self._orbs()
        try:
            ref = server.activate(_TTCPServant())
            stub = client.string_to_object(server.object_to_string(ref))
            data = bytes(range(256)) * 1024  # 256 KiB
            assert stub.send_zc(ZCOctetSequence.from_data(data)) == len(data)
            proxy = next(iter(client._proxies.values()))
            assert proxy.conn.stats.shm_deposits >= 1
            assert proxy.conn.stats.shm_fallbacks == 0
            assert isinstance(proxy.conn.stream, ShmStream)
        finally:
            client.shutdown()
            server.shutdown()

    def test_shm_metrics_flow_through_obs(self):
        from repro.apps.ttcp import _TTCPServant, _ttcp_api
        from repro.core import ZCOctetSequence
        from repro.obs import MetricsRegistry
        _ttcp_api()
        server, client = self._orbs()
        reg = MetricsRegistry()
        server.metrics = reg
        client.metrics = reg
        try:
            ref = server.activate(_TTCPServant())
            stub = client.string_to_object(server.object_to_string(ref))
            stub.send_zc(ZCOctetSequence.from_data(bytes(DEPOSIT_MIN_SIZE)))
            sent = reg.counter("shm_deposits_total", op="send").value
            landed = reg.counter("shm_deposits_total", op="recv").value
            assert sent >= 1
            assert landed >= 1
            assert reg.counter("shm_fallbacks_total", op="send").value == 0
        finally:
            client.shutdown()
            server.shutdown()

    def test_multi_profile_ior_prefers_shm(self):
        """A tcp server also advertising shm gets shm from a colocated
        client; the IOR still resolves over plain tcp elsewhere."""
        from repro.apps.ttcp import _TTCPServant, _ttcp_api
        from repro.orb import ORB, ORBConfig
        _ttcp_api()
        server = ORB(ORBConfig(scheme="tcp", extra_schemes=("shm",)))
        client = ORB(ORBConfig(scheme="tcp", collocated_calls=False))
        try:
            ref = server.activate(_TTCPServant())
            ior = ref.ior
            schemes = [p.scheme for p in ior.iiop_profiles()]
            assert schemes == ["tcp", "shm"]
            picked = client.select_profile(ior)
            assert picked.scheme == "shm"
        finally:
            client.shutdown()
            server.shutdown()


class TestRefcountedSlots:
    """The v2 arena protocol: POSTED slots carry a reader refcount."""

    def test_plain_post_has_refcount_one(self, arena):
        slot, _ = arena.alloc()
        arena.post(slot)
        assert arena.refcount(slot) == 1
        arena.free(slot)
        assert arena.refcount(slot) == 0
        assert arena.free_slots == 4

    def test_shared_post_frees_on_last_release(self, arena):
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=3)
        assert arena.refcount(slot) == 3
        assert arena.free_slots == 3
        arena.free(slot)
        arena.free(slot)
        assert arena.free_slots == 3  # two of three readers released
        assert arena.refcount(slot) == 1
        arena.free(slot)  # last reader
        assert arena.free_slots == 4
        assert arena.refcount(slot) == 0

    def test_post_shared_validates_reader_count(self, arena):
        slot, _ = arena.alloc()
        with pytest.raises(ValueError, match="readers"):
            arena.post_shared(slot, readers=0)
        with pytest.raises(ValueError, match="readers"):
            arena.post_shared(slot, readers=256)
        arena.post_shared(slot, readers=255)  # the protocol ceiling
        assert arena.refcount(slot) == 255

    def test_take_shared_ref_drains_the_plan(self, arena):
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=2)
        assert arena.shared_pending(slot) == 2
        assert arena.take_shared_ref(slot)
        assert arena.take_shared_ref(slot)
        assert arena.shared_pending(slot) == 0
        assert not arena.take_shared_ref(slot)  # plan exhausted

    def test_abort_shared_ref_releases_the_planned_reader(self, arena):
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=2)
        arena.abort_shared_ref(slot)  # one planned send failed
        assert arena.refcount(slot) == 1
        arena.free(slot)  # the surviving reader releases
        assert arena.free_slots == 4

    def test_refcount_survives_peer_attach(self, arena):
        """The refcount lives in the mapped header, so an attaching
        peer sees and decrements the same byte."""
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=2)
        peer = ShmArena(arena.path, arena.slot_size, arena.slot_count,
                        create=False)
        try:
            assert peer.refcount(slot) == 2
            peer.free(slot)
            assert arena.refcount(slot) == 1
            arena.free(slot)
            assert peer.free_slots == 4
        finally:
            peer.close()

    def test_alloc_voids_stale_fanout_plan(self, arena):
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=2)
        arena.free(slot)
        arena.free(slot)  # slot fully released, plan never drained
        got, _ = arena.alloc()
        assert got == slot  # lowest free slot is reused
        assert arena.shared_pending(slot) == 0
        assert not arena.take_shared_ref(slot)

    def test_reclaim_stale_force_frees_posted_slots(self, arena):
        slot, _ = arena.alloc()
        arena.post_shared(slot, readers=5)  # readers that died mid-read
        assert arena.reclaim_stale(max_age=3600.0) == 0  # too young
        assert arena.reclaim_stale(max_age=0.0) == 1
        assert arena.free_slots == 4
        assert arena.refcount(slot) == 0
        assert arena.stale_reclaims == 1

    def test_reclaim_stale_skips_live_owned_slots(self, arena):
        buf = arena.acquire(1024)
        assert arena.reclaim_stale(max_age=0.0) == 0
        assert arena.free_slots == 3
        buf.release()

    def test_locate_matches_shared_posted_slot(self, arena):
        """marshal's stage_in_arena passes shared-posted views through
        untouched because locate() still claims them."""
        buf = arena.acquire(4096)
        view = buf.view()
        slot, _ = arena.locate(view)
        arena.post_shared(slot, readers=2)
        assert arena.locate(view) == (slot, 0)
        arena.take_shared_ref(slot)
        arena.take_shared_ref(slot)
        assert arena.locate(view) is None  # plan drained: sends are done
        arena.free(slot)
        arena.free(slot)


class TestSharedArenaFanout:
    """One ShmTransport in shared-send mode: every outbound connection
    advertises the same send arena, so one posted slot serves N links."""

    @pytest.fixture
    def fanout(self):
        transport = ShmTransport(slot_size=SIZE_64K, slot_count=4,
                                 slot_wait=0.05, shared_send_arena=True)
        c1, s1, l1 = _stream_pair(transport)
        c2, s2, l2 = _stream_pair(transport)
        yield transport, (c1, s1), (c2, s2)
        for s in (c1, s1, c2, s2):
            s.close()
        l1.close()
        l2.close()
        transport.close()

    def test_connections_share_one_send_arena(self, fanout):
        transport, (c1, _), (c2, _) = fanout
        assert c1.send_arena is not None
        assert c1.send_arena is c2.send_arena
        assert c1.send_arena is transport.shared_arena

    def test_one_post_fans_out_to_two_links(self, fanout):
        transport, (c1, s1), (c2, s2) = fanout
        arena = transport.shared_arena
        payload = b"\x5a" * 8192
        staged = arena.acquire(len(payload))
        staged.view()[:] = payload
        slot, _ = arena.locate(staged.view())
        arena.post_shared(slot, readers=2)
        assert arena.used_slots == 1

        desc = DepositDescriptor(deposit_id=1, size=len(payload))
        pool = BufferPool()
        tiers = []
        for sender in (c1, c2):
            tier, _ = _deposit(sender, staged.view())
            tiers.append(tier)
        # each link's share of the payload is one record
        assert tiers == [SEND_SHARED, SEND_SHARED]

        bufs = []
        for receiver in (s1, s2):
            buf, via = _recv_deposit(receiver, desc, pool)
            assert via
            assert buf.tobytes() == payload
            bufs.append(buf)
        assert arena.used_slots == 1  # both map the same slot
        bufs[0].release()
        assert arena.used_slots == 1  # one reader still holds it
        bufs[1].release()
        assert arena.used_slots == 0  # last release frees the slot

    def test_dropped_buffer_releases_via_finalizer(self, fanout):
        """A receiver that dies mid-read drops its MappedBuffer; the
        finalizer must still decrement the slot's refcount."""
        transport, (c1, s1), (c2, s2) = fanout
        arena = transport.shared_arena
        staged = arena.acquire(1024)
        slot, _ = arena.locate(staged.view())
        arena.post_shared(slot, readers=2)
        for sender in (c1, c2):
            _deposit(sender, staged.view())
        desc = DepositDescriptor(deposit_id=1, size=1024)
        pool = BufferPool()
        buf1, _ = _recv_deposit(s1, desc, pool)
        buf2, _ = _recv_deposit(s2, desc, pool)
        buf1.release()
        del buf2  # never released explicitly — crashed reader
        gc.collect()
        assert arena.used_slots == 0

    def test_failed_send_is_compensated(self, fanout):
        """abort_shared_ref() stands in for a reader whose send failed
        before its record left, so the slot still drains to FREE."""
        transport, (c1, s1), _ = fanout
        arena = transport.shared_arena
        staged = arena.acquire(1024)
        slot, _ = arena.locate(staged.view())
        arena.post_shared(slot, readers=2)
        _deposit(c1, staged.view())  # reader 1 sent
        arena.abort_shared_ref(slot)    # reader 2's send failed
        buf, _ = _recv_deposit(s1, DepositDescriptor(deposit_id=1, size=1024),
                               BufferPool())
        buf.release()
        assert arena.used_slots == 0

    def test_exhausted_plan_degrades_to_copy(self, fanout):
        """With the fan-out plan drained, a further send of the same
        view must not re-post the shared slot it doesn't own."""
        transport, (c1, s1), (c2, s2) = fanout
        from repro.transport.shm import SEND_COPY
        arena = transport.shared_arena
        staged = arena.acquire(1024)
        staged.view()[:] = b"\x11" * 1024
        slot, _ = arena.locate(staged.view())
        arena.post_shared(slot, readers=1)  # plan covers only c1
        tier1, _ = _deposit(c1, staged.view())
        tier2, _ = _deposit(c2, staged.view())
        assert tier2 == SEND_COPY  # fresh slot, not a stolen reference
        desc = DepositDescriptor(deposit_id=1, size=1024)
        pool = BufferPool()
        b1, _ = _recv_deposit(s1, desc, pool)
        b2, _ = _recv_deposit(s2, desc, pool)
        assert b1.tobytes() == b2.tobytes() == b"\x11" * 1024
        b1.release()
        b2.release()
        assert arena.used_slots == 0

    def test_stream_close_leaves_shared_arena_open(self, fanout):
        transport, (c1, s1), (c2, _) = fanout
        c1.close()
        s1.close()
        assert not transport.shared_arena.closed
        assert c2.send_arena is transport.shared_arena
        transport.close()
        assert transport.shared_arena is None or \
            transport.shared_arena.closed

    def test_private_mode_still_owns_per_connection_arenas(self):
        """The default (non-shared) transport is unchanged: each
        connection owns its arena and closes it with the stream."""
        transport = ShmTransport(slot_size=SIZE_64K, slot_count=4)
        client, server, listener = _stream_pair(transport)
        try:
            assert transport.shared_arena is None
            assert client.owns_send_arena
            arena = client.send_arena
            client.close()
            assert arena.closed
        finally:
            server.close()
            listener.close()
