"""TopicHub tests: single-copy shm fan-out, cohorts, lifecycle."""

import time

import pytest

from repro.core import ZCOctetSequence
from repro.orb import ORB, ORBConfig
from repro.services import (CollectingSubscriber, CountingSubscriber,
                            TopicHubImpl, decode_event, encode_event,
                            pubsub_api)
from repro.transport.shm import shm_available

SIZE_64K = 64 * 1024


def _wait(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return cond()


class _Fleet:
    """Subscriber servants on their own server ORBs + teardown."""

    def __init__(self):
        self.orbs = []

    def subscriber(self, scheme="shm", impl_factory=CollectingSubscriber):
        orb = ORB(ORBConfig(scheme=scheme))
        impl = impl_factory()
        ref = orb.activate(impl)
        self.orbs.append(orb)
        return orb, impl, ref

    def close(self):
        for orb in self.orbs:
            orb.shutdown()


@pytest.fixture
def fleet():
    f = _Fleet()
    yield f
    f.close()


@pytest.fixture
def hub():
    h = TopicHubImpl(slot_size=SIZE_64K, slot_count=8, slot_wait=0.05,
                     stale_after=0.5)
    yield h
    h.destroy()


needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared-memory directory")


@needs_shm
class TestFanout:
    def test_one_post_serves_every_subscriber(self, hub, fleet):
        """The acceptance property: N colocated subscribers, ONE arena
        deposit per published event."""
        subs = [fleet.subscriber() for _ in range(4)]
        for _, _, ref in subs:
            hub.subscribe("video", ref)
        assert hub.n_subscribers("video") == 4

        payload = bytes(range(256)) * 64  # 16 KiB
        for _ in range(3):
            assert hub.publish("video", payload) == 4
        assert _wait(lambda: all(i.received == 3 for _, i, _r in subs))
        for _, impl, _ in subs:
            topic, seq, data = impl.pop()
            assert (topic, seq, data) == ("video", 1, payload)

        arena = hub.shm_transport.shared_arena
        assert hub.fanout_posts == 3
        assert arena.shared_posts == 3
        assert arena.posts == 3  # one slot write per event, not per sub
        shared_refs = sum(s["shm_shared_refs"]
                          for s in hub.delivery_orb.connections_snapshot())
        assert shared_refs == 12  # 3 events x 4 record-only sends
        # every reader released: the arena drains back to baseline
        assert _wait(lambda: arena.used_slots == 0)
        assert arena.free_slots == arena.slot_count

    def test_small_events_keep_the_shared_slot(self, hub, fleet):
        """Far below ``DEPOSIT_MIN_SIZE`` an event staged in the shared
        arena is still one post and a record-only reference per reader:
        a payload that lives in the arena keeps its tier."""
        (_, a, r1), (_, b, r2) = fleet.subscriber(), fleet.subscriber()
        hub.subscribe("small", r1)
        hub.subscribe("small", r2)
        for k in range(3):
            assert hub.publish("small", bytes([k]) * 1024) == 2
        assert _wait(lambda: a.received == b.received == 3)
        assert a.pop()[2] == b.pop()[2] == b"\x00" * 1024
        assert hub.fanout_posts == 3
        assert hub.shm_transport.shared_arena.posts == 3
        assert sum(s["shm_shared_refs"] for s in
                   hub.delivery_orb.connections_snapshot()) == 6

    def test_mixed_cohorts_share_one_topic(self, hub, fleet):
        """shm subscribers fan out through the arena; a tcp subscriber
        rides its own per-link deposit — same topic, same publish."""
        _, shm1, r1 = fleet.subscriber()
        _, shm2, r2 = fleet.subscriber()
        _, far, r3 = fleet.subscriber(scheme="tcp")
        for ref in (r1, r2, r3):
            hub.subscribe("mix", ref)
        payload = b"\x3c" * 8192
        assert hub.publish("mix", payload) == 3
        assert _wait(lambda: shm1.received == shm2.received
                     == far.received == 1)
        assert far.pop()[2] == payload
        assert hub.fanout_posts == 1  # posted for the 2-reader cohort
        assert hub.shm_transport.shared_arena.shared_posts == 1

    def test_duplicate_subscribe_dedupes_on_identity(self, hub, fleet):
        sub_orb, impl, ref = fleet.subscriber()
        hub.subscribe("t", ref)
        hub.subscribe("t", ref)
        assert hub.n_subscribers("t") == 1
        hub.publish("t", b"x" * 64)
        assert _wait(lambda: impl.received == 1)

    def test_unsubscribe(self, hub, fleet):
        _, impl, ref = fleet.subscriber()
        hub.subscribe("t", ref)
        hub.unsubscribe("t", ref)
        assert hub.n_subscribers("t") == 0
        assert hub.publish("t", b"y" * 64) == 0
        assert impl.received == 0


@needs_shm
class TestBackpressure:
    def test_arena_full_degrades_to_per_link(self, hub, fleet):
        """A slow subscriber pinning every slot must not wedge
        publishing: the hub degrades to per-link deposits and the
        arena occupancy stays bounded by the slot count."""
        _, impl, ref = fleet.subscriber()
        hub.subscribe("slow", ref)
        arena = hub.shm_transport.shared_arena
        held = [arena.acquire(1024) for _ in range(arena.slot_count)]
        try:
            assert arena.free_slots == 0
            assert hub.publish("slow", b"\x7e" * 4096) == 1
            assert hub.fanout_fallbacks == 1
            assert hub.fanout_posts == 0
            assert arena.used_slots <= arena.slot_count
            assert _wait(lambda: impl.received == 1)
            assert impl.pop()[2] == b"\x7e" * 4096
        finally:
            for b in held:
                b.release()
        # slots released: the single-copy path comes straight back
        assert hub.publish("slow", b"\x7e" * 4096) == 1
        assert hub.fanout_posts == 1

    def test_stale_reclaim_unwedges_a_dead_reader(self, hub, fleet):
        """Slots POSTED to a reader that died mid-read are force-freed
        by the creator once stale_after passes — a crashed subscriber
        cannot leak the arena dry."""
        _, impl, ref = fleet.subscriber()
        hub.subscribe("crash", ref)
        arena = hub.shm_transport.shared_arena
        # simulate readers that took the slots down with them
        for _ in range(arena.slot_count):
            slot, _ = arena.alloc()
            arena.post_shared(slot, readers=1)
        assert arena.free_slots == 0
        time.sleep(hub.stale_after + 0.05)
        assert hub.publish("crash", b"\x99" * 2048) == 1
        assert hub.fanout_posts == 1  # reclaim made room: no fallback
        assert hub.fanout_fallbacks == 0
        assert arena.stale_reclaims >= 1
        assert _wait(lambda: impl.received == 1)


@needs_shm
class TestEviction:
    def test_dead_subscriber_is_evicted_without_leaking_slots(
            self, hub, fleet):
        doomed_orb, doomed, r1 = fleet.subscriber()
        _, alive, r2 = fleet.subscriber()
        hub.subscribe("t", r1)
        hub.subscribe("t", r2)
        doomed_orb.shutdown()
        delivered = hub.publish("t", b"\x42" * 4096)
        assert delivered == 1
        assert _wait(lambda: alive.received == 1)
        assert hub.subscribers_evicted == 1
        assert hub.n_subscribers("t") == 1
        st = hub.stats("t")
        assert st.dropped == 1
        assert st.delivered == 1
        # the dead reader's planned ref was compensated: no slot leaks
        arena = hub.shm_transport.shared_arena
        assert _wait(lambda: arena.used_slots == 0)


@needs_shm
class TestLifecycleAndStats:
    def test_destroy_closes_the_hub(self, fleet):
        api = pubsub_api()
        hub = TopicHubImpl(slot_size=SIZE_64K, slot_count=4)
        _, _, ref = fleet.subscriber()
        hub.subscribe("t", ref)
        hub.destroy()
        with pytest.raises(api.PubSub_HubClosed):
            hub.publish("t", b"x")
        with pytest.raises(api.PubSub_HubClosed):
            hub.subscribe("t", ref)
        hub.destroy()  # idempotent

    def test_stats_unknown_topic_raises(self, hub):
        api = pubsub_api()
        with pytest.raises(api.PubSub_NoSuchTopic):
            hub.stats("never-published")

    def test_publish_without_subscribers_is_a_noop(self, hub):
        assert hub.publish("empty", b"z" * 128) == 0
        assert hub.fanout_posts == 0


class TestTypedEvents:
    def test_round_trip_through_a_compiled_struct(self):
        api = pubsub_api()
        value = api.PubSub_TopicStats(topic="enc", subscribers=3,
                                      published=10, delivered=30, dropped=1)
        payload = encode_event(api.PubSub_TopicStats, value)
        out = decode_event(api.PubSub_TopicStats, payload)
        assert out == value

    def test_decode_accepts_memoryview(self):
        api = pubsub_api()
        value = api.PubSub_TopicStats(topic="mv", subscribers=0,
                                      published=0, delivered=0, dropped=0)
        payload = memoryview(encode_event(api.PubSub_TopicStats, value))
        assert decode_event(api.PubSub_TopicStats, payload) == value

    def test_empty_payload_rejected(self):
        api = pubsub_api()
        with pytest.raises(ValueError, match="empty"):
            decode_event(api.PubSub_TopicStats, b"")

    @needs_shm
    def test_typed_event_over_the_hub(self):
        api = pubsub_api()
        hub = TopicHubImpl(slot_size=SIZE_64K, slot_count=4)
        fleet = _Fleet()
        try:
            _, impl, ref = fleet.subscriber()
            hub.subscribe("typed", ref)
            value = api.PubSub_TopicStats(topic="typed", subscribers=1,
                                          published=1, delivered=1,
                                          dropped=0)
            hub.publish("typed", encode_event(api.PubSub_TopicStats, value))
            assert _wait(lambda: impl.received == 1)
            _, _, data = impl.pop()
            assert decode_event(api.PubSub_TopicStats, data) == value
        finally:
            hub.destroy()
            fleet.close()


@needs_shm
class TestHubOverTheWire:
    """The hub as an ordinary CORBA object: publisher talks to it
    through a stub on another ORB, like any supplier would."""

    def test_publish_through_a_stub(self, fleet):
        hub_impl = TopicHubImpl(slot_size=SIZE_64K, slot_count=8)
        host_orb = ORB(ORBConfig(scheme="loop"))
        supp_orb = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            hub_ref = host_orb.activate(hub_impl)
            hub = supp_orb.string_to_object(
                host_orb.object_to_string(hub_ref))
            subs = [fleet.subscriber() for _ in range(2)]
            for _, _, ref in subs:
                hub_impl.subscribe("wire", ref)
            payload = bytes(range(256)) * 32  # 8 KiB
            assert hub.publish(
                "wire", ZCOctetSequence.from_data(payload)) == 2
            assert _wait(lambda: all(i.received == 1 for _, i, _r in subs))
            st = hub.stats("wire")
            assert (st.subscribers, st.published, st.delivered) == (2, 1, 2)
            assert hub_impl.fanout_posts == 1
        finally:
            supp_orb.shutdown()
            host_orb.shutdown()
            hub_impl.destroy()
