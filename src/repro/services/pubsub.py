"""Topic-based pub/sub with single-copy shared-memory fan-out.

The Event Channel (:mod:`repro.services.events`) fans a payload out by
*reference* within one process, but across connections it still
re-deposits the same bytes once per consumer — fan-out scales copies
linearly with subscribers, exactly what the paper's one-crossing
discipline forbids.  This service closes that gap: the ``TopicHub``
keeps per-topic subscriber registries and delivers through its own
*delivery ORB* whose shm transport gives every subscriber connection
the same send arena.  A published payload is written into one arena
slot, shared with :meth:`~repro.transport.shm.ShmArena.share` (the
hub's own reference while it delivers), and every colocated
subscriber's connection sends only a 24-byte record naming that slot,
taking one reference as it writes it — the payload crosses once no
matter how many subscribers map it, and the slot frees at the last
release, the hub's :meth:`~repro.transport.shm.ShmArena.unshare`
included (an ordinary reference count, crash-safe via the
``MappedBuffer`` finalizer plus the creator's stale-slot reclaim).

Subscribers that cannot share the arena — remote processes, tcp-only
ORBs — degrade per link: each gets an ordinary direct deposit on its
own connection, and a connection whose handshake did not yield the
shared arena copies by itself at send time.  Both kinds coexist on
one topic and are delivered in one loop.

Typed events ride on the IDL compiler: any compiled struct (or raw
TypeCode) encapsulates into the octet payload with
:func:`encode_event` / :func:`decode_event`, so suppliers and
consumers exchange typed values while the hub stays payload-agnostic.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..cdr import CDRDecoder, CDREncoder, get_marshaller
from ..idl import compile_idl
from ..orb import ORB, ORBConfig
from ..orb.exceptions import SystemException
from ..transport.base import registry as transport_registry
from ..transport.shm import ShmTransport

__all__ = ["PUBSUB_IDL", "pubsub_api", "TopicHubImpl",
           "CollectingSubscriber", "CountingSubscriber",
           "encode_event", "decode_event"]

PUBSUB_IDL = """
module PubSub {
    exception HubClosed { string why; };
    exception NoSuchTopic { string topic; };

    struct TopicStats {
        string topic;
        unsigned long subscribers;
        unsigned long long published;
        unsigned long long delivered;
        // deliveries lost to evicted (dead) subscribers
        unsigned long long dropped;
    };

    // implemented by subscribers; the hub calls back into these
    interface Subscriber {
        oneway void deliver(in string topic, in unsigned long long seq,
                            in sequence<zc_octet> payload);
    };

    interface TopicHub {
        void subscribe(in string topic, in Subscriber sub)
            raises (HubClosed);
        void unsubscribe(in string topic, in Subscriber sub);
        // supplier side: one publish fans out to every subscriber;
        // returns the number of deliveries attempted successfully
        unsigned long publish(in string topic,
                              in sequence<zc_octet> payload)
            raises (HubClosed);
        TopicStats stats(in string topic) raises (NoSuchTopic);
        unsigned long n_subscribers(in string topic);
        // disconnect everyone and shut the delivery plane down;
        // later publishes and subscribes raise HubClosed
        void destroy();
    };
};
"""

_api = None


def pubsub_api():
    global _api
    if _api is None:
        _api = compile_idl(PUBSUB_IDL, module_name="_repro_pubsub_idl")
    return _api


# -- typed events -------------------------------------------------------------

def _typecode(event_type):
    return getattr(event_type, "TYPECODE", event_type)


def encode_event(event_type, value) -> bytes:
    """CDR-encapsulate a typed value into an octet event payload.

    ``event_type`` is a compiled IDL struct class (or any TypeCode).
    Layout follows CDR encapsulation: one byte-order octet, then the
    value, aligned relative to the encapsulation start.
    """
    enc = CDREncoder()
    enc.put_octet(1 if enc.little_endian else 0)
    get_marshaller(_typecode(event_type)).marshal(enc, value)
    return enc.getvalue()


def decode_event(event_type, payload) -> Any:
    """Inverse of :func:`encode_event` (accepts any bytes-like)."""
    if hasattr(payload, "view"):  # an octet-sequence object
        payload = payload.view()
    data = bytes(memoryview(payload).cast("B")) \
        if not isinstance(payload, (bytes, bytearray)) else bytes(payload)
    if not data:
        raise ValueError("empty event payload")
    dec = CDRDecoder(data, little_endian=bool(data[0]))
    dec.get_octet()  # the byte-order flag, keeps alignment in step
    return get_marshaller(_typecode(event_type)).demarshal(dec)


# -- registry internals -------------------------------------------------------

@dataclass
class _Sub:
    stub: Any          # rebound onto the hub's delivery ORB
    identity: Tuple    # IOR.identity(): type id + object keys
    shm: bool          # routed over shm: may map the shared slot


@dataclass
class _Topic:
    name: str
    subs: List[_Sub] = field(default_factory=list)
    seq: int = 0
    published: int = 0
    delivered: int = 0
    dropped: int = 0


class TopicHubImpl:
    """Servant factory for the ``TopicHub``.

    The hub owns a client-only *delivery ORB* with a fresh transport
    registry whose ``shm`` transport shares one send arena across
    every subscriber connection — the other ORBs in the process are
    untouched.  ``slot_size``/``slot_count``/``slot_wait`` shape that
    arena; ``stale_after`` is the crash-safety valve (slots POSTED
    longer than this are force-freed when allocation starves, so a
    hard-killed subscriber cannot leak the arena dry).

    Instances expose (beyond the IDL surface) ``delivery_orb``,
    ``shm_transport``, and the counters ``fanout_posts`` /
    ``fanout_fallbacks`` / ``subscribers_evicted``.
    """

    def __new__(cls, slot_size: int = 1 << 20, slot_count: int = 32,
                slot_wait: float = 0.05, stale_after: float = 30.0,
                directory: Optional[str] = None):
        api = pubsub_api()

        class Impl(api.PubSub_TopicHub_skel):
            def __init__(self):
                self._lock = threading.Lock()
                self._topics: Dict[str, _Topic] = {}
                self._closed = False
                self.stale_after = stale_after
                #: single-copy fan-out posts (one slot, every reader)
                self.fanout_posts = 0
                #: publishes that degraded to per-link deposits because
                #: every slot was busy (slow-subscriber backpressure)
                self.fanout_fallbacks = 0
                self.subscribers_evicted = 0
                # the last argument: one send arena for every connection
                self.shm_transport = ShmTransport(
                    slot_size, slot_count, slot_wait, directory, True)
                reg = transport_registry()
                reg.register(self.shm_transport)  # replaces default shm
                self.delivery_orb = ORB(ORBConfig(zero_copy=True),
                                        transports=reg)

            # -- subscription ------------------------------------------------
            def subscribe(self, topic, sub):
                with self._lock:
                    if self._closed:
                        raise api.PubSub_HubClosed(why="hub destroyed")
                # rebind the reference onto the delivery ORB so the
                # callback takes the hub's transport plane (and its
                # shared arena), not the hosting ORB's
                stub = type(sub)(self.delivery_orb, sub.ior)
                entry = _Sub(stub=stub, identity=sub.ior.identity(),
                             shm=self._classify(stub))
                with self._lock:
                    if self._closed:
                        raise api.PubSub_HubClosed(why="hub destroyed")
                    t = self._topics.setdefault(topic, _Topic(topic))
                    t.subs = [s for s in t.subs
                              if s.identity != entry.identity]
                    t.subs.append(entry)

            def unsubscribe(self, topic, sub):
                gone = sub.ior.identity()
                with self._lock:
                    t = self._topics.get(topic)
                    if t is not None:
                        t.subs = [s for s in t.subs if s.identity != gone]

            def _classify(self, stub) -> bool:
                """Whether this subscriber's best route is shm, so a
                publish stages the shared slot for it."""
                if self.delivery_orb.select_profile(stub.ior).scheme \
                        != "shm":
                    return False
                # dial now: a subscribe-time failure beats a
                # publish-time surprise (_non_existent always goes to
                # the wire; _is_a would answer locally)
                return not stub._non_existent()

            # -- publication -------------------------------------------------
            def publish(self, topic, payload):
                with self._lock:
                    if self._closed:
                        raise api.PubSub_HubClosed(why="hub destroyed")
                    t = self._topics.get(topic)
                    if t is None or not t.subs:
                        return 0
                    subs = list(t.subs)
                    t.published += 1
                    t.seq += 1
                    seq = t.seq
                # a wire-side supplier hands the skel a ZCOctetSequence
                # (the landed deposit); a direct caller hands bytes
                view = payload.view() if hasattr(payload, "view") \
                    else (payload if isinstance(payload, memoryview)
                          else memoryview(payload))
                if view.format != "B" or view.ndim != 1:
                    view = view.cast("B")
                arena = self.shm_transport.shared_arena
                slot, shared_view = self._stage_fanout(arena, view) \
                    if any(s.shm for s in subs) else (None, None)
                delivered = 0
                dead = []
                try:
                    for s in subs:
                        try:
                            s.stub.deliver(topic, seq, shared_view
                                           if s.shm and slot is not None
                                           else view)
                            delivered += 1
                        except SystemException:
                            dead.append(s)
                finally:
                    if slot is not None:
                        arena.unshare(slot)
                with self._lock:
                    t.delivered += delivered
                if dead:
                    self._evict(t, dead)
                return delivered

            def _stage_fanout(self, arena, view):
                """Write the payload into one slot and share it;
                ``(slot, slot view)``, or ``(None, None)`` to deliver
                per link (no arena yet, oversize, or arena full — the
                slow-subscriber backpressure bound)."""
                if arena is None or arena.closed \
                        or not 0 < view.nbytes <= arena.slot_size:
                    return None, None
                slot, _ = arena.alloc()
                if slot is None and self.stale_after > 0 \
                        and arena.reclaim_stale(self.stale_after):
                    slot, _ = arena.alloc()
                if slot is None:
                    self.fanout_fallbacks += 1
                    return None, None
                shared_view = arena.slot_view(slot, 0, view.nbytes)
                shared_view[:] = view
                arena.share(slot)
                self.fanout_posts += 1
                return slot, shared_view

            def _evict(self, t: _Topic, dead) -> None:
                gone = {s.identity for s in dead}
                with self._lock:
                    before = len(t.subs)
                    t.subs = [s for s in t.subs if s.identity not in gone]
                    evicted = before - len(t.subs)
                    t.dropped += evicted
                    self.subscribers_evicted += evicted

            # -- introspection -----------------------------------------------
            def stats(self, topic):
                with self._lock:
                    t = self._topics.get(topic)
                    if t is None:
                        raise api.PubSub_NoSuchTopic(topic=topic)
                    return api.PubSub_TopicStats(
                        topic=t.name, subscribers=len(t.subs),
                        published=t.published, delivered=t.delivered,
                        dropped=t.dropped)

            def n_subscribers(self, topic):
                with self._lock:
                    t = self._topics.get(topic)
                    return len(t.subs) if t is not None else 0

            # -- lifecycle ---------------------------------------------------
            def destroy(self):
                with self._lock:
                    if self._closed:
                        return
                    self._closed = True
                    self._topics.clear()
                self.delivery_orb.shutdown()
                self.shm_transport.close()

        return Impl()


class CollectingSubscriber:
    """A subscriber servant that queues ``(topic, seq, bytes)``."""

    def __new__(cls, maxlen: Optional[int] = None):
        api = pubsub_api()

        class Impl(api.PubSub_Subscriber_skel):
            def __init__(self):
                self.events: Deque = deque(maxlen=maxlen)
                self.received = 0
                self._lock = threading.Lock()

            def deliver(self, topic, seq, payload):
                # copy out: the deposit buffer belongs to the request
                data = payload.tobytes() if hasattr(payload, "tobytes") \
                    else bytes(payload)
                with self._lock:
                    self.events.append((topic, seq, data))
                    self.received += 1

            def pop(self):
                with self._lock:
                    try:
                        return self.events.popleft()
                    except IndexError:
                        return None

        return Impl()


class CountingSubscriber:
    """A subscriber servant that only counts — the bench consumer.

    It never copies the payload, so a mapped fan-out slot is released
    (and its refcount decremented) the moment dispatch returns.
    """

    def __new__(cls):
        api = pubsub_api()

        class Impl(api.PubSub_Subscriber_skel):
            def __init__(self):
                self.received = 0
                self.bytes = 0
                self.last_seq = 0

            def deliver(self, topic, seq, payload):
                self.received += 1
                self.bytes += len(payload)
                self.last_seq = seq

        return Impl()
