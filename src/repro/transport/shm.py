"""Shared-memory zero-copy transport: socket control plane, mmap data plane.

The direct-deposit receiver (§4.5) lands payloads in pre-negotiated
page-aligned buffers so the data never passes through an intermediate
copy — but a stream transport still pays one kernel round-trip per
payload.  For colocated peers this backend removes it: the GIOP
control channel runs over a loopback TCP socket, while deposit
payloads travel through a connection-scoped shared-memory **arena**
carved into page-aligned slots sized by the :class:`BufferPool` size
classes.  The sender writes (or, when the caller's buffer already
lives in the arena, merely *references*) a slot; the receiver maps the
same pages as the landing buffer — no ``recv_into``, no copy.

Wire protocol (all little-endian, fixed — no receiver-makes-right on
the side channel):

* **Handshake** — immediately after connect, both ends exchange one
  hello (magic, version, flags, slot size, slot count, arena path)
  followed by one ack byte.  Each side creates its *send* arena and
  attaches the peer's; the channel is active only when both acks say
  so, otherwise both sides degrade to plain streaming and the
  connection behaves exactly like ``tcp``.
* **Deposit records** — each registered payload is preceded on the
  control stream by one record ``(magic, slot, offset, size)``.
  ``slot >= 0`` names an arena slot (the payload bytes are *not* on
  the stream); ``slot == -1`` is the per-deposit inline fallback: the
  raw payload bytes follow, read by the connection as on tcp.

Slot lifecycle (protocol v2, refcounted): ``FREE -> OWNED`` (sender
allocates, under its local lock — only the arena's creator ever
allocates), ``OWNED -> POSTED(n)`` (sender publishes to ``n``
readers: 1 for an ordinary deposit, N for a shared fan-out post, see
:meth:`ShmArena.post_shared`), then each reader's release decrements
the slot's refcount byte and the *last* one returns the slot
(``POSTED(1) -> FREE``).  The ``FREE -> OWNED`` transition keeps its
single writer; the decrement is serialized by ``flock`` on the arena
file, which excludes both across processes and between two mappings
of the same file in one process (the lock rides the open file
description, not the process) — so N attached readers race-freely
share one posted slot.  Slot exhaustion (receivers still holding
every slot) waits up to ``slot_wait`` and then falls back to the
inline path for that deposit — the same graceful-degradation
discipline as the policy layer's deposit fallback.

Fan-out (the pub/sub hub's path): the creator writes a payload into
one slot, posts it with ``readers=N``, and every subscriber
connection sharing the arena (``ShmTransport(shared_send_arena=True)``)
sends only a 24-byte record referencing the same slot — one copy
crosses the process boundary no matter how many colocated
subscribers map it.
"""

from __future__ import annotations

import os
import socket
import struct
import tempfile
import threading
import time
from contextlib import contextmanager
from functools import partial
from typing import Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: refcount decrements fall back to the
    fcntl = None     # instance lock (single-process correctness only)

import numpy as np

from ..core.buffers import PAGE_SIZE, BufferPool, MappedBuffer, ZCBuffer
from ..core.buffers import _size_class as _slot_size_class
from ..core.direct_deposit import DepositDescriptor, DepositError
from .base import (AcceptHandler, Endpoint, TransportError,
                   TransportTimeout)
from .tcp import DEFAULT_CONNECT_TIMEOUT, TCPListener, TCPStream

__all__ = ["ShmTransport", "ShmStream", "ShmArena", "ShmError",
           "shm_available", "SEND_INLINE", "SEND_COPY", "SEND_REFERENCE",
           "SEND_SHARED"]

#: 'SHM1' — marks the handshake hello and every deposit record
SHM_MAGIC = 0x53484D31
#: v2 added the per-slot refcount byte array (shared fan-out posts);
#: a peer speaking another version degrades to plain streaming
SHM_VERSION = 2

#: magic, version, flags, slot_size, slot_count, path_len
_HELLO = struct.Struct("<IHHQII")
#: magic, slot (-1 = inline fallback), offset, size
_RECORD = struct.Struct("<IiQQ")

_ACK_OK = b"\x01"
_ACK_NO = b"\x00"

_HANDSHAKE_TIMEOUT = 10.0

#: slot states (one byte per slot at the head of the mapping)
SLOT_FREE = 0
SLOT_OWNED = 1
SLOT_POSTED = 2

#: a slot's refcount is one byte: at most 255 concurrent readers
_MAX_REFCOUNT = 255

#: :meth:`ShmStream.send_deposit` tier results — ints so existing
#: truthiness checks (``used_arena``) keep working: 0 is the only
#: non-arena outcome
SEND_INLINE = 0      # payload streamed inline after the record
SEND_COPY = 1        # copied into a freshly allocated slot
SEND_REFERENCE = 2   # caller's buffer was an owned slot: posted as-is
SEND_SHARED = 3      # pre-posted fan-out slot: record-only reference

#: attach-side sanity bounds for negotiated geometry
_MAX_SLOT_COUNT = 4096
_MAX_SLOT_SIZE = 1 << 30


class ShmError(TransportError):
    """Arena setup or shared-memory protocol failure."""


def _page_round(n: int) -> int:
    return -(-n // PAGE_SIZE) * PAGE_SIZE


def shm_available(directory: str = "/dev/shm") -> bool:
    """Whether a usable shared-memory filesystem is mounted.

    Benchmarks and CI smoke steps call this to *skip visibly* instead
    of erroring on platforms without ``/dev/shm`` (macOS, some
    containers).  The probe actually creates and unlinks a file — a
    read-only mount or a full tmpfs also reports unavailable.
    """
    if not os.path.isdir(directory):
        return False
    try:
        fd, path = tempfile.mkstemp(prefix="repro-shm-probe-",
                                    dir=directory)
    except OSError:
        return False
    try:
        os.close(fd)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    return True


def _view_address(view: memoryview) -> int:
    """Real start address of a contiguous byte view."""
    return np.frombuffer(view, dtype=np.uint8).ctypes.data


class ShmArena:
    """A file-backed shared mapping carved into page-aligned slots.

    Layout (v2): ``slot_count`` state bytes, then ``slot_count``
    refcount bytes, the pair page-rounded together, then
    ``slot_count`` slots of ``slot_size`` bytes each, every slot
    starting on a page boundary.  The backing file lives in
    ``/dev/shm`` when available, so the pages never touch a disk.

    One process *creates* the arena (and alone allocates slots from
    it); one or more peers *attach* it.  A posted slot carries a
    refcount — each reader's release decrements it under ``flock`` on
    the arena file, and the decrement that reaches zero frees the
    slot.  The creator unlinks the file on close — attached mappings
    stay valid until they too close.
    """

    def __init__(self, path: str, slot_size: int, slot_count: int,
                 create: bool):
        if slot_count <= 0 or slot_count > _MAX_SLOT_COUNT:
            raise ShmError(f"implausible slot count {slot_count}")
        if slot_size <= 0 or slot_size > _MAX_SLOT_SIZE \
                or slot_size % PAGE_SIZE:
            raise ShmError(f"slot size must be a page multiple: {slot_size}")
        import mmap
        self.path = path
        self.slot_size = slot_size
        self.slot_count = slot_count
        self.created = create
        # state byte per slot, then refcount byte per slot
        self.data_offset = _page_round(2 * slot_count)
        self.total_size = self.data_offset + slot_size * slot_count
        if create:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            try:
                os.ftruncate(fd, self.total_size)
            except OSError:
                os.close(fd)
                os.unlink(path)
                raise
        else:
            fd = os.open(path, os.O_RDWR)
            if os.fstat(fd).st_size < self.total_size:
                os.close(fd)
                raise ShmError(f"arena file {path} smaller than negotiated "
                               f"geometry")
        try:
            self._mm = mmap.mmap(fd, self.total_size)
        except BaseException:
            os.close(fd)
            raise
        #: kept open for the refcount file lock (flock excludes per
        #: open file description, so every arena instance gets its own)
        self._fd = fd
        arr = np.frombuffer(self._mm, dtype=np.uint8, count=1)
        self.base_address = int(arr.ctypes.data)
        del arr  # releases the buffer export immediately
        self._lock = threading.Lock()
        self._owners: dict[int, int] = {}  # slot -> token, OWNED via acquire
        #: slot -> fan-out references not yet claimed by a send
        self._shared_pending: dict[int, int] = {}
        #: creator-side post times, for stale-slot reclaim
        self._post_times: dict[int, float] = {}
        self._next_token = 1
        self._closed = False
        #: creator-side post accounting: every payload publication is
        #: one ``posts`` tick however many readers it fans out to
        self.posts = 0
        self.shared_posts = 0
        self.stale_reclaims = 0

    @classmethod
    def create(cls, directory: str, slot_size: int,
               slot_count: int) -> "ShmArena":
        name = f"repro-shm-{os.getpid()}-{os.urandom(6).hex()}"
        return cls(os.path.join(directory, name), slot_size, slot_count,
                   create=True)

    # -- geometry ------------------------------------------------------------
    def _slot_start(self, slot: int) -> int:
        return self.data_offset + slot * self.slot_size

    def slot_view(self, slot: int, offset: int, size: int) -> memoryview:
        start = self._slot_start(slot) + offset
        return memoryview(self._mm)[start:start + size]

    def slot_address(self, slot: int, offset: int = 0) -> int:
        return self.base_address + self._slot_start(slot) + offset

    # -- refcounts -----------------------------------------------------------
    def _rc_get(self, slot: int) -> int:
        return self._mm[self.slot_count + slot]

    def _rc_set(self, slot: int, value: int) -> None:
        self._mm[self.slot_count + slot] = value

    @contextmanager
    def _file_lock(self):
        """Serialize refcount updates across every mapping of the file."""
        if fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        else:
            with self._lock:
                yield

    def refcount(self, slot: int) -> int:
        """Live reader references on ``slot`` (0 for FREE/OWNED slots)."""
        try:
            return self._rc_get(slot)
        except (ValueError, IndexError):
            return 0

    # -- sender side (creator) ----------------------------------------------
    def alloc(self, timeout: float = 0.0) -> Tuple[Optional[int], float]:
        """Claim a FREE slot (``-> OWNED``); ``(slot, waited_seconds)``.

        Returns ``(None, waited)`` when every slot stayed busy past
        ``timeout`` — the caller falls back to the inline path.  Only
        the creator process allocates, so the local lock fully
        serializes the FREE->OWNED transition; a concurrent receiver
        free can at worst make us miss a just-freed slot this scan.
        """
        start = time.monotonic()
        deadline = start + timeout if timeout > 0 else start
        while True:
            with self._lock:
                if not self._closed:
                    for i in range(self.slot_count):
                        if self._mm[i] == SLOT_FREE:
                            self._mm[i] = SLOT_OWNED
                            # a freed slot may carry a stale fan-out
                            # plan from a post whose sends never all
                            # happened; a fresh lease voids it
                            self._shared_pending.pop(i, None)
                            self._post_times.pop(i, None)
                            return i, time.monotonic() - start
            now = time.monotonic()
            if self._closed or now >= deadline:
                return None, now - start
            time.sleep(0.0002)

    def acquire(self, nbytes: int, timeout: float = 0.0) -> MappedBuffer:
        """Lease a whole slot as a caller-owned staging buffer.

        Payloads marshaled from such a buffer are *referenced* on send
        (no copy at all); posting transfers slot ownership, after
        which the caller's ``release()`` becomes a no-op.
        """
        if nbytes <= 0 or nbytes > self.slot_size:
            raise ValueError(
                f"nbytes must be in (0, {self.slot_size}], got {nbytes}")
        slot, _ = self.alloc(timeout)
        if slot is None:
            raise ShmError(f"arena exhausted: all {self.slot_count} slots "
                           f"busy")
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._owners[slot] = token
        buf = MappedBuffer(self.slot_view(slot, 0, self.slot_size),
                           self.slot_address(slot),
                           on_release=partial(self._release_owned, slot,
                                              token))
        buf.set_length(nbytes)
        return buf

    def try_acquire(self, nbytes: int) -> Optional[MappedBuffer]:
        """Non-blocking :meth:`acquire`: ``None`` instead of raising
        when every slot is busy — the encode-into-arena staging path
        must never stall marshaling waiting for the receiver."""
        if self._closed or not 0 < nbytes <= self.slot_size:
            return None
        try:
            return self.acquire(nbytes)
        except ShmError:
            return None

    def _release_owned(self, slot: int, token: int) -> None:
        with self._lock:
            if self._owners.get(slot) != token:
                return  # posted (ownership transferred) or stale
            del self._owners[slot]
            try:
                self._mm[slot] = SLOT_FREE
            except (ValueError, IndexError):
                pass  # mapping already closed

    def post(self, slot: int) -> None:
        """Publish an OWNED slot to one reader (``-> POSTED(1)``)."""
        with self._lock:
            self._owners.pop(slot, None)
            self._rc_set(slot, 1)
            self._post_times[slot] = time.monotonic()
            self._mm[slot] = SLOT_POSTED
            self.posts += 1

    def post_shared(self, slot: int, readers: int) -> None:
        """Publish an OWNED slot to ``readers`` readers at once.

        The fan-out post: the refcount starts at ``readers`` and each
        planned reader's record is claimed by a later
        :meth:`take_shared_ref` (the sends reference the slot, they do
        not re-post it).  The slot frees when the last reader
        releases.
        """
        if not 1 <= readers <= _MAX_REFCOUNT:
            raise ValueError(
                f"readers must be in [1, {_MAX_REFCOUNT}], got {readers}")
        with self._lock:
            self._owners.pop(slot, None)
            self._rc_set(slot, readers)
            self._shared_pending[slot] = readers
            self._post_times[slot] = time.monotonic()
            self._mm[slot] = SLOT_POSTED
            self.posts += 1
            self.shared_posts += 1

    def take_shared_ref(self, slot: int) -> bool:
        """Claim one planned fan-out reference on a shared-posted slot.

        The send path calls this to distinguish a reference to a
        pre-posted fan-out slot (emit a record, leave the state alone)
        from an owned slot it must post itself.
        """
        with self._lock:
            n = self._shared_pending.get(slot)
            if not n:
                return False
            if n == 1:
                del self._shared_pending[slot]
            else:
                self._shared_pending[slot] = n - 1
            return True

    def shared_pending(self, slot: int) -> int:
        """Fan-out references planned but not yet claimed by a send."""
        with self._lock:
            return self._shared_pending.get(slot, 0)

    def is_owned(self, slot: int) -> bool:
        """Whether ``slot`` is currently leased via :meth:`acquire`."""
        with self._lock:
            return slot in self._owners

    def abort_shared_ref(self, slot: int) -> None:
        """Compensate one planned reader whose record will never be
        sent (its connection died before the send): drop the pending
        reference and release its share of the refcount."""
        if self.take_shared_ref(slot):
            self.free(slot)

    def locate(self, view: memoryview) -> Optional[Tuple[int, int]]:
        """``(slot, offset)`` when ``view`` lies inside one caller-owned
        (or shared-posted, fan-out pending) slot at a page-aligned
        offset; ``None`` -> copy path."""
        if view.nbytes == 0:
            return None
        addr = _view_address(view)
        data_start = self.base_address + self.data_offset
        if addr < data_start \
                or addr + view.nbytes > self.base_address + self.total_size:
            return None
        rel = addr - data_start
        slot, offset = divmod(rel, self.slot_size)
        if offset + view.nbytes > self.slot_size:
            return None  # spans slots
        if offset % PAGE_SIZE:
            return None  # receiver must land page-aligned
        with self._lock:
            if slot not in self._owners \
                    and slot not in self._shared_pending:
                return None  # not leased from this arena (or already sent)
        return slot, offset

    # -- receiver side (attacher) -------------------------------------------
    def free(self, slot: int) -> None:
        """Release one reader reference; the last one frees the slot
        (``POSTED(1) -> FREE``)."""
        try:
            with self._file_lock():
                rc = self._rc_get(slot)
                rc = rc - 1 if rc > 0 else 0
                self._rc_set(slot, rc)
                if rc == 0:
                    self._mm[slot] = SLOT_FREE
        except (ValueError, IndexError, OSError):
            pass  # mapping or lock fd already closed

    # -- creator-side stale reclaim ------------------------------------------
    def reclaim_stale(self, max_age: float) -> int:
        """Force-free slots POSTED longer than ``max_age`` seconds.

        The crash-safety valve behind the finalizer machinery: an
        attached reader that died without releasing leaves its
        reference forever, and only the creator (which recorded every
        post time) can break the leak.  Called by the pub/sub hub when
        allocation starves.  Returns the number of slots reclaimed.
        """
        now = time.monotonic()
        reclaimed = 0
        with self._lock:
            candidates = list(self._post_times.items())
        for slot, posted_at in candidates:
            try:
                state = self._mm[slot]
            except (ValueError, IndexError):
                break  # mapping closed under us
            if state != SLOT_POSTED:
                with self._lock:
                    if self._post_times.get(slot) == posted_at:
                        self._post_times.pop(slot, None)
                continue
            if now - posted_at <= max_age:
                continue
            try:
                with self._file_lock():
                    if self._mm[slot] == SLOT_POSTED:
                        self._rc_set(slot, 0)
                        self._mm[slot] = SLOT_FREE
                        reclaimed += 1
            except (ValueError, IndexError, OSError):
                break
            with self._lock:
                self._post_times.pop(slot, None)
                self._shared_pending.pop(slot, None)
                self.stale_reclaims += 1
        return reclaimed

    # -- introspection -------------------------------------------------------
    @property
    def free_slots(self) -> int:
        try:
            return sum(1 for i in range(self.slot_count)
                       if self._mm[i] == SLOT_FREE)
        except ValueError:
            return 0

    @property
    def used_slots(self) -> int:
        """Slots currently OWNED or POSTED (in flight)."""
        return self.slot_count - self.free_slots

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._owners.clear()
            self._shared_pending.clear()
            self._post_times.clear()
        try:
            self._mm.close()
        except BufferError:
            # landed MappedBuffers still export views of the mapping;
            # it is released when the last of them goes away
            pass
        fd, self._fd = self._fd, -1  # late finalizer frees must not
        try:                         # flock a recycled descriptor
            os.close(fd)
        except OSError:
            pass
        if self.created:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __repr__(self) -> str:
        role = "creator" if self.created else "attached"
        return (f"<ShmArena {role} {self.slot_count}x{self.slot_size} "
                f"@{self.path}>")


class ShmStream:
    """A TCP control stream with a shared-memory deposit channel.

    Exposes the plain :class:`Stream` surface by delegation, plus —
    when the handshake succeeded on both ends — a ``deposit_channel``
    the GIOP connection routes registered payloads through.
    """

    #: the deposit record in front of each payload on the control stream
    RECORD_SIZE = _RECORD.size

    def __init__(self, inner: TCPStream, name: str,
                 send_arena: Optional[ShmArena] = None,
                 recv_arena: Optional[ShmArena] = None,
                 slot_wait: float = 0.05,
                 owns_send_arena: bool = True):
        self._inner = inner
        self.name = name
        self.send_arena = send_arena
        self.recv_arena = recv_arena
        self.slot_wait = slot_wait
        #: False when the transport shares one send arena across every
        #: connection (fan-out mode): closing this stream must not
        #: tear down the other connections' data plane
        self.owns_send_arena = owns_send_arena
        self.shm_deposits_sent = 0
        self.shm_references_sent = 0
        self.shm_shared_refs_sent = 0
        self.shm_fallbacks_sent = 0
        self.shm_deposits_received = 0
        self.shm_fallbacks_received = 0
        self.slot_wait_seconds = 0.0

    # -- plain Stream surface -------------------------------------------------
    def send(self, data) -> None:
        self._inner.send(data)

    def sendv(self, chunks) -> None:
        self._inner.sendv(chunks)

    def recv_exact(self, n: int) -> memoryview:
        return self._inner.recv_exact(n)

    def recv_into(self, view: memoryview) -> None:
        self._inner.recv_into(view)

    def fileno(self) -> int:
        return self._inner.fileno()

    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        return self._inner.recv_into_nb(view)

    def set_timeout(self, seconds: Optional[float]) -> None:
        self._inner.set_timeout(seconds)

    @property
    def bytes_sent(self) -> int:
        return self._inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._inner.bytes_received

    @property
    def peer(self) -> str:
        return self._inner.peer

    def close(self) -> None:
        self._inner.close()
        if self.recv_arena is not None:
            self.recv_arena.close()
        if self.send_arena is not None and self.owns_send_arena:
            self.send_arena.close()

    # -- deposit channel ------------------------------------------------------
    @property
    def deposit_channel(self) -> Optional["ShmStream"]:
        """Self when the arena handshake succeeded, else ``None`` (the
        connection then streams deposits inline, exactly like tcp)."""
        if self.send_arena is not None and self.recv_arena is not None:
            return self
        return None

    def send_deposit(self, view: memoryview) -> Tuple[int, float, list, int]:
        """Stage one registered payload; ``(tier, slot_wait_s, chunks,
        slot)``.  Nothing is written here: ``chunks`` is the deposit
        record, and behind it the payload when it must travel inline,
        for the caller to append to the gather write of the message
        that carries the deposit, so record and message stay adjacent
        on the control stream.

        ``tier`` is one of :data:`SEND_INLINE` (0, the only non-arena
        outcome — truthiness still reads "used the arena"),
        :data:`SEND_COPY`, :data:`SEND_REFERENCE`, or
        :data:`SEND_SHARED`.  ``slot`` (-1: inline) now counts the
        record's reader: ``send_arena.free(slot)`` gives that share
        back if the write fails.
        """
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        size = view.nbytes
        arena = self.send_arena
        waited = 0.0
        if arena is not None and not arena.closed:
            tier = SEND_INLINE
            loc = arena.locate(view)
            if loc is not None:
                slot, offset = loc
                if arena.take_shared_ref(slot):
                    # pre-posted fan-out slot: this connection's share
                    # of the payload is one 24-byte record — the slot
                    # was written and posted exactly once for every
                    # reader mapping it
                    self.shm_shared_refs_sent += 1
                    tier = SEND_SHARED
                elif arena.is_owned(slot):
                    # the payload already lives in the arena: transfer
                    # the slot by reference — the true zero-copy send
                    arena.post(slot)
                    self.shm_references_sent += 1
                    tier = SEND_REFERENCE
                # else: raced with a concurrent fan-out send that
                # claimed the last planned reference: the copy path
            if not tier and 0 < size <= arena.slot_size:
                slot, waited = arena.alloc(self.slot_wait)
                self.slot_wait_seconds += waited
                if slot is not None:
                    offset = 0
                    arena.slot_view(slot, 0, size)[:] = view
                    arena.post(slot)
                    tier = SEND_COPY
            if tier:
                self.shm_deposits_sent += 1
                return tier, waited, \
                    [_RECORD.pack(SHM_MAGIC, slot, offset, size)], slot
        # inline fallback: the payload follows the record on the stream
        self.shm_fallbacks_sent += 1
        return SEND_INLINE, waited, \
            [_RECORD.pack(SHM_MAGIC, -1, 0, size), view], -1

    def recv_deposit(self, desc: DepositDescriptor, record,
                     pool: BufferPool) -> Tuple[ZCBuffer, bool]:
        """Land one deposit from its ``record``, the :attr:`RECORD_SIZE`
        bytes in front of it on the control stream; ``(buffer,
        via_arena)``.  Nothing is read here.

        An arena record maps the posted slot as the landing buffer —
        releasing (or dropping) that buffer frees the slot back to the
        sender.  An inline record gets a pool buffer, which the caller
        fills with the payload that follows the record, as on tcp.
        """
        magic, slot, offset, size = _RECORD.unpack(record)
        if magic != SHM_MAGIC:
            raise DepositError(f"bad shm deposit record magic 0x{magic:08x}")
        if size != desc.size:
            raise DepositError(
                f"deposit {desc.deposit_id}: record size {size} != "
                f"descriptor size {desc.size}")
        if slot >= 0:
            arena = self.recv_arena
            if arena is None or arena.closed:
                raise DepositError(
                    f"deposit {desc.deposit_id} references slot {slot} "
                    f"but no arena is attached")
            if slot >= arena.slot_count or offset + size > arena.slot_size \
                    or arena._mm[slot] != SLOT_POSTED \
                    or not arena.refcount(slot):
                raise DepositError(
                    f"deposit {desc.deposit_id}: slot {slot}+{offset} "
                    f"outside arena geometry, or not posted")
            address = arena.slot_address(slot, offset)
            if desc.alignment > 1 and address % desc.alignment:
                raise DepositError(
                    f"cannot satisfy alignment {desc.alignment} for "
                    f"deposit {desc.deposit_id}")
            buf = MappedBuffer(arena.slot_view(slot, offset, max(size, 1)),
                               address,
                               on_release=partial(arena.free, slot))
            buf.set_length(size)
            self.shm_deposits_received += 1
            return buf, True
        buf = pool.acquire(max(size, 1))
        buf.set_length(size)
        if desc.alignment > 1 and buf.address % desc.alignment:
            buf.release()
            raise DepositError(
                f"cannot satisfy alignment {desc.alignment} for deposit "
                f"{desc.deposit_id}")
        self.shm_fallbacks_received += 1
        return buf, False


class ShmTransport:
    """Factory for shm streams/listeners; scheme ``shm``.

    ``slot_size`` is rounded up to a :class:`BufferPool` size class;
    ``slot_count`` slots per direction per connection; ``slot_wait``
    bounds how long a send waits for a free slot before falling back
    inline.

    ``shared_send_arena=True`` switches the transport into fan-out
    mode: every outbound connection advertises the *same* send arena,
    so a payload posted once with ``post_shared(slot, readers=N)`` is
    mapped by all N peers that attached it — the pub/sub hub's
    single-copy delivery plane.  The shared arena outlives individual
    connections; call :meth:`close` (or let the owning hub do it) to
    tear it down.
    """

    scheme = "shm"

    def __init__(self, slot_size: int = 1 << 20, slot_count: int = 16,
                 slot_wait: float = 0.05,
                 directory: Optional[str] = None,
                 shared_send_arena: bool = False):
        self.slot_size = _slot_size_class(slot_size)
        self.slot_count = int(slot_count)
        self.slot_wait = slot_wait
        self.directory = directory or (
            "/dev/shm" if os.path.isdir("/dev/shm")
            else tempfile.gettempdir())
        self.shared_send_arena = bool(shared_send_arena)
        self._shared_arena: Optional[ShmArena] = None
        self._shared_lock = threading.Lock()

    @property
    def shared_arena(self) -> Optional[ShmArena]:
        """The fan-out send arena (``None`` until the first connect,
        or when the transport is per-connection)."""
        return self._shared_arena

    def close(self) -> None:
        """Tear down the shared send arena, if any."""
        with self._shared_lock:
            arena, self._shared_arena = self._shared_arena, None
        if arena is not None:
            arena.close()

    def _make_arena(self) -> Optional[ShmArena]:
        if self.shared_send_arena:
            with self._shared_lock:
                if self._shared_arena is None or self._shared_arena.closed:
                    try:
                        self._shared_arena = ShmArena.create(
                            self.directory, self.slot_size, self.slot_count)
                    except (OSError, ShmError):
                        self._shared_arena = None
                return self._shared_arena
        try:
            return ShmArena.create(self.directory, self.slot_size,
                                   self.slot_count)
        except (OSError, ShmError):
            return None

    def _discard(self, arena: Optional[ShmArena]) -> None:
        """Drop an arena a failed handshake leaves behind — except the
        shared one, which other connections may be using."""
        if arena is not None and arena is not self._shared_arena:
            arena.close()

    # -- handshake ------------------------------------------------------------
    @staticmethod
    def _send_hello(stream: TCPStream, arena: Optional[ShmArena]) -> None:
        path = arena.path.encode("utf-8") if arena is not None else b""
        slot_size = arena.slot_size if arena is not None else 0
        slot_count = arena.slot_count if arena is not None else 0
        stream.sendv([_HELLO.pack(SHM_MAGIC, SHM_VERSION, 0, slot_size,
                                  slot_count, len(path)), path])

    @staticmethod
    def _read_hello(stream: TCPStream
                    ) -> Optional[Tuple[str, int, int]]:
        magic, version, _flags, slot_size, slot_count, path_len = \
            _HELLO.unpack(stream.recv_exact(_HELLO.size))
        if magic != SHM_MAGIC:
            raise ShmError(f"bad shm handshake magic 0x{magic:08x}")
        if path_len > 4096:
            raise ShmError(f"implausible arena path length {path_len}")
        path = bytes(stream.recv_exact(path_len)).decode("utf-8") \
            if path_len else ""
        if version != SHM_VERSION or not slot_count or not path:
            return None  # peer opted out (or speaks a future version)
        return path, slot_size, slot_count

    @staticmethod
    def _attach(spec: Optional[Tuple[str, int, int]]
                ) -> Optional[ShmArena]:
        if spec is None:
            return None
        path, slot_size, slot_count = spec
        try:
            return ShmArena(path, slot_size, slot_count, create=False)
        except (OSError, ShmError):
            return None

    def _finish(self, own: Optional[ShmArena],
                attached: Optional[ShmArena], peer_ok: bool
                ) -> Tuple[Optional[ShmArena], Optional[ShmArena]]:
        """Both acks in hand: keep the arenas or degrade symmetrically."""
        if own is not None and attached is not None and peer_ok:
            return own, attached
        self._discard(own)
        if attached is not None:
            attached.close()
        return None, None

    def _client_handshake(self, stream: TCPStream
                          ) -> Tuple[Optional[ShmArena],
                                     Optional[ShmArena]]:
        own = attached = None
        stream.set_timeout(_HANDSHAKE_TIMEOUT)
        try:
            own = self._make_arena()
            self._send_hello(stream, own)
            attached = self._attach(self._read_hello(stream))
            ok = own is not None and attached is not None
            stream.send(_ACK_OK if ok else _ACK_NO)
            peer_ok = bytes(stream.recv_exact(1)) == _ACK_OK
        except BaseException:
            self._discard(own)
            if attached is not None:
                attached.close()
            raise
        finally:
            stream.set_timeout(None)
        return self._finish(own, attached, peer_ok)

    def _server_handshake(self, stream: TCPStream
                          ) -> Tuple[Optional[ShmArena],
                                     Optional[ShmArena]]:
        own = attached = None
        stream.set_timeout(_HANDSHAKE_TIMEOUT)
        try:
            attached = self._attach(self._read_hello(stream))
            own = self._make_arena()
            self._send_hello(stream, own)
            peer_ok = bytes(stream.recv_exact(1)) == _ACK_OK
            ok = own is not None and attached is not None
            stream.send(_ACK_OK if ok else _ACK_NO)
        except BaseException:
            self._discard(own)
            if attached is not None:
                attached.close()
            raise
        finally:
            stream.set_timeout(None)
        return self._finish(own, attached, peer_ok)

    # -- Transport surface ----------------------------------------------------
    def connect(self, endpoint: Endpoint,
                timeout: Optional[float] = None) -> ShmStream:
        _scheme, host, port = endpoint
        dial_timeout = timeout if timeout is not None \
            else DEFAULT_CONNECT_TIMEOUT
        try:
            sock = socket.create_connection((host, port),
                                            timeout=dial_timeout)
        except socket.timeout as e:
            raise TransportTimeout(
                f"connect to shm://{host}:{port} timed out after "
                f"{dial_timeout}s") from e
        except OSError as e:
            raise TransportError(
                f"cannot connect to shm://{host}:{port}: {e}") from e
        sock.settimeout(None)
        inner = TCPStream(sock, f"shm-cli-{host}:{port}")
        try:
            send_arena, recv_arena = self._client_handshake(inner)
        except (TransportError, ShmError):
            inner.close()
            raise
        return ShmStream(inner, inner.name, send_arena, recv_arena,
                         self.slot_wait,
                         owns_send_arena=not self.shared_send_arena)

    def listen(self, host: str, port: int,
               on_accept: AcceptHandler) -> TCPListener:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host or "127.0.0.1", port))
        except OSError as e:
            sock.close()
            raise TransportError(
                f"cannot bind shm://{host}:{port}: {e}") from e
        sock.listen(64)

        def accept(inner: TCPStream) -> None:
            send_arena, recv_arena = self._server_handshake(inner)
            on_accept(ShmStream(inner, inner.name, send_arena, recv_arena,
                                self.slot_wait,
                                owns_send_arena=not self.shared_send_arena))

        return TCPListener(sock, accept, name=f"shm-{host}:{port}",
                           scheme="shm")
