"""Page-aligned buffer management for zero-copy transfers.

§4.3: the ``SequenceTmpl<>`` extension adds "two new pointers, one to a
reserved memory block, another to a page aligned area in this buffer
and an integer value for the effective buffer size".  §4.5: the
direct-deposit receiver "allocates an appropriately sized and aligned
buffer" that packet payloads are landed on.

This module provides that machinery for Python: :class:`ZCBuffer` is a
page-aligned region with true address alignment (verified through the
underlying numpy array's data pointer), and :class:`BufferPool` keeps
freed buffers on per-size-class free lists so steady-state transfers
allocate nothing ("the buffers are allocated and managed by the
application or by the stub and skeleton code", §6).
"""

from __future__ import annotations

import mmap
import os
import sys
import threading
import weakref
from typing import Callable, Optional

import numpy as np

__all__ = ["PAGE_SIZE", "ZCBuffer", "MappedBuffer", "FileBackedBuffer",
           "BufferPool", "BufferError", "default_pool"]

PAGE_SIZE = 4096


class BufferError(RuntimeError):
    """Misuse of a zero-copy buffer (double release, use after free)."""


class ZCBuffer:
    """A page-aligned, fixed-capacity memory region.

    The region is carved out of a numpy byte array over-allocated by
    one page; the view starts at the first page boundary, so
    ``address % PAGE_SIZE == 0`` genuinely holds — the property the
    speculative-defragmentation receiver needs to land packet payloads
    by page remapping instead of copying.

    ``capacity`` is the usable aligned size; ``length`` is the live
    payload size (≤ capacity).  The payload is exposed as a writable
    :class:`memoryview` so every consumer shares the same storage.

    A pooled buffer that nobody holds goes back to its pool by
    reference count, as a :class:`MappedBuffer` returns its arena slot:
    its storage is recycled once the last reference to the buffer goes,
    unless a view of that storage (a ``memoryview`` from :meth:`view`,
    an ndarray built over one) is still alive — then the storage stays
    with the view and is simply freed with it (DESIGN.md §11, the landing
    rule).  Every view holds its own export of the storage, so the
    storage's reference count says whether one is left.
    """

    __slots__ = ("_base", "_offset", "_view", "capacity", "_length", "_pool",
                 "_released", "_release_lock")

    def __init__(self, capacity: int, pool: Optional["BufferPool"] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._base = np.empty(capacity + PAGE_SIZE, dtype=np.uint8)
        self._offset = (-self._base.ctypes.data) % PAGE_SIZE
        #: a mapped or file buffer's own view; a pooled one exports
        #: fresh views of ``_base`` instead
        self._view = None
        self._length = capacity
        self._pool = pool
        self._released = False
        #: serializes the released check-and-set: without it, two
        #: threads racing release() could both pass _check_live and
        #: reclaim the buffer twice — putting one free-list entry under
        #: two owners once re-acquired
        self._release_lock = threading.Lock()

    # -- geometry -----------------------------------------------------------
    @property
    def address(self) -> int:
        """The (real) start address of the aligned region."""
        self._check_live()
        return self._base.ctypes.data + self._offset

    @property
    def is_page_aligned(self) -> bool:
        return self.address % PAGE_SIZE == 0

    # -- payload ------------------------------------------------------------
    @property
    def length(self) -> int:
        return self._length

    def set_length(self, n: int) -> None:
        """Set the live payload size (the sequence's ``length()`` method)."""
        self._check_live()
        if not 0 <= n <= self.capacity:
            raise ValueError(f"length {n} outside [0, {self.capacity}]")
        self._length = n

    def view(self) -> memoryview:
        """Writable view of the live payload — no copy."""
        if self._released:
            raise BufferError("use of a released ZCBuffer")
        base = self._base
        if base is None:
            return self._view[: self._length]
        offset = self._offset
        return memoryview(base)[offset:offset + self._length]

    def full_view(self) -> memoryview:
        """Writable view of the whole aligned capacity."""
        self._check_live()
        base = self._base
        if base is None:
            return self._view
        return memoryview(base)[self._offset:self._offset + self.capacity]

    def fill_from(self, data) -> None:
        """Copy ``data`` in (the *one* permitted producer-side touch)."""
        self._check_live()
        src = memoryview(data)
        if src.nbytes > self.capacity:
            raise ValueError(
                f"data of {src.nbytes} bytes exceeds capacity {self.capacity}")
        self.full_view()[: src.nbytes] = src.cast("B")
        self._length = src.nbytes

    def tobytes(self) -> bytes:
        return self.view().tobytes()

    # -- lifecycle ------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Return the buffer to its pool (or just mark it dead).

        Atomic: concurrent double release raises :class:`BufferError`
        in the loser instead of racing the reclaim."""
        with self._release_lock:
            self._check_live()
            self._released = True
        if self._pool is not None:
            self._pool._reclaim(self)

    def __del__(self) -> None:
        # the last reference went without a release: the storage goes
        # back to the pool, unless a view of it outlives the buffer (the
        # two references are this slot's and getrefcount's argument)
        pool = getattr(self, "_pool", None)  # unset: __init__ refused
        if pool is not None and not self._released \
                and sys.getrefcount(self._base) <= 2:
            try:
                pool._reclaim(self._successor())
            except Exception:  # noqa: BLE001 - never raise out of GC
                pass

    def _successor(self) -> "ZCBuffer":
        """A released buffer over this one's storage, for the free list
        (a collected object cannot be handed out again)."""
        buf = ZCBuffer.__new__(ZCBuffer)
        buf.capacity, buf._base, buf._offset = \
            self.capacity, self._base, self._offset
        buf._view, buf._length, buf._pool = None, self.capacity, self._pool
        buf._released, buf._release_lock = True, threading.Lock()
        return buf

    def _revive(self) -> None:
        self._released = False
        self._length = self.capacity

    def _check_live(self) -> None:
        if self._released:
            raise BufferError("use of a released ZCBuffer")

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        state = "released" if self._released else f"len={self._length}"
        return f"<ZCBuffer cap={self.capacity} {state} @0x{id(self):x}>"


class MappedBuffer(ZCBuffer):
    """A :class:`ZCBuffer` aliasing externally mapped memory.

    Backs the shared-memory deposit path: the buffer does not own (or
    allocate) its storage — it wraps a writable view of an arena slot
    that some other mapping object keeps alive.  ``address`` is the
    caller-supplied real address of that view, so the alignment checks
    of the deposit receiver keep working.

    ``on_release`` runs exactly once, on the first of an explicit
    :meth:`release` or garbage collection — arena slots are returned
    even when the application drops a landed sequence without releasing
    it (the common case for received payloads).
    """

    __slots__ = ("_address", "_finalizer", "__weakref__")

    def __init__(self, view, address: int,
                 on_release: Optional[Callable[[], None]] = None):
        mv = memoryview(view)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        if mv.nbytes <= 0:
            raise ValueError(f"mapped view must be non-empty, got {mv.nbytes}")
        if mv.readonly:
            raise ValueError("mapped view must be writable")
        self.capacity = mv.nbytes
        self._base = None
        self._offset = 0
        self._view = mv
        self._length = mv.nbytes
        self._pool = None
        self._released = False
        self._release_lock = threading.Lock()
        self._address = address
        self._finalizer = (weakref.finalize(self, on_release)
                           if on_release is not None else None)

    @property
    def address(self) -> int:
        self._check_live()
        return self._address

    def release(self) -> None:
        with self._release_lock:
            self._check_live()
            self._released = True
            # drop the exported view so the underlying mapping can close
            self._view = None
        if self._finalizer is not None:
            self._finalizer()  # runs on_release once; detaches from GC


class FileBackedBuffer(ZCBuffer):
    """A read-only :class:`ZCBuffer` whose payload lives in an open file.

    Wraps ``(fd, offset, count)`` — the three values ``os.sendfile``
    needs — so a disk-resident payload can be *registered* for direct
    deposit without ever being read into user space.  The TCP transport
    sends it with the kernel zero-copy path; transports without
    ``send_file`` (and the inline/copy fallbacks) call :meth:`view`,
    which lazily maps the file range and hands out a zero-copy
    ``memoryview`` of the page cache.

    With ``close_fd=True`` (or via :meth:`open`) the buffer owns the
    descriptor: a ``weakref.finalize`` closes it on the first of an
    explicit :meth:`release` or garbage collection, so descriptors are
    never leaked even when the application drops the buffer unreleased
    — the same guarantee :class:`MappedBuffer` gives arena slots.
    """

    __slots__ = ("fd", "offset", "_mmap", "_finalizer", "__weakref__")

    def __init__(self, fd: int, offset: int = 0,
                 count: Optional[int] = None, *, close_fd: bool = False):
        if count is None:
            count = max(os.fstat(fd).st_size - offset, 0)
        if offset < 0 or count < 0:
            raise ValueError(
                f"file range must be non-negative, got ({offset}, {count})")
        self.fd = fd
        self.offset = offset
        self.capacity = count
        self._length = count
        self._pool = None
        self._released = False
        self._release_lock = threading.Lock()
        self._base = None
        self._offset = 0
        self._view = None
        self._mmap = None
        self._finalizer = (weakref.finalize(self, os.close, fd)
                           if close_fd else None)

    @classmethod
    def open(cls, path, offset: int = 0,
             count: Optional[int] = None) -> "FileBackedBuffer":
        """Open ``path`` read-only and wrap the given range, owning the
        descriptor (closed on release or garbage collection)."""
        fd = os.open(os.fspath(path), os.O_RDONLY)
        try:
            return cls(fd, offset, count, close_fd=True)
        except BaseException:
            os.close(fd)
            raise

    @property
    def nbytes(self) -> int:
        """Payload size (memoryview-compatible spelling of ``length``)."""
        return self._length

    @property
    def address(self) -> int:
        # a file payload has no user-space address until mapped; this
        # buffer only ever appears on the *send* side, where alignment
        # is never checked
        self._check_live()
        return 0

    def view(self) -> memoryview:
        """Read-only view of the file range, mapped on first use.

        The mapping starts at the allocation-granularity boundary at or
        below ``offset`` (``mmap`` requires it) and the returned view is
        sliced to the exact payload range.
        """
        self._check_live()
        if self._length == 0:
            return memoryview(b"")
        if self._view is None:
            start = self.offset - (self.offset % mmap.ALLOCATIONGRANULARITY)
            delta = self.offset - start
            self._mmap = mmap.mmap(self.fd, self._length + delta,
                                   offset=start, access=mmap.ACCESS_READ)
            self._view = memoryview(self._mmap)[delta:delta + self._length]
        return self._view

    def full_view(self) -> memoryview:
        return self.view()

    def fill_from(self, data) -> None:
        raise BufferError("FileBackedBuffer is read-only")

    def release(self) -> None:
        with self._release_lock:
            self._check_live()
            self._released = True
            view, self._view = self._view, None
            mapping, self._mmap = self._mmap, None
        if view is not None:
            view.release()
        if mapping is not None:
            mapping.close()
        if self._finalizer is not None:
            self._finalizer()  # closes the owned fd once; detaches from GC

    def __repr__(self) -> str:
        state = "released" if self._released else f"len={self._length}"
        return (f"<FileBackedBuffer fd={self.fd} off={self.offset} "
                f"{state}>")


def _size_class(nbytes: int) -> int:
    """Round up to a whole number of pages, then to a power-of-two page
    count, so freed buffers are reusable across similar request sizes."""
    pages = max(1, -(-nbytes // PAGE_SIZE))
    return PAGE_SIZE * (1 << (pages - 1).bit_length())


class BufferPool:
    """Free lists of :class:`ZCBuffer` keyed by size class.

    Thread-safe; the receiver side of the ORB allocates deposit targets
    here on every direct-deposit request, so a warm pool removes the
    per-request allocation cost §2.1 identifies.

    Concurrency contract (audited for the pipelining ORB, where server
    workers and client readers lease/release in parallel):

    * every mutation of the free lists and counters happens under
      ``self._lock``; ``acquire`` revives and sizes the buffer while
      still holding it, so a concurrent ``acquire`` can never hand out
      the same free-list entry twice;
    * each live buffer has exactly one owner, who alone may call
      ``release()``; release is atomic per buffer and a double release
      raises :class:`BufferError` (from the buffer's own check-and-set
      or, failing that, the free-list identity check in ``_reclaim``);
      a buffer dropped unreleased comes back by reference count, as a
      fresh free-list entry over its storage (``ZCBuffer.__del__``);
    * the *contents* of a live buffer are not locked — single-owner
      access is the zero-copy deal, exactly as with a malloc'd region.
    """

    def __init__(self, max_cached_bytes: int = 256 * 1024 * 1024):
        self._free: dict[int, list[ZCBuffer]] = {}
        #: identities of the buffers currently on a free list — gives
        #: _reclaim an O(1) double-release check instead of scanning
        #: the (possibly long) free list per release
        self._free_ids: set[int] = set()
        #: reentrant: a buffer collected while this thread holds the
        #: lock (a GC pass inside acquire) reclaims through it
        self._lock = threading.RLock()
        self.max_cached_bytes = max_cached_bytes
        self.cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.reclaims = 0

    def acquire(self, nbytes: int) -> ZCBuffer:
        """Get a page-aligned buffer with capacity >= ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        cls = _size_class(nbytes)
        with self._lock:
            free = self._free.get(cls)
            if free:
                buf = free.pop()
                self._free_ids.discard(id(buf))
                self.cached_bytes -= buf.capacity
                self.hits += 1
                buf._revive()
                buf.set_length(nbytes)
                return buf
            self.misses += 1
        buf = ZCBuffer(cls, pool=self)
        buf.set_length(nbytes)
        return buf

    def _reclaim(self, buf: ZCBuffer) -> None:
        with self._lock:
            cls = buf.capacity
            if id(buf) in self._free_ids:
                raise BufferError("double release of a pooled ZCBuffer")
            if self.cached_bytes + cls <= self.max_cached_bytes:
                self._free.setdefault(cls, []).append(buf)
                self._free_ids.add(id(buf))
                self.cached_bytes += cls
                self.reclaims += 1
            # else: drop the buffer; GC frees the storage

    @property
    def cached_count(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._free.values())

    def stats(self) -> dict:
        """One consistent snapshot of the pool's counters (all fields
        copied under the lock, so a scrape never sees a torn
        cached_bytes/cached_count pair mid-release)."""
        with self._lock:
            return {
                "cached_bytes": self.cached_bytes,
                "cached_count": sum(len(v) for v in self._free.values()),
                "max_cached_bytes": self.max_cached_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "reclaims": self.reclaims,
            }

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._free_ids.clear()
            self.cached_bytes = 0


_default_pool: Optional[BufferPool] = None
_default_pool_lock = threading.Lock()


def default_pool() -> BufferPool:
    """The process-wide pool used when no explicit pool is supplied."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None:
            _default_pool = BufferPool()
        return _default_pool
