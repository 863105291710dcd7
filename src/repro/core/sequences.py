"""The octet-stream datatypes: standard and zero-copy sequences.

§4.1 picks ``sequence<octet>`` as the zero-copy candidate: an octet
undergoes no marshaling, and CORBA's stream semantics allow items to be
"accessed directly via a pointer to a memory buffer with variable
size".  §4.3 introduces ``ZC_Octet``, "whose representation and API is
isomorphic to the standard Octet while at the same time all
corresponding methods are modified to support zero-copy direct
deposit".

* :class:`OctetSequence` is MICO's ``SequenceTmpl<octet>``: it owns a
  growable ``bytearray`` (the STL ``vector<>`` analog) and its
  marshaler copies the payload into the request buffer.
* :class:`ZCOctetSequence` owns a page-aligned :class:`ZCBuffer` and is
  only ever passed by reference; its marshaler registers the buffer for
  direct deposit instead of copying (§4.4).

Both expose the same surface — ``length()``, indexing, ``memoryview``
access via :meth:`view`, ``tobytes()`` — so application code can switch
types by changing one IDL keyword, exactly as in the paper's test
setup.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .buffers import BufferPool, ZCBuffer, default_pool

__all__ = ["OctetSequence", "ZCOctetSequence", "as_octets"]

BytesLike = Union[bytes, bytearray, memoryview]


class _OctetBase:
    """Shared indexing/equality surface of the two sequence types."""

    def view(self) -> memoryview:  # pragma: no cover - overridden
        raise NotImplementedError

    def length(self, n: Optional[int] = None):
        """CORBA sequence ``length()``: getter, or resizing setter."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.length()

    def __getitem__(self, idx):
        got = self.view()[idx]
        return bytes(got) if isinstance(idx, slice) else got

    def __setitem__(self, idx, value) -> None:
        self.view()[idx] = value

    def __iter__(self):
        return iter(self.view())

    def tobytes(self) -> bytes:
        return self.view().tobytes()

    # bytes(seq) takes the view whole, not __iter__ one octet at a time
    __bytes__ = tobytes

    def __eq__(self, other) -> bool:
        if isinstance(other, _OctetBase):
            return self.view() == other.view()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.view() == memoryview(other).cast("B")
        return NotImplemented

    def __hash__(self):  # sequences are mutable
        raise TypeError(f"unhashable type: {type(self).__name__}")

    def __repr__(self) -> str:
        n = self.length()
        head = self.view()[: min(n, 8)].tobytes()
        suffix = "..." if n > 8 else ""
        return f"<{type(self).__name__} len={n} {head.hex()}{suffix}>"


class OctetSequence(_OctetBase):
    """Standard ``sequence<octet>`` with copying (vector-like) storage."""

    #: MICO-style type identifier (see repro.cdr.typecode)
    TID = "octet"

    def __init__(self, data: Union[BytesLike, Iterable[int], None] = None):
        if data is None:
            self._data = bytearray()
        elif isinstance(data, bytearray):
            self._data = data  # adopt: caller handed over ownership
        else:
            self._data = bytearray(data)

    def length(self, n: Optional[int] = None):
        if n is None:
            return len(self._data)
        if n < 0:
            raise ValueError(f"negative length: {n}")
        if n < len(self._data):
            del self._data[n:]
        else:
            self._data.extend(b"\0" * (n - len(self._data)))
        return None

    def view(self) -> memoryview:
        return memoryview(self._data)

    def append(self, data: BytesLike) -> None:
        self._data.extend(data)

    @property
    def is_zero_copy(self) -> bool:
        return False


class ZCOctetSequence(_OctetBase):
    """``sequence<ZC_Octet>`` — the paper's zero-copy octet stream.

    Backed by a page-aligned :class:`ZCBuffer`; construction with a
    length allocates from a pool, :meth:`adopt` wraps a buffer that was
    direct-deposited by the receiver, and :meth:`from_data` is the
    explicit (copying) producer entry point for application data that
    does not already live in aligned storage.
    """

    TID = "zc_octet"

    def __init__(self, n: int = 0, pool: Optional[BufferPool] = None):
        self._pool = pool or default_pool()
        self._buf: Optional[ZCBuffer] = None
        if n:
            self._buf = self._pool.acquire(n)

    # -- construction ---------------------------------------------------------
    @classmethod
    def adopt(cls, buf: ZCBuffer, pool: Optional[BufferPool] = None
              ) -> "ZCOctetSequence":
        """Wrap an existing aligned buffer without copying (§4.5:
        "a pointer is set to this buffer allowing the demarshaling
        routine to directly access the data")."""
        seq = cls(0, pool=pool)
        seq._buf = buf
        return seq

    @classmethod
    def from_data(cls, data: BytesLike, pool: Optional[BufferPool] = None
                  ) -> "ZCOctetSequence":
        """Allocate an aligned buffer and copy ``data`` in — the single
        producer-side touch the zero-copy regime permits."""
        src = memoryview(data).cast("B")
        seq = cls(src.nbytes or 1, pool=pool)
        assert seq._buf is not None
        seq._buf.fill_from(src)
        seq._buf.set_length(src.nbytes)
        return seq

    @classmethod
    def in_arena(cls, arena, data: Optional[BytesLike] = None,
                 n: int = 0) -> Optional["ZCOctetSequence"]:
        """Build the sequence directly inside a leased shm-arena slot.

        The producer-side staging copy happens *here* (or not at all,
        when the application fills the returned sequence in place), so
        marshaling and sending move only the slot reference — the
        paper's zero-copy send with the single permitted touch pushed
        to the point of data production.  Returns ``None`` when the
        arena cannot lease a slot (busy, closed, payload oversize);
        callers then fall back to :meth:`from_data`.
        """
        src = memoryview(data).cast("B") if data is not None else None
        need = src.nbytes if src is not None else n
        try_acquire = getattr(arena, "try_acquire", None)
        if try_acquire is None or need <= 0:
            return None
        buf = try_acquire(need)
        if buf is None:
            return None
        if src is not None:
            buf.view()[:] = src
        return cls.adopt(buf)

    # -- isomorphic API ---------------------------------------------------------
    def length(self, n: Optional[int] = None):
        if n is None:
            return self._buf.length if self._buf is not None else 0
        if n < 0:
            raise ValueError(f"negative length: {n}")
        if self._buf is None or n > self._buf.capacity:
            old = self._buf
            new = self._pool.acquire(max(n, 1))
            if old is not None:
                keep = min(n, old.length)
                new.full_view()[:keep] = old.view()[:keep]
                old.release()
            self._buf = new
        self._buf.set_length(n)
        return None

    def view(self) -> memoryview:
        if self._buf is None:
            return memoryview(b"")
        return self._buf.view()

    @property
    def buffer(self) -> Optional[ZCBuffer]:
        """The underlying aligned buffer (identity matters in tests)."""
        return self._buf

    @property
    def is_zero_copy(self) -> bool:
        return True

    @property
    def is_page_aligned(self) -> bool:
        return self._buf is None or self._buf.is_page_aligned

    def release(self) -> None:
        """Return the storage to the pool; the sequence becomes empty."""
        if self._buf is not None:
            self._buf.release()
            self._buf = None


def as_octets(value) -> _OctetBase:
    """Coerce bytes-like application data into a sequence parameter."""
    if isinstance(value, _OctetBase):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return OctetSequence(value)
    raise TypeError(
        f"cannot pass {type(value).__name__} as an octet sequence")
