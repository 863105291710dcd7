"""CDR (Common Data Representation) encoder.

Implements GIOP's on-the-wire data representation: primitive types at
their natural alignment (relative to the start of the message body),
strings as length-prefixed NUL-terminated byte runs, sequences as a
``ulong`` count followed by elements, and encapsulations whose first
octet is the byte-order flag.

Byte-order negotiation matters to the paper: GIOP messages declare the
sender's endianness and a *receiver-makes-right* reader converts only
on mismatch, which is what lets homogeneous clusters skip conversion
entirely (§2.1 "Bypass of Marshaling/Demarshaling").

Scatter/gather mode
-------------------

The encoder's output is a **chunk plan**, not a single buffer: an
ordered list of byte runs that concatenate to the CDR body.  Small
writes accumulate in a growing tail ``bytearray`` exactly as before;
:meth:`CDREncoder.put_view` *seals* the tail and appends the caller's
``memoryview`` by reference, so a large payload (a zero-copy sequence
carried inline, a fixed-stride numeric run) enters the plan without
ever being copied into the encoder.  :meth:`CDREncoder.chunks` hands
the plan to a gather-send (``Stream.sendv`` / ``socket.sendmsg``) with
no join; :meth:`CDREncoder.getvalue` joins for callers that need one
contiguous buffer (encapsulations, IORs, tests).

Referenced views must stay valid until the send completes — the GIOP
connection sends inside the same call stack that marshaled, so the
window is the synchronous ``send_message`` call.  Views smaller than
``sg_min_chunk`` are copied into the tail instead: a dozen 8-byte
iovec entries would cost more than the memcpy they avoid.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List

__all__ = ["CDREncoder", "NATIVE_LITTLE", "compiled_struct",
           "SG_MIN_CHUNK", "BATCH_FORMATS"]

NATIVE_LITTLE = sys.byteorder == "little"

_PAD = b"\x00" * 8

#: views at least this large enter the chunk plan by reference;
#: smaller ones are copied into the tail (one big memcpy beats many
#: tiny iovec entries, and small bodies keep their pre-chunking shape)
SG_MIN_CHUNK = 2048

#: every CDR primitive format, pre-compiled per byte order — a
#: ``struct.Struct`` skips the format-string parse that dominates
#: ``struct.pack``/``unpack_from`` for one-value formats
_PRIMITIVE_FMTS = "BhHiIqQfd"
_STRUCTS = {
    prefix: {fmt: struct.Struct(prefix + fmt) for fmt in _PRIMITIVE_FMTS}
    for prefix in ("<", ">")
}

#: CDR sizes of the fixed-stride formats (these are also the standard
#: '<'/'>'-prefix struct sizes, by definition)
_STD_SIZES = {"h": 2, "H": 2, "i": 4, "I": 4, "q": 8, "Q": 8,
              "f": 4, "d": 8}

#: formats whose native ``array``/``memoryview.cast`` width matches the
#: CDR wire width, so whole runs batch-convert without a struct loop.
#: (True on every mainstream platform; the guard keeps exotic ABIs on
#: the per-element path instead of writing wrong widths.)
BATCH_FORMATS = frozenset(
    fmt for fmt, size in _STD_SIZES.items()
    if struct.calcsize(fmt) == size and array(fmt).itemsize == size)


def compiled_struct(prefix: str, fmt: str) -> struct.Struct:
    """The cached compiled ``Struct`` for ``prefix + fmt`` (compiling
    and caching on first use for formats beyond the CDR primitives)."""
    table = _STRUCTS[prefix]
    s = table.get(fmt)
    if s is None:
        s = table[fmt] = struct.Struct(prefix + fmt)
    return s


class CDREncoder:
    """Append-only CDR output producing a scatter/gather chunk plan.

    ``little_endian`` selects the wire byte order (defaults to the
    native order, the homogeneous-cluster fast path).  ``offset`` is
    where this body starts within the enclosing GIOP message, so that
    alignment is computed relative to the message, not the buffer.
    ``sg_min_chunk`` tunes the reference-vs-copy threshold of
    :meth:`put_view`; a very large value degrades to the pre-chunking
    single-buffer behaviour (used by the bench's blob baseline).
    """

    def __init__(self, little_endian: bool = NATIVE_LITTLE, offset: int = 0,
                 sg_min_chunk: int = SG_MIN_CHUNK):
        self.little_endian = little_endian
        self._prefix = "<" if little_endian else ">"
        self._structs = _STRUCTS[self._prefix]
        self._chunks: List = []   # sealed chunks (bytearray | memoryview)
        self._sealed = 0          # total bytes across sealed chunks
        self._buf = bytearray()   # growing tail
        self._offset = offset
        self._sg_min = sg_min_chunk
        #: bytes that entered the plan by reference (never copied here)
        self.referenced_nbytes = 0

    # -- low level ------------------------------------------------------------
    def align(self, n: int) -> None:
        """Pad so the next write lands on an ``n``-byte boundary."""
        pos = self._offset + self._sealed + len(self._buf)
        pad = (-pos) % n
        if pad:
            self._buf += _PAD[:pad]

    def write_raw(self, data) -> None:
        self._buf += data

    def put_view(self, view) -> None:
        """Append a byte run; large runs by reference (no copy).

        The zero-copy entry point of the chunk plan: at or above the
        ``sg_min_chunk`` threshold the view itself becomes a chunk and
        the caller's buffer must stay alive and unmodified until the
        plan is consumed.  Below it, the bytes are copied into the
        tail — byte-for-byte the same wire output either way.
        """
        if not isinstance(view, memoryview):
            view = memoryview(view)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        if view.nbytes < self._sg_min:
            self._buf += view
            return
        if self._buf:
            self._chunks.append(self._buf)
            self._sealed += len(self._buf)
            self._buf = bytearray()
        self._chunks.append(view)
        self._sealed += view.nbytes
        self.referenced_nbytes += view.nbytes

    def _pack(self, fmt: str, value) -> None:
        s = self._structs.get(fmt) or compiled_struct(self._prefix, fmt)
        self._buf += s.pack(value)

    # -- primitives ------------------------------------------------------------
    def put_octet(self, v: int) -> None:
        self._pack("B", v)

    def put_boolean(self, v: bool) -> None:
        self._pack("B", 1 if v else 0)

    def put_char(self, v: str) -> None:
        b = v.encode("latin-1")
        if len(b) != 1:
            raise ValueError(f"char must be a single byte, got {v!r}")
        self._buf += b

    def put_short(self, v: int) -> None:
        self.align(2)
        self._pack("h", v)

    def put_ushort(self, v: int) -> None:
        self.align(2)
        self._pack("H", v)

    def put_long(self, v: int) -> None:
        self.align(4)
        self._pack("i", v)

    def put_ulong(self, v: int) -> None:
        self.align(4)
        self._pack("I", v)

    def put_longlong(self, v: int) -> None:
        self.align(8)
        self._pack("q", v)

    def put_ulonglong(self, v: int) -> None:
        self.align(8)
        self._pack("Q", v)

    def put_float(self, v: float) -> None:
        self.align(4)
        self._pack("f", v)

    def put_double(self, v: float) -> None:
        self.align(8)
        self._pack("d", v)

    # -- composite helpers ------------------------------------------------------
    def put_string(self, v: str) -> None:
        data = v.encode("utf-8")
        self.put_ulong(len(data) + 1)
        self._buf += data
        self._buf += b"\x00"

    def put_octets(self, data) -> None:
        """Length-prefixed octet run (``sequence<octet>`` body), copied
        into the tail — the *standard* (copying) sequence path."""
        view = memoryview(data).cast("B") if not isinstance(data, bytes) \
            else data
        self.put_ulong(len(view))
        self._buf += view

    def put_octets_view(self, view) -> None:
        """Length-prefixed octet run entering the plan by reference —
        the scatter/gather path for payloads that must not be copied."""
        if not isinstance(view, memoryview):
            view = memoryview(view)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        self.put_ulong(view.nbytes)
        self.put_view(view)

    def put_encapsulation(self, inner: "CDREncoder") -> None:
        """Emit ``inner`` as a CDR encapsulation octet sequence.

        An encapsulation aligns from its byte-order octet, so ``inner``
        must be made with ``offset=1``.
        """
        if inner._offset != 1:
            raise ValueError("an encapsulation's encoder needs offset=1")
        body = bytearray([1 if inner.little_endian else 0])
        body += inner.getvalue()
        self.put_octets(bytes(body))

    # -- results -----------------------------------------------------------------
    def chunks(self) -> List:
        """The chunk plan: byte runs concatenating to the CDR body.

        The returned list is a snapshot; sealed chunks are shared (not
        copied), so the plan must be consumed before any referenced
        application buffer is mutated.
        """
        out = list(self._chunks)
        if self._buf:
            out.append(self._buf)
        return out

    def getvalue(self) -> bytes:
        """The body as one contiguous buffer (joins the chunk plan)."""
        if not self._chunks:
            return bytes(self._buf)
        return b"".join(self.chunks())

    def view(self) -> memoryview:
        return memoryview(self.getvalue())

    def __len__(self) -> int:
        return self._sealed + len(self._buf)

    @property
    def nbytes(self) -> int:
        """Total body bytes across the whole chunk plan."""
        return self._sealed + len(self._buf)

    @property
    def pos(self) -> int:
        """Current position relative to the message start."""
        return self._offset + self._sealed + len(self._buf)
