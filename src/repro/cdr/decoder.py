"""CDR decoder (receiver-makes-right).

Reads the wire format produced by :class:`repro.cdr.encoder.CDREncoder`.
The decoder works over a :class:`memoryview`, so demarshaling an octet
stream can return a *slice* of the receive buffer instead of a copy —
see :meth:`CDRDecoder.get_view` — which the zero-copy demarshaler uses
when the payload was already landed in its final buffer (§4.5).

Fixed-stride runs (homogeneous numeric sequences) batch-decode via
:meth:`CDRDecoder.get_array`: when the wire byte order matches the
native one, a single ``memoryview.cast`` converts the whole run at C
speed; on mismatch one ``array.byteswap`` pass fixes the order — either
way the per-element ``unpack_from`` loop (and its per-element align)
disappears from the hot path.
"""

from __future__ import annotations

from array import array
from typing import List

from .encoder import _STD_SIZES, _STRUCTS, BATCH_FORMATS, NATIVE_LITTLE, \
    compiled_struct

__all__ = ["CDRDecoder", "CDRError"]


class CDRError(ValueError):
    """Malformed CDR data (truncation, bad length, bad char)."""


class CDRDecoder:
    """Sequential reader over one CDR-encoded message body."""

    def __init__(self, data, little_endian: bool = NATIVE_LITTLE,
                 offset: int = 0):
        self._view = memoryview(data)
        if self._view.format != "B":
            self._view = self._view.cast("B")
        self.little_endian = little_endian
        self._prefix = "<" if little_endian else ">"
        self._structs = _STRUCTS[self._prefix]
        self._pos = 0
        self._offset = offset

    # -- low level ------------------------------------------------------------
    def align(self, n: int) -> None:
        pad = (-(self._offset + self._pos)) % n
        self._advance(pad)

    def _advance(self, n: int) -> int:
        if self._pos + n > len(self._view):
            raise CDRError(
                f"CDR underrun: need {n} bytes at {self._pos}, "
                f"have {len(self._view) - self._pos}")
        pos = self._pos
        self._pos += n
        return pos

    def _unpack(self, fmt: str, size: int):
        pos = self._advance(size)
        s = self._structs.get(fmt) or compiled_struct(self._prefix, fmt)
        return s.unpack_from(self._view, pos)[0]

    def unpack(self, s) -> tuple:
        """The values of one precompiled ``struct.Struct`` read at the
        current position; its format carries its own alignment pads."""
        pos = self._pos
        if pos + s.size > len(self._view):
            raise CDRError(
                f"CDR underrun: need {s.size} bytes at {pos}, "
                f"have {len(self._view) - pos}")
        self._pos = pos + s.size
        return s.unpack_from(self._view, pos)

    @property
    def remaining(self) -> int:
        return len(self._view) - self._pos

    @property
    def pos(self) -> int:
        return self._offset + self._pos

    def tell(self) -> int:
        """Raw cursor for save/restore (pairs with :meth:`seek`)."""
        return self._pos

    def seek(self, raw_pos: int) -> None:
        if not 0 <= raw_pos <= len(self._view):
            raise CDRError(f"seek to {raw_pos} outside buffer")
        self._pos = raw_pos

    # -- primitives ------------------------------------------------------------
    def get_octet(self) -> int:
        return self._unpack("B", 1)

    def get_boolean(self) -> bool:
        return bool(self._unpack("B", 1))

    def get_char(self) -> str:
        return chr(self._unpack("B", 1))

    def get_short(self) -> int:
        self.align(2)
        return self._unpack("h", 2)

    def get_ushort(self) -> int:
        self.align(2)
        return self._unpack("H", 2)

    def get_long(self) -> int:
        self.align(4)
        return self._unpack("i", 4)

    def get_ulong(self) -> int:
        self.align(4)
        return self._unpack("I", 4)

    def get_longlong(self) -> int:
        self.align(8)
        return self._unpack("q", 8)

    def get_ulonglong(self) -> int:
        self.align(8)
        return self._unpack("Q", 8)

    def get_float(self) -> float:
        self.align(4)
        return self._unpack("f", 4)

    def get_double(self) -> float:
        self.align(8)
        return self._unpack("d", 8)

    # -- composite helpers ------------------------------------------------------
    def get_string(self) -> str:
        n = self.get_ulong()
        if n == 0:
            raise CDRError("CDR string with zero length (missing NUL)")
        pos = self._advance(n)
        raw = self._view[pos:pos + n]
        if raw[-1] != 0:
            raise CDRError("CDR string not NUL-terminated")
        return bytes(raw[:-1]).decode("utf-8")

    def get_octets(self) -> bytes:
        """Length-prefixed octet run, copied out as ``bytes``."""
        n = self.get_ulong()
        pos = self._advance(n)
        return bytes(self._view[pos:pos + n])

    def get_view(self, n: int) -> memoryview:
        """A zero-copy window of ``n`` raw bytes at the current position."""
        pos = self._advance(n)
        return self._view[pos:pos + n]

    def get_array(self, fmt: str, count: int) -> List:
        """Batch-read ``count`` fixed-stride primitives as a list.

        ``fmt`` is a CDR numeric struct format (hHiIqQfd).  Alignment,
        wire bytes, and returned values are identical to ``count``
        single-element reads; only the per-element Python loop is gone.
        Raises ``LookupError`` when this platform cannot batch the
        format — callers fall back to the element loop.
        """
        if fmt not in BATCH_FORMATS:
            raise LookupError(f"no batch path for format {fmt!r}")
        if count == 0:
            # an empty run reads nothing — aligning here would skip
            # bytes the element loop never wrote
            return []
        size = _STD_SIZES[fmt]
        self.align(size)
        view = self.get_view(size * count)
        if self.little_endian == NATIVE_LITTLE:
            # matching order: one cast converts the run at C speed
            return view.cast(fmt).tolist()
        a = array(fmt)
        a.frombytes(view)
        a.byteswap()
        return a.tolist()

    def get_encapsulation(self) -> "CDRDecoder":
        """Enter a CDR encapsulation; returns a fresh decoder for it."""
        n = self.get_ulong()
        if n < 1:
            raise CDRError("empty CDR encapsulation")
        pos = self._advance(n)
        body = self._view[pos:pos + n]
        # aligned from the byte-order octet, as it was encoded
        return CDRDecoder(body[1:], little_endian=bool(body[0]), offset=1)
