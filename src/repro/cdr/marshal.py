"""Marshalers: TypeCode-driven conversion between values and CDR.

Mirrors MICO's structure (§4.2): a virtual base with ``marshal`` /
``demarshal``, one concrete subclass per parameter type, selected
statically by TID.  Three of them matter to the paper:

* :class:`TCGeneric` sequences — "a very general unoptimized copy loop
  that is able to handle all different data types correctly" (§5.2);
  this per-element path is what the real MICO used even for octets.
* :class:`TCSeqOctet` — the specialized bulk path for
  ``sequence<octet>`` (one contiguous copy instead of a loop).
* :class:`TCSeqZCOctet` — the zero-copy path (§4.4): the payload is
  *registered* with the connection's :class:`DepositRegistry` and only
  a deposit-id reference enters the message body; the descriptor
  travels in the GIOP service context so the receiver can prepare the
  landing buffer before the data arrives.

A :class:`MarshalContext` carries the per-message deposit state and an
optional instrumentation hook (used by the simulated testbed to charge
modelled per-byte costs, and by the §5.2-style overhead breakdown).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..core.buffers import FileBackedBuffer, ZCBuffer
from ..core.direct_deposit import (DEPOSIT_MAGIC, DEPOSIT_MIN_SIZE,
                                   DepositRegistry)
from ..core.sequences import OctetSequence, ZCOctetSequence
from .decoder import CDRDecoder
from .encoder import _STD_SIZES, BATCH_FORMATS, NATIVE_LITTLE, CDREncoder
from .typecode import TCKind, TypeCode

__all__ = [
    "MarshalContext", "MarshalError", "Marshaller",
    "TCPrimitive", "TCString", "TCSeqOctet", "TCSeqZCOctet",
    "TCGenericSequence", "TCNumericSequence", "TCArray", "TCStruct",
    "TCEnum", "TCExcept",
    "get_marshaller", "register_value_class", "lookup_value_class",
    "StructValue",
]

_INLINE_MARKER = 0  #: zc payload carried inline (no deposit channel)


class MarshalError(ValueError):
    """Value does not fit its TypeCode, or the stream is inconsistent."""


@dataclass
class MarshalContext:
    """Per-message marshaling state.

    Sender side: ``registry`` collects zero-copy payloads and
    ``descriptors`` the matching wire descriptors (the connection copies
    them into the request's service context).  Receiver side:
    ``deposits`` maps deposit-id to the already-landed aligned buffer.
    ``on_bytes`` is an instrumentation callback ``(kind, nbytes)`` with
    kind one of ``"marshal"``, ``"marshal-bulk"``, ``"reference"``.
    """

    registry: Optional[DepositRegistry] = None
    descriptors: list = field(default_factory=list)
    deposits: Dict[int, ZCBuffer] = field(default_factory=dict)
    on_bytes: Optional[Callable[[str, int], None]] = None
    #: force MICO's per-element loop even for plain octet sequences
    #: (the unoptimized behaviour §5.2 profiles; used by ablations)
    generic_loop: bool = False
    #: the local ORB, needed to turn demarshaled IORs into live stubs
    orb: Any = None
    #: deposit-id -> descriptor flags (payload byte order, §4.1 numeric
    #: zero-copy sequences); populated by the connection layer
    deposit_flags: Dict[int, int] = field(default_factory=dict)
    #: the connection's shared-memory send arena (a
    #: :class:`repro.transport.shm.ShmArena`), when the transport has
    #: one: zero-copy payloads are staged *into a slot at encode time*
    #: so the send is a pure slot reference — the paper's marshaling
    #: bypass carried one layer further
    arena: Any = None
    #: arena buffers leased during marshal; the connection releases
    #: them after the send (posted slots make release a no-op, an
    #: aborted send returns the slot to the arena)
    staged: list = field(default_factory=list)

    def note(self, kind: str, nbytes: int) -> None:
        if self.on_bytes is not None:
            self.on_bytes(kind, nbytes)

    def stage_in_arena(self, view: memoryview) -> Optional[memoryview]:
        """Copy ``view`` into a freshly leased arena slot, or ``None``.

        Returns the slot view to register in place of the caller's
        buffer.  ``None`` (no arena, payload oversize/empty, already
        arena-resident, slots exhausted) keeps the original view — the
        send-time path then copies or falls back inline as before.
        The copy performed here is the same single producer-side copy
        the send path would otherwise perform inside ``send_deposit``;
        staging merely moves it into the marshal stage so the send
        becomes a reference post.
        """
        arena = self.arena
        if arena is None or getattr(arena, "closed", True) \
                or not 0 < view.nbytes <= arena.slot_size:
            return None
        if arena.locate(view) is not None:
            return None  # already staged by the application
        buf = arena.try_acquire(view.nbytes)
        if buf is None:
            return None
        buf.view()[:] = view
        self.staged.append(buf)
        return buf.view()

    def in_arena(self, view: memoryview) -> bool:
        """Whether ``view`` already lives in the send arena (staged by
        the application, or a hub's shared fan-out slot)."""
        arena = self.arena
        return arena is not None and not getattr(arena, "closed", True) \
            and arena.locate(view) is not None

    def release_staged(self) -> None:
        """Release every leased slot (no-op for slots the send posted)."""
        staged, self.staged = self.staged, []
        for buf in staged:
            try:
                buf.release()
            except Exception:
                pass  # already released (e.g. a retry reusing the ctx)


_EMPTY_CTX = MarshalContext()


class Marshaller:
    """Abstract marshal/demarshal pair for one TypeCode."""

    def __init__(self, tc: TypeCode):
        self.tc = tc

    def marshal(self, enc: CDREncoder, value: Any,
                ctx: MarshalContext = _EMPTY_CTX) -> None:
        raise NotImplementedError

    def demarshal(self, dec: CDRDecoder,
                  ctx: MarshalContext = _EMPTY_CTX) -> Any:
        raise NotImplementedError


class TCPrimitive(Marshaller):
    """All fixed-size basic types, dispatched by kind."""

    _PUT = {
        TCKind.tk_boolean: CDREncoder.put_boolean,
        TCKind.tk_char: CDREncoder.put_char,
        TCKind.tk_octet: CDREncoder.put_octet,
        TCKind.tk_short: CDREncoder.put_short,
        TCKind.tk_ushort: CDREncoder.put_ushort,
        TCKind.tk_long: CDREncoder.put_long,
        TCKind.tk_ulong: CDREncoder.put_ulong,
        TCKind.tk_longlong: CDREncoder.put_longlong,
        TCKind.tk_ulonglong: CDREncoder.put_ulonglong,
        TCKind.tk_float: CDREncoder.put_float,
        TCKind.tk_double: CDREncoder.put_double,
    }
    _GET = {
        TCKind.tk_boolean: CDRDecoder.get_boolean,
        TCKind.tk_char: CDRDecoder.get_char,
        TCKind.tk_octet: CDRDecoder.get_octet,
        TCKind.tk_short: CDRDecoder.get_short,
        TCKind.tk_ushort: CDRDecoder.get_ushort,
        TCKind.tk_long: CDRDecoder.get_long,
        TCKind.tk_ulong: CDRDecoder.get_ulong,
        TCKind.tk_longlong: CDRDecoder.get_longlong,
        TCKind.tk_ulonglong: CDRDecoder.get_ulonglong,
        TCKind.tk_float: CDRDecoder.get_float,
        TCKind.tk_double: CDRDecoder.get_double,
    }

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        try:
            self._put = self._PUT[tc.kind]
            self._get = self._GET[tc.kind]
        except KeyError:
            raise MarshalError(f"not a primitive TypeCode: {tc}") from None

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        try:
            self._put(enc, value)
        except (TypeError, ValueError, struct.error) as e:
            raise MarshalError(
                f"cannot marshal {value!r} as {self.tc.kind.name}: {e}") from e

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        return self._get(dec)


class TCString(Marshaller):
    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        if not isinstance(value, str):
            raise MarshalError(f"expected str, got {type(value).__name__}")
        if self.tc.length and len(value) > self.tc.length:
            raise MarshalError(
                f"string of {len(value)} exceeds bound {self.tc.length}")
        enc.put_string(value)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        s = dec.get_string()
        if self.tc.length and len(s) > self.tc.length:
            raise MarshalError(
                f"string of {len(s)} exceeds bound {self.tc.length}")
        return s


def _as_byte_view(value) -> memoryview:
    if isinstance(value, (OctetSequence, ZCOctetSequence)):
        return value.view()
    if isinstance(value, (bytes, bytearray, memoryview)):
        view = memoryview(value)
        return view if view.format == "B" and view.ndim == 1 else view.cast("B")
    raise MarshalError(
        f"expected bytes-like or octet sequence, got {type(value).__name__}")


class TCSeqOctet(Marshaller):
    """``sequence<octet>``: bulk copy in and out of the message buffer.

    This is the *optimized-but-still-copying* path.  With
    ``ctx.generic_loop`` it degrades to MICO's authentic per-element
    loop, which is what the paper's §5.2 profiling blames for the
    50 MBit/s ceiling.
    """

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        view = _as_byte_view(value)
        if self.tc.length and view.nbytes > self.tc.length:
            raise MarshalError(
                f"sequence of {view.nbytes} exceeds bound {self.tc.length}")
        if ctx.generic_loop:
            enc.put_ulong(view.nbytes)
            for b in view:  # the "very general unoptimized copy loop"
                enc.put_octet(b)
            ctx.note("marshal", view.nbytes)
        else:
            enc.put_octets(view)
            ctx.note("marshal-bulk", view.nbytes)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        n = dec.get_ulong()
        if self.tc.length and n > self.tc.length:
            raise MarshalError(f"sequence of {n} exceeds bound {self.tc.length}")
        if ctx.generic_loop:
            data = bytearray(n)
            for i in range(n):
                data[i] = dec.get_octet()
            ctx.note("marshal", n)
            return OctetSequence(data)
        view = dec.get_view(n)
        ctx.note("marshal-bulk", n)
        return OctetSequence(bytearray(view))  # copy: std sequence owns data


#: descriptor flag bit: the deposited payload is little-endian
FLAG_PAYLOAD_LITTLE = 0x0001

#: numpy dtype (native order) per zero-copy element kind
_ZC_DTYPES = {
    TCKind.tk_octet: "u1", TCKind.tk_short: "i2", TCKind.tk_ushort: "u2",
    TCKind.tk_long: "i4", TCKind.tk_ulong: "u4",
    TCKind.tk_longlong: "i8", TCKind.tk_ulonglong: "u8",
    TCKind.tk_float: "f4", TCKind.tk_double: "f8",
}


class TCSeqZCOctet(Marshaller):
    """Zero-copy sequences: pass-by-reference direct deposit (§4.4).

    Covers ``sequence<ZC_Octet>`` and its numeric generalization
    (§4.1).  With a deposit registry in the context, a payload of at
    least ``DEPOSIT_MIN_SIZE`` bytes, or one that already lives in the
    send arena, is registered and only ``(DEPOSIT_MAGIC, deposit_id)``
    is written; a smaller one, or any without a registry (local calls,
    ``force_copy`` retries, ``any``), is carried inline by reference,
    flagged by an ``_INLINE_MARKER``, and lands by one copy.

    Numeric elements: values are 1-D numpy arrays.  The descriptor
    records the payload's byte order; a receiver of the opposite
    architecture fixes the landed buffer up *in place* (one pass —
    receiver-makes-right without abandoning the deposit).  Demarshaled
    arrays alias the landed buffer: zero middleware copies.
    """

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        elem = tc.content.kind if tc.content is not None else TCKind.tk_octet
        self._elem_kind = elem
        try:
            self._dtype = np.dtype(_ZC_DTYPES[elem])
        except KeyError:
            raise MarshalError(
                f"{elem.name} is not a zero-copy element type") from None
        self._is_octet = elem is TCKind.tk_octet

    # -- value coercion ----------------------------------------------------
    def _as_view(self, value) -> tuple:
        """-> (byte view, payload_little_endian)."""
        if isinstance(value, np.ndarray):
            if value.ndim != 1:
                raise MarshalError(
                    f"zero-copy sequences are 1-D, got shape {value.shape}")
            if value.dtype.itemsize != self._dtype.itemsize or \
                    value.dtype.kind != self._dtype.kind:
                raise MarshalError(
                    f"array dtype {value.dtype} does not match element "
                    f"type {self._elem_kind.name}")
            if not value.flags.c_contiguous:
                value = np.ascontiguousarray(value)
            byteorder = value.dtype.byteorder
            little = (byteorder == "<" or
                      (byteorder in ("=", "|") and NATIVE_LITTLE))
            return memoryview(value).cast("B"), little
        if self._is_octet:
            return _as_byte_view(value), NATIVE_LITTLE
        raise MarshalError(
            f"expected a numpy array for sequence<zc_"
            f"{self._elem_kind.name[3:]}>, got {type(value).__name__}")

    def _element_count(self, nbytes: int) -> int:
        if nbytes % self._dtype.itemsize:
            raise MarshalError(
                f"payload of {nbytes} bytes is not a whole number of "
                f"{self._dtype.itemsize}-byte elements")
        return nbytes // self._dtype.itemsize

    def _check_bound(self, nbytes: int) -> None:
        if self.tc.length and self._element_count(nbytes) > self.tc.length:
            raise MarshalError(
                f"sequence of {self._element_count(nbytes)} exceeds "
                f"bound {self.tc.length}")

    # -- marshal -----------------------------------------------------------
    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        if isinstance(value, FileBackedBuffer):
            return self._marshal_file(enc, value, ctx)
        view, little = self._as_view(value)
        self._check_bound(view.nbytes)
        if ctx.registry is not None and (
                view.nbytes >= DEPOSIT_MIN_SIZE or ctx.in_arena(view)):
            staged = ctx.stage_in_arena(view)
            if staged is not None:
                # encode-into-arena: the deposit now references a
                # posted-to-be slot; send_deposit's locate() hits the
                # reference path and no further copy happens
                view = staged
            flags = FLAG_PAYLOAD_LITTLE if little else 0
            desc = ctx.registry.register(view, flags=flags)
            ctx.descriptors.append(desc)
            enc.put_ulong(DEPOSIT_MAGIC)
            enc.put_ulong(desc.deposit_id)
            ctx.note("reference", view.nbytes)
        else:
            enc.put_ulong(_INLINE_MARKER)
            if little != enc.little_endian and self._dtype.itemsize > 1:
                # inline fallback converts to the stream's byte order
                arr = np.frombuffer(view, dtype=self._dtype).byteswap()
                view = memoryview(arr).cast("B")
            # by reference into the chunk plan (the gather-send writes
            # straight from the payload); the byte-kind stays
            # "marshal-bulk" — it feeds the modelled 2003 cost, where
            # inline carriage means a copy on the modelled machine
            enc.put_octets_view(view)
            ctx.note("marshal-bulk", view.nbytes)

    def _marshal_file(self, enc, value: FileBackedBuffer, ctx) -> None:
        """A file-backed payload: register the buffer *object* so the
        connection can route it by tier — kernel sendfile on TCP,
        arena staging on shm, mapped-view copy everywhere else.  Octet
        element kind only: a file range has no element byte order."""
        if not self._is_octet:
            raise MarshalError(
                "file-backed payloads are sequence<zc_octet> only, not "
                f"sequence<zc_{self._elem_kind.name[3:]}>")
        self._check_bound(value.nbytes)
        flags = FLAG_PAYLOAD_LITTLE if NATIVE_LITTLE else 0
        if ctx.registry is not None and value.nbytes >= DEPOSIT_MIN_SIZE:
            staged = ctx.stage_in_arena(value.view())
            payload = staged if staged is not None else value
            desc = ctx.registry.register(payload, flags=flags)
            ctx.descriptors.append(desc)
            enc.put_ulong(DEPOSIT_MAGIC)
            enc.put_ulong(desc.deposit_id)
            ctx.note("reference", value.nbytes)
        else:
            # no deposit path (local call, force_copy retry) or too small
            # to pay for one: the file range travels inline as a mapped
            # view
            enc.put_ulong(_INLINE_MARKER)
            enc.put_octets_view(value.view())
            ctx.note("marshal-bulk", value.nbytes)

    # -- demarshal -----------------------------------------------------------
    def _wrap(self, buf: ZCBuffer, payload_little: bool):
        """Alias the landed buffer as the right value type."""
        if self._is_octet:
            return ZCOctetSequence.adopt(buf)
        arr = np.frombuffer(buf.view(), dtype=self._dtype)
        if payload_little != NATIVE_LITTLE:
            # heterogeneous peer: one in-place pass fixes the order
            arr.byteswap(inplace=True)
        return arr

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        marker = dec.get_ulong()
        if marker == DEPOSIT_MAGIC:
            dep_id = dec.get_ulong()
            try:
                buf = ctx.deposits.pop(dep_id)
            except KeyError:
                raise MarshalError(
                    f"deposit {dep_id} referenced but never landed") from None
            self._check_bound(buf.length)
            flags = ctx.deposit_flags.get(dep_id,
                                          FLAG_PAYLOAD_LITTLE if NATIVE_LITTLE
                                          else 0)
            ctx.note("reference", buf.length)
            return self._wrap(buf, bool(flags & FLAG_PAYLOAD_LITTLE))
        if marker == _INLINE_MARKER:
            n = dec.get_ulong()
            view = dec.get_view(n)
            self._check_bound(n)
            ctx.note("marshal-bulk", n)
            if self._is_octet:
                return ZCOctetSequence.from_data(view)
            arr = np.frombuffer(view, dtype=self._dtype).copy()
            if dec.little_endian != NATIVE_LITTLE:
                arr.byteswap(inplace=True)
            return arr
        raise MarshalError(f"bad zc-sequence marker 0x{marker:08x}")


class TCAny(Marshaller):
    """``any``: a TypeCode followed by the value it describes.

    Values are :class:`repro.cdr.any.Any` pairs.  Zero-copy sequences
    inside an ``any`` are carried inline (self-contained encoding), so
    the deposit registry is deliberately not offered to the nested
    marshal.
    """

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        from .any import Any, encode_typecode
        if not isinstance(value, Any):
            raise MarshalError(
                f"expected cdr.Any, got {type(value).__name__}")
        encode_typecode(enc, value.tc)
        inner_ctx = MarshalContext(on_bytes=ctx.on_bytes,
                                   generic_loop=ctx.generic_loop,
                                   orb=ctx.orb)
        get_marshaller(value.tc).marshal(enc, value.value, inner_ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        from .any import Any, decode_typecode
        tc = decode_typecode(dec)
        inner_ctx = MarshalContext(on_bytes=ctx.on_bytes,
                                   generic_loop=ctx.generic_loop,
                                   orb=ctx.orb)
        value = get_marshaller(tc).demarshal(dec, inner_ctx)
        return Any(tc, value)


class TCObjRef(Marshaller):
    """Object references: an inline IOR on the wire; nil is the empty
    IOR (type id "" with zero profiles)."""

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        if value is None:
            enc.put_string("")
            enc.put_ulong(0)
            return
        ior = getattr(value, "ior", None) or getattr(value, "_ior", None)
        if ior is None:
            raise MarshalError(
                f"cannot marshal {type(value).__name__} as an object "
                f"reference (no IOR; pass a stub, not a servant)")
        enc.put_string(ior.type_id)
        enc.put_ulong(len(ior.profiles))
        for tag, data in ior.profiles:
            enc.put_ulong(tag)
            enc.put_octets(data)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        type_id = dec.get_string()
        n = dec.get_ulong()
        profiles = tuple((dec.get_ulong(), dec.get_octets())
                         for _ in range(n))
        if not type_id and not profiles:
            return None
        if ctx.orb is None:
            raise MarshalError(
                f"demarshaled reference to {type_id!r} but no ORB in "
                f"context to bind it")
        from ..giop.ior import IOR
        return ctx.orb._stub_for(IOR(type_id=type_id, profiles=profiles),
                                 None)


class TCGenericSequence(Marshaller):
    """Unbounded/bounded sequences of any element type (element loop)."""

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        assert tc.content is not None
        self._elem = get_marshaller(tc.content)

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        items = list(value)
        if self.tc.length and len(items) > self.tc.length:
            raise MarshalError(
                f"sequence of {len(items)} exceeds bound {self.tc.length}")
        enc.put_ulong(len(items))
        for item in items:
            self._elem.marshal(enc, item, ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        n = dec.get_ulong()
        if self.tc.length and n > self.tc.length:
            raise MarshalError(f"sequence of {n} exceeds bound {self.tc.length}")
        return [self._elem.demarshal(dec, ctx) for _ in range(n)]


#: struct format per batchable numeric element kind (fixed CDR stride)
_NUMERIC_FMTS = {
    TCKind.tk_short: "h", TCKind.tk_ushort: "H",
    TCKind.tk_long: "i", TCKind.tk_ulong: "I",
    TCKind.tk_longlong: "q", TCKind.tk_ulonglong: "Q",
    TCKind.tk_float: "f", TCKind.tk_double: "d",
}


class TCNumericSequence(TCGenericSequence):
    """Fixed-stride numeric sequences batched in one C-level pass.

    Same wire bytes as the generic element loop (the per-element align
    is a no-op after the first element of a fixed-stride run), but the
    whole run converts via one ``array`` build on encode and one
    ``memoryview.cast``/``byteswap`` on decode.  Any value the batch
    path cannot express (a bool where an int belongs, an overflowing
    element, a platform without the batch format) falls back to the
    inherited loop so error semantics stay identical.
    """

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        self._fmt = _NUMERIC_FMTS[tc.content.kind]

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        if ctx.generic_loop:
            super().marshal(enc, value, ctx)
            return
        items = value
        if isinstance(value, np.ndarray):
            if value.ndim != 1:
                raise MarshalError(
                    f"sequence value must be 1-D, got shape {value.shape}")
            items = value.tolist()  # exact per-element semantics (bounds!)
        else:
            items = list(value)
        if self.tc.length and len(items) > self.tc.length:
            raise MarshalError(
                f"sequence of {len(items)} exceeds bound {self.tc.length}")
        # build the run *before* the count hits the stream, so a bad
        # element can still fall back without corrupting the output
        try:
            arr = array(self._fmt, items)
        except (LookupError, TypeError, ValueError, OverflowError):
            super().marshal(enc, items, ctx)
            return
        if self._fmt not in BATCH_FORMATS:
            super().marshal(enc, items, ctx)
            return
        if enc.little_endian != NATIVE_LITTLE:
            arr.byteswap()
        enc.put_ulong(len(items))
        if items:
            # the element loop only aligns when there is an element;
            # an empty run must not emit padding after the count
            enc.align(_STD_SIZES[self._fmt])
            enc.put_view(memoryview(arr).cast("B"))

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        if ctx.generic_loop:
            return super().demarshal(dec, ctx)
        n = dec.get_ulong()
        if self.tc.length and n > self.tc.length:
            raise MarshalError(f"sequence of {n} exceeds bound {self.tc.length}")
        try:
            return dec.get_array(self._fmt, n)
        except LookupError:
            return [self._elem.demarshal(dec, ctx) for _ in range(n)]


class TCArray(Marshaller):
    """Fixed-length arrays: no count on the wire."""

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        assert tc.content is not None
        self._elem = get_marshaller(tc.content)

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        items = list(value)
        if len(items) != self.tc.length:
            raise MarshalError(
                f"array needs exactly {self.tc.length} elements, "
                f"got {len(items)}")
        for item in items:
            self._elem.marshal(enc, item, ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        return [self._elem.demarshal(dec, ctx) for _ in range(self.tc.length)]


class StructValue:
    """Fallback value for structs with no registered Python class."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __eq__(self, other):
        return isinstance(other, StructValue) and self.__dict__ == other.__dict__

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"StructValue({inner})"


#: repo-id -> Python class (populated by the IDL code generator)
_VALUE_CLASSES: Dict[str, type] = {}


def register_value_class(repo_id: str, cls: type) -> None:
    _VALUE_CLASSES[repo_id] = cls


def lookup_value_class(repo_id: str) -> Optional[type]:
    return _VALUE_CLASSES.get(repo_id)


class TCStruct(Marshaller):
    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        self._members = [(name, get_marshaller(mtc))
                         for name, mtc in tc.members]

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        for name, m in self._members:
            try:
                field_val = getattr(value, name)
            except AttributeError:
                try:
                    field_val = value[name]
                except (TypeError, KeyError):
                    raise MarshalError(
                        f"struct {self.tc.name}: value lacks member "
                        f"{name!r}") from None
            m.marshal(enc, field_val, ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        fields = {name: m.demarshal(dec, ctx) for name, m in self._members}
        cls = lookup_value_class(self.tc.repo_id)
        if cls is not None:
            return cls(**fields)
        return StructValue(**fields)


class UnionValue:
    """Generic union value: a (discriminator, value) pair.

    Generated union classes subclass this, adding TYPECODE; ``d`` is
    the discriminator, ``v`` the active member's value.
    """

    TYPECODE = None

    def __init__(self, d, v):
        self.d = d
        self.v = v

    def __eq__(self, other):
        if not isinstance(other, UnionValue):
            return NotImplemented
        return (self.d, self.v) == (other.d, other.v)

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d!r}, v={self.v!r})"


class TCUnion(Marshaller):
    """Discriminated unions: discriminator, then the selected arm."""

    def __init__(self, tc: TypeCode):
        super().__init__(tc)
        self._disc = get_marshaller(tc.content)
        self._by_label = {}
        self._default = None
        for label, name, member_tc in tc.members:
            m = (name, get_marshaller(member_tc))
            if label is None:
                self._default = m
            else:
                self._by_label[label] = m

    def _arm_for(self, d):
        arm = self._by_label.get(self._normalize(d))
        if arm is None:
            arm = self._default
        if arm is None:
            raise MarshalError(
                f"union {self.tc.name}: no arm for discriminator {d!r} "
                f"and no default")
        return arm

    @staticmethod
    def _normalize(d):
        # enums/ints compare by value; char/bool compare directly
        return int(d) if isinstance(d, (bool, int)) else d

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        d = getattr(value, "d", None)
        v = getattr(value, "v", None)
        if d is None and not isinstance(value, UnionValue):
            raise MarshalError(
                f"expected a union value for {self.tc.name}, got "
                f"{type(value).__name__}")
        self._disc.marshal(enc, d, ctx)
        _, member = self._arm_for(d)
        member.marshal(enc, v, ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        d = self._disc.demarshal(dec, ctx)
        _, member = self._arm_for(d)
        v = member.demarshal(dec, ctx)
        cls = lookup_value_class(self.tc.repo_id)
        return cls(d, v) if cls is not None else UnionValue(d, v)


class TCEnum(Marshaller):
    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        idx = int(value)
        if not 0 <= idx < len(self.tc.members):
            raise MarshalError(
                f"enum {self.tc.name}: ordinal {idx} out of range")
        enc.put_ulong(idx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        idx = dec.get_ulong()
        if not 0 <= idx < len(self.tc.members):
            raise MarshalError(
                f"enum {self.tc.name}: ordinal {idx} out of range")
        cls = lookup_value_class(self.tc.repo_id)
        return cls(idx) if cls is not None else idx


class TCExcept(TCStruct):
    """User exceptions: repository id string, then members."""

    def marshal(self, enc, value, ctx=_EMPTY_CTX):
        enc.put_string(self.tc.repo_id)
        super().marshal(enc, value, ctx)

    def demarshal(self, dec, ctx=_EMPTY_CTX):
        repo_id = dec.get_string()
        if repo_id != self.tc.repo_id:
            raise MarshalError(
                f"exception id mismatch: {repo_id} != {self.tc.repo_id}")
        return super().demarshal(dec, ctx)


_CACHE: Dict[TypeCode, Marshaller] = {}


def get_marshaller(tc: TypeCode) -> Marshaller:
    """Resolve (and cache) the concrete marshaler for ``tc`` by TID."""
    m = _CACHE.get(tc)
    if m is not None:
        return m
    if tc.is_primitive:
        m = TCPrimitive(tc)
    elif tc.kind is TCKind.tk_string:
        m = TCString(tc)
    elif tc.kind is TCKind.tk_zc_sequence:
        m = TCSeqZCOctet(tc)
    elif tc.kind is TCKind.tk_sequence:
        if tc.content is not None and tc.content.kind is TCKind.tk_octet:
            m = TCSeqOctet(tc)
        elif tc.content is not None and tc.content.kind in _NUMERIC_FMTS:
            m = TCNumericSequence(tc)
        else:
            m = TCGenericSequence(tc)
    elif tc.kind is TCKind.tk_array:
        m = TCArray(tc)
    elif tc.kind is TCKind.tk_struct:
        m = TCStruct(tc)
    elif tc.kind is TCKind.tk_enum:
        m = TCEnum(tc)
    elif tc.kind is TCKind.tk_objref:
        m = TCObjRef(tc)
    elif tc.kind is TCKind.tk_union:
        m = TCUnion(tc)
    elif tc.kind is TCKind.tk_any:
        m = TCAny(tc)
    elif tc.kind is TCKind.tk_except:
        m = TCExcept(tc)
    else:
        raise MarshalError(f"no marshaler for TypeCode kind {tc.kind.name}")
    _CACHE[tc] = m
    return m
