"""Operation signatures: the typed bridge between stubs and skeletons.

An :class:`OperationSignature` is what the IDL compiler knows about one
operation — parameter modes and TypeCodes, result type, raisable user
exceptions, onewayness.  Both the client stub (marshal in-args,
demarshal results) and the server skeleton (the reverse) drive their
marshaling from the same signature object, which is how the generated
code stays a thin veneer (§4.2's "compiler generated object stub /
skeleton").

A direction whose every value is a fixed-layout primitive (the
request's ``sending`` parameters; the reply's result and ``returning``
ones) gets a *call plan*: one precompiled ``struct.Struct`` per byte
order whose format carries the CDR pads from body offset 0, so the
whole direction is one ``pack`` or ``unpack_from`` and no encoder,
decoder walk or marshal context (DESIGN.md §17, rule 3).  The four
marshal entry points run the plan and fall back to the TypeCode
interpreter on the same call for anything the plan refuses, so every
error is the interpreter's.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cdr import CDRDecoder, CDRError, TypeCode, get_marshaller
from ..cdr.typecode import TC_VOID, TCKind
from .exceptions import BAD_PARAM, MARSHAL, UserException

__all__ = ["ParamMode", "Param", "OperationSignature", "InterfaceDef"]


class ParamMode(enum.Enum):
    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def sends(self) -> bool:
        """Travels client -> server in the request."""
        return self in (ParamMode.IN, ParamMode.INOUT)

    @property
    def returns(self) -> bool:
        """Travels server -> client in the reply."""
        return self in (ParamMode.OUT, ParamMode.INOUT)


#: struct codes of the fixed-layout primitives; each one's CDR size and
#: alignment is its standard ``<``/``>`` size
_FIXED_CODES = {
    TCKind.tk_boolean: "?", TCKind.tk_octet: "B",
    TCKind.tk_short: "h", TCKind.tk_ushort: "H",
    TCKind.tk_long: "i", TCKind.tk_ulong: "I",
    TCKind.tk_longlong: "q", TCKind.tk_ulonglong: "Q",
    TCKind.tk_float: "f", TCKind.tk_double: "d",
}


def _plan(tcs) -> Optional[tuple]:
    """``(big-endian Struct, little-endian Struct)``, indexed by a
    ``little_endian`` flag, laying ``tcs`` out as CDR from an 8-aligned
    offset 0, pads included; None unless every type is a fixed-layout
    primitive."""
    fmt, pos = "", 0
    for tc in tcs:
        code = _FIXED_CODES.get(tc.kind)
        if code is None:
            return None
        size = struct.calcsize("<" + code)
        fmt += "x" * (-pos % size) + code
        pos += -pos % size + size
    return struct.Struct(">" + fmt), struct.Struct("<" + fmt)


def demarshal_context(rm, conn):
    """The interpreter's demarshal context for message ``rm`` read on
    ``conn``."""
    return rm.make_demarshal_context(on_bytes=conn.on_bytes,
                                     generic_loop=conn.generic_loop,
                                     orb=conn.orb)


@dataclass(frozen=True)
class Param:
    name: str
    mode: ParamMode
    tc: TypeCode


@dataclass(frozen=True)
class OperationSignature:
    """Everything needed to marshal one operation's request and reply."""

    name: str
    params: Tuple[Param, ...] = ()
    result_tc: TypeCode = TC_VOID
    raises: Tuple[TypeCode, ...] = ()  #: tk_except TypeCodes
    oneway: bool = False
    #: safe to transparently re-issue even when a failed attempt may
    #: already have executed (COMPLETED_MAYBE); consulted by the
    #: client-side retry policy (repro.orb.policy)
    idempotent: bool = False

    def __post_init__(self):
        if self.oneway and (self.result_tc.kind is not TCKind.tk_void
                            or any(p.mode.returns for p in self.params)
                            or self.raises):
            raise ValueError(
                f"oneway operation {self.name!r} cannot have results, "
                f"out/inout parameters or raises clauses")
        # the signature is frozen: which parameters travel in which
        # direction is settled here, not re-filtered on every marshal
        object.__setattr__(self, "has_result",
                           self.result_tc.kind is not TCKind.tk_void)
        object.__setattr__(self, "sending", tuple(
            p for p in self.params if p.mode.sends))
        object.__setattr__(self, "returning", tuple(
            p for p in self.params if p.mode.returns))

    # Marshallers resolve on first use, not in __post_init__: a
    # signature may be built before the classes of its struct and
    # exception types are registered.  get_marshaller's own table never
    # forgets an entry, so the tuples below stay the live marshallers.
    @cached_property
    def _send_marshallers(self) -> tuple:
        return tuple(get_marshaller(p.tc) for p in self.sending)

    @cached_property
    def _return_marshallers(self) -> tuple:
        return tuple(get_marshaller(p.tc) for p in self.returning)

    @cached_property
    def _result_marshaller(self):
        return get_marshaller(self.result_tc) if self.has_result else None

    # the call plans: a direction is classified once, on first use
    @cached_property
    def _request_plan(self):
        return _plan(p.tc for p in self.sending)

    @cached_property
    def _reply_plan(self):
        return _plan(((self.result_tc,) if self.has_result else ())
                     + tuple(p.tc for p in self.returning))

    # -- request side -----------------------------------------------------------
    def marshal_request(self, conn, args: Sequence[Any],
                        force_copy: bool = False) -> tuple:
        """``(body, ctx)`` for ``conn.send_message``: a fixed request is
        one ``pack`` into ``bytes`` and no context; anything else (or
        a value the plan refuses) is ``conn``'s encoder and context,
        filled by the interpreter."""
        plan = self._request_plan
        if plan is not None and not conn.generic_loop:
            try:
                return plan[conn.little_endian].pack(*args), None
            except Exception:  # noqa: BLE001 - the interpreter says what
                pass
        ctx = conn.make_marshal_context(force_copy=force_copy)
        enc = conn.body_encoder()
        marshallers = self._send_marshallers
        if len(args) != len(marshallers):
            raise BAD_PARAM(message=(
                f"{self.name}() takes {len(marshallers)} in/inout "
                f"arguments, got {len(args)}"))
        for marshaller, value in zip(marshallers, args):
            marshaller.marshal(enc, value, ctx)
        return enc, ctx

    def demarshal_request(self, dec: CDRDecoder, rm, conn) -> List[Any]:
        """The in/inout arguments of request ``rm`` read off ``dec``,
        its parameter decoder, in ``rm``'s byte order."""
        plan = self._request_plan
        if plan is not None and not conn.generic_loop:
            try:
                values = dec.unpack(plan[dec.little_endian])
            except CDRError:  # a short body: the interpreter says how
                pass
            else:
                return list(values)
        ctx = demarshal_context(rm, conn)
        return [m.demarshal(dec, ctx) for m in self._send_marshallers]

    # -- reply side ---------------------------------------------------------------
    def marshal_reply(self, conn, value: Any) -> tuple:
        """``(body, ctx)`` for the reply carrying the servant's return
        ``value`` (see :meth:`split_servant_return`), as
        :meth:`marshal_request`; a void reply with no outs is an empty
        body."""
        plan = self._reply_plan
        if plan is not None and not conn.generic_loop:
            arity = self.has_result + len(self.returning)
            values = () if arity == 0 else (value,) if arity == 1 else value
            if isinstance(values, tuple):
                try:
                    return plan[conn.little_endian].pack(*values), None
                except Exception:  # noqa: BLE001 - the interpreter says what
                    pass
        result, outs = self.split_servant_return(value)
        ctx = conn.make_marshal_context()
        enc = conn.body_encoder()
        if self.has_result:
            self._result_marshaller.marshal(enc, result, ctx)
        for marshaller, value in zip(self._return_marshallers, outs):
            marshaller.marshal(enc, value, ctx)
        return enc, ctx

    def demarshal_reply(self, dec: CDRDecoder, rm, conn) -> Any:
        """The Python return value of reply ``rm`` (see
        :meth:`pack_results`)."""
        plan = self._reply_plan
        if plan is not None and not conn.generic_loop:
            try:
                values = dec.unpack(plan[dec.little_endian])
            except CDRError:
                pass
            else:
                return values[0] if len(values) == 1 else values or None
        ctx = demarshal_context(rm, conn)
        result = None
        if self.has_result:
            result = self._result_marshaller.demarshal(dec, ctx)
        outs = [m.demarshal(dec, ctx) for m in self._return_marshallers]
        return self.pack_results(result, outs)

    def pack_results(self, result: Any, outs: Sequence[Any]) -> Any:
        """Python calling convention: result, or (result, *outs)."""
        has_result = self.has_result
        if not outs:
            return result if has_result else None
        values = ([result] if has_result else []) + list(outs)
        return values[0] if len(values) == 1 else tuple(values)

    def split_servant_return(self, value: Any) -> Tuple[Any, List[Any]]:
        """Inverse of :meth:`pack_results` for the server side."""
        has_result = self.has_result
        expected = (1 if has_result else 0) + len(self.returning)
        if expected == 0:
            return None, []
        if expected == 1:
            return (value, []) if has_result else (None, [value])
        if not isinstance(value, tuple) or len(value) != expected:
            raise MARSHAL(message=(
                f"{self.name}(): servant must return a {expected}-tuple "
                f"(result + out params), got {value!r}"))
        values = list(value)
        if has_result:
            return values[0], values[1:]
        return None, values

    # -- exceptions ---------------------------------------------------------------
    def exception_tc_for(self, exc: UserException) -> Optional[TypeCode]:
        for tc in self.raises:
            if exc.TYPECODE is not None and tc.repo_id == exc.TYPECODE.repo_id:
                return tc
        return None

    def exception_tc_by_id(self, repo_id: str) -> Optional[TypeCode]:
        for tc in self.raises:
            if tc.repo_id == repo_id:
                return tc
        return None


@dataclass(frozen=True)
class InterfaceDef:
    """One IDL interface: repository id + operation table.

    ``bases`` supports IDL interface inheritance — the operation lookup
    walks base interfaces depth-first, like MICO skeleton dispatch.
    """

    repo_id: str
    name: str
    operations: Tuple[OperationSignature, ...] = ()
    bases: Tuple["InterfaceDef", ...] = ()

    @cached_property
    def _operation_table(self) -> Dict[str, OperationSignature]:
        """name -> signature over this interface and its bases, built
        once (the definition is frozen): own operations shadow
        inherited ones, an earlier base shadows a later one."""
        table: Dict[str, OperationSignature] = {}
        for base in reversed(self.bases):
            table.update(base._operation_table)
        own: Dict[str, OperationSignature] = {}
        for op in self.operations:
            own.setdefault(op.name, op)
        table.update(own)
        return table

    @cached_property
    def find_operation(self) -> Callable[[str], Optional[OperationSignature]]:
        """``find_operation(name)``: the signature of ``name``, None if
        neither this interface nor a base has it (the table's own
        ``get``, so a stub's lookup runs no Python frame)."""
        return self._operation_table.get

    def all_operations(self) -> Dict[str, OperationSignature]:
        return dict(self._operation_table)

    def is_a(self, repo_id: str) -> bool:
        if self.repo_id == repo_id:
            return True
        return any(base.is_a(repo_id) for base in self.bases)
