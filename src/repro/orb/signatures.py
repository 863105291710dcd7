"""Operation signatures: the typed bridge between stubs and skeletons.

An :class:`OperationSignature` is what the IDL compiler knows about one
operation — parameter modes and TypeCodes, result type, raisable user
exceptions, onewayness.  Both the client stub (marshal in-args,
demarshal results) and the server skeleton (the reverse) drive their
marshaling from the same signature object, which is how the generated
code stays a thin veneer (§4.2's "compiler generated object stub /
skeleton").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cdr import (CDRDecoder, CDREncoder, MarshalContext, TypeCode,
                   get_marshaller)
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

    # -- request side -----------------------------------------------------------
    def marshal_request(self, enc: CDREncoder, args: Sequence[Any],
                        ctx: MarshalContext) -> None:
        marshallers = self._send_marshallers
        if len(args) != len(marshallers):
            raise BAD_PARAM(message=(
                f"{self.name}() takes {len(marshallers)} in/inout "
                f"arguments, got {len(args)}"))
        for marshaller, value in zip(marshallers, args):
            marshaller.marshal(enc, value, ctx)

    def demarshal_request(self, dec: CDRDecoder,
                          ctx: MarshalContext) -> List[Any]:
        return [m.demarshal(dec, ctx) for m in self._send_marshallers]

    # -- reply side ---------------------------------------------------------------
    def marshal_reply(self, enc: CDREncoder, result: Any,
                      out_values: Sequence[Any], ctx: MarshalContext) -> None:
        if self.has_result:
            self._result_marshaller.marshal(enc, result, ctx)
        marshallers = self._return_marshallers
        if len(out_values) != len(marshallers):
            raise MARSHAL(message=(
                f"{self.name}() must produce {len(marshallers)} out/inout "
                f"values, servant returned {len(out_values)}"))
        for marshaller, value in zip(marshallers, out_values):
            marshaller.marshal(enc, value, ctx)

    def demarshal_reply(self, dec: CDRDecoder, ctx: MarshalContext) -> Any:
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

    def find_operation(self, name: str) -> Optional[OperationSignature]:
        return self._operation_table.get(name)

    def all_operations(self) -> Dict[str, OperationSignature]:
        return dict(self._operation_table)

    def is_a(self, repo_id: str) -> bool:
        if self.repo_id == repo_id:
            return True
        return any(base.is_a(repo_id) for base in self.bases)
