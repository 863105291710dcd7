"""The ``any`` type: self-describing values (TypeCode + value).

``any`` is CORBA's escape hatch — a parameter that carries its own
TypeCode so receivers can demarshal values they were not compiled
against.  Implementing it requires marshaling TypeCodes themselves,
which this module does following the CDR TypeCode encoding: simple
kinds as a bare kind word, complex kinds as kind + a parameter
encapsulation (so unknown complex TypeCodes can be skipped whole).

Our extension kind ``tk_zc_sequence`` encodes like a sequence; an
``any`` carrying a zero-copy sequence falls back to the inline
representation (deposits describe a *connection-level* payload and an
``any`` must stay self-contained).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any as PyAny

from .decoder import CDRDecoder, CDRError
from .encoder import CDREncoder
from .typecode import TCKind, TypeCode

__all__ = ["Any", "TC_ANY", "encode_typecode", "decode_typecode"]

TC_ANY = TypeCode(TCKind.tk_any)

_SIMPLE = frozenset({
    TCKind.tk_null, TCKind.tk_void, TCKind.tk_short, TCKind.tk_long,
    TCKind.tk_ushort, TCKind.tk_ulong, TCKind.tk_float, TCKind.tk_double,
    TCKind.tk_boolean, TCKind.tk_char, TCKind.tk_octet, TCKind.tk_any,
    TCKind.tk_longlong, TCKind.tk_ulonglong,
})


@dataclass(frozen=True)
class Any:
    """A typed value: the pair the ``any`` carries on the wire."""

    tc: TypeCode
    value: PyAny

    def __repr__(self) -> str:
        return f"Any({self.tc.kind.name}, {self.value!r})"


# ---------------------------------------------------------------------------
# TypeCode encoding
# ---------------------------------------------------------------------------

def encode_typecode(enc: CDREncoder, tc: TypeCode) -> None:
    kind = tc.kind
    enc.put_ulong(int(kind))
    if kind in _SIMPLE:
        return
    if kind is TCKind.tk_string:
        enc.put_ulong(tc.length)
        return
    # an encapsulation: aligned from its byte-order octet
    body = CDREncoder(little_endian=enc.little_endian, offset=1)
    if kind is TCKind.tk_objref:
        body.put_string(tc.repo_id)
        body.put_string(tc.name)
    elif kind in (TCKind.tk_struct, TCKind.tk_except):
        body.put_string(tc.repo_id)
        body.put_string(tc.name)
        body.put_ulong(len(tc.members))
        for name, member_tc in tc.members:
            body.put_string(name)
            encode_typecode(body, member_tc)
    elif kind is TCKind.tk_enum:
        body.put_string(tc.repo_id)
        body.put_string(tc.name)
        body.put_ulong(len(tc.members))
        for name in tc.members:
            body.put_string(name)
    elif kind is TCKind.tk_union:
        body.put_string(tc.repo_id)
        body.put_string(tc.name)
        encode_typecode(body, tc.content)
        default_index = -1
        for i, (label, _, _) in enumerate(tc.members):
            if label is None:
                default_index = i
        body.put_long(default_index)
        body.put_ulong(len(tc.members))
        from .marshal import get_marshaller
        disc_m = get_marshaller(tc.content)
        for label, name, member_tc in tc.members:
            # the default arm's label is an arbitrary discriminator value
            disc_m.marshal(body, 0 if label is None else label)
            body.put_string(name)
            encode_typecode(body, member_tc)
    elif kind in (TCKind.tk_sequence, TCKind.tk_zc_sequence,
                  TCKind.tk_array):
        encode_typecode(body, tc.content)
        body.put_ulong(tc.length)
    else:
        raise CDRError(f"cannot encode TypeCode kind {kind.name}")
    enc.put_encapsulation(body)


def decode_typecode(dec: CDRDecoder) -> TypeCode:
    raw_kind = dec.get_ulong()
    try:
        kind = TCKind(raw_kind)
    except ValueError:
        raise CDRError(f"unknown TypeCode kind {raw_kind}") from None
    if kind in _SIMPLE:
        return TypeCode(kind)
    if kind is TCKind.tk_string:
        return TypeCode(kind, length=dec.get_ulong())
    body = dec.get_encapsulation()
    if kind is TCKind.tk_objref:
        repo_id = body.get_string()
        name = body.get_string()
        return TypeCode(kind, name=name, repo_id=repo_id)
    if kind in (TCKind.tk_struct, TCKind.tk_except):
        repo_id = body.get_string()
        name = body.get_string()
        count = body.get_ulong()
        members = tuple((body.get_string(), decode_typecode(body))
                        for _ in range(count))
        return TypeCode(kind, name=name, repo_id=repo_id, members=members)
    if kind is TCKind.tk_enum:
        repo_id = body.get_string()
        name = body.get_string()
        count = body.get_ulong()
        members = tuple(body.get_string() for _ in range(count))
        return TypeCode(kind, name=name, repo_id=repo_id, members=members)
    if kind is TCKind.tk_union:
        repo_id = body.get_string()
        name = body.get_string()
        disc = decode_typecode(body)
        default_index = body.get_long()
        count = body.get_ulong()
        from .marshal import get_marshaller
        disc_m = get_marshaller(disc)
        members = []
        for i in range(count):
            label = disc_m.demarshal(body)
            member_name = body.get_string()
            member_tc = decode_typecode(body)
            members.append((None if i == default_index else label,
                            member_name, member_tc))
        return TypeCode(kind, name=name, repo_id=repo_id, content=disc,
                        members=tuple(members))
    if kind in (TCKind.tk_sequence, TCKind.tk_zc_sequence,
                TCKind.tk_array):
        content = decode_typecode(body)
        length = body.get_ulong()
        return TypeCode(kind, content=content, length=length)
    raise CDRError(f"cannot decode TypeCode kind {kind.name}")
