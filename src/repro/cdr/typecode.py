"""CORBA TypeCodes and MICO-style type identifiers (TIDs).

§4.1: "All the datatypes that can be defined in CORBA IDL are
represented by a C++-class in MICO.  To internally identify these
types MICO allocates a unique key to each of them ... an integer value
called Type Identifier (TID)."  §4.3 adds ``MICO_TID_ZC_OCTET`` for the
zero-copy octet type.

A :class:`TypeCode` describes one IDL type; marshalers are selected by
TID (see :mod:`repro.cdr.marshal`), which is how MICO "statically
instantiates methods for marshaling and demarshaling depending on the
TID of the CORBA datatype used in the stub" (§4.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "TCKind", "TypeCode",
    "TC_NULL", "TC_VOID", "TC_BOOLEAN", "TC_OCTET", "TC_CHAR",
    "TC_SHORT", "TC_USHORT", "TC_LONG", "TC_ULONG",
    "TC_LONGLONG", "TC_ULONGLONG", "TC_FLOAT", "TC_DOUBLE", "TC_STRING",
    "TC_SEQ_OCTET", "TC_SEQ_ZC_OCTET",
    "sequence_tc", "zc_octet_sequence_tc", "zc_sequence_tc",
    "ZC_ELEMENT_KINDS", "string_tc", "array_tc",
    "struct_tc", "enum_tc", "exception_tc", "objref_tc",
    "union_tc", "UNION_DISC_KINDS",
]


class TCKind(enum.IntEnum):
    """TypeCode kinds; values double as the MICO-style TID."""

    tk_null = 0
    tk_void = 1
    tk_short = 2
    tk_long = 3
    tk_ushort = 4
    tk_ulong = 5
    tk_float = 6
    tk_double = 7
    tk_boolean = 8
    tk_char = 9
    tk_octet = 10
    tk_any = 11
    tk_string = 18
    tk_sequence = 19
    tk_array = 20
    tk_struct = 15
    tk_union = 16
    tk_enum = 17
    tk_except = 22
    tk_objref = 14
    tk_longlong = 23
    tk_ulonglong = 24
    #: the paper's extension type (MICO_TID_ZC_OCTET sequences, §4.3)
    tk_zc_sequence = 0x5A43


@dataclass(frozen=True)
class TypeCode:
    """An immutable description of one IDL type.

    ``members`` holds ``(name, TypeCode)`` pairs for structs and
    exceptions, and member names for enums; ``content`` is the element
    type of sequences/arrays; ``length`` is the bound of a bounded
    sequence (0 = unbounded), the fixed length of an array, or the
    bound of a bounded string.
    """

    kind: TCKind
    name: str = ""
    repo_id: str = ""
    content: Optional["TypeCode"] = None
    length: int = 0
    members: Tuple = ()

    @property
    def tid(self) -> int:
        """The MICO-style integer type identifier."""
        return int(self.kind)

    # -- classification ------------------------------------------------------
    @property
    def is_primitive(self) -> bool:
        return self.kind in _PRIMITIVE_SIZES

    @property
    def is_zero_copy(self) -> bool:
        return self.kind is TCKind.tk_zc_sequence

    def member_names(self) -> list[str]:
        if self.kind is TCKind.tk_enum:
            return list(self.members)
        return [name for name, _ in self.members]

    def member_types(self) -> list["TypeCode"]:
        return [tc for _, tc in self.members]

    def __repr__(self) -> str:
        inner = f" {self.name}" if self.name else ""
        if self.content is not None:
            inner += f"<{self.content.kind.name}>"
        return f"TypeCode({self.kind.name}{inner})"


_PRIMITIVE_SIZES = {
    TCKind.tk_boolean: 1,
    TCKind.tk_char: 1,
    TCKind.tk_octet: 1,
    TCKind.tk_short: 2,
    TCKind.tk_ushort: 2,
    TCKind.tk_long: 4,
    TCKind.tk_ulong: 4,
    TCKind.tk_float: 4,
    TCKind.tk_longlong: 8,
    TCKind.tk_ulonglong: 8,
    TCKind.tk_double: 8,
}

TC_NULL = TypeCode(TCKind.tk_null)
TC_VOID = TypeCode(TCKind.tk_void)
TC_BOOLEAN = TypeCode(TCKind.tk_boolean)
TC_OCTET = TypeCode(TCKind.tk_octet)
TC_CHAR = TypeCode(TCKind.tk_char)
TC_SHORT = TypeCode(TCKind.tk_short)
TC_USHORT = TypeCode(TCKind.tk_ushort)
TC_LONG = TypeCode(TCKind.tk_long)
TC_ULONG = TypeCode(TCKind.tk_ulong)
TC_LONGLONG = TypeCode(TCKind.tk_longlong)
TC_ULONGLONG = TypeCode(TCKind.tk_ulonglong)
TC_FLOAT = TypeCode(TCKind.tk_float)
TC_DOUBLE = TypeCode(TCKind.tk_double)
TC_STRING = TypeCode(TCKind.tk_string)


def string_tc(bound: int = 0) -> TypeCode:
    return TypeCode(TCKind.tk_string, length=bound)


def sequence_tc(content: TypeCode, bound: int = 0) -> TypeCode:
    return TypeCode(TCKind.tk_sequence, content=content, length=bound)


def zc_octet_sequence_tc(bound: int = 0) -> TypeCode:
    """``sequence<ZC_Octet>`` — marshaled by reference (§4.3)."""
    return TypeCode(TCKind.tk_zc_sequence, content=TC_OCTET, length=bound)


#: primitive kinds that may be zero-copy sequence elements (§4.1: "other
#: data types, but mostly sequences or arrays of basic types, might
#: become viable candidates for zero-copy as well")
ZC_ELEMENT_KINDS = frozenset({
    TCKind.tk_octet, TCKind.tk_short, TCKind.tk_ushort, TCKind.tk_long,
    TCKind.tk_ulong, TCKind.tk_longlong, TCKind.tk_ulonglong,
    TCKind.tk_float, TCKind.tk_double,
})


def zc_sequence_tc(content: TypeCode, bound: int = 0) -> TypeCode:
    """A zero-copy sequence of any basic numeric type.

    The generalization the paper sketches in §4.1: the deposit
    machinery is element-type agnostic (raw aligned memory); only the
    endianness fix-up on heterogeneous peers depends on the element
    width.  Values are 1-D numpy arrays; demarshaled arrays alias the
    landed deposit buffer.
    """
    if content.kind not in ZC_ELEMENT_KINDS:
        raise ValueError(
            f"{content.kind.name} cannot be a zero-copy sequence element")
    return TypeCode(TCKind.tk_zc_sequence, content=content, length=bound)


def array_tc(content: TypeCode, length: int) -> TypeCode:
    if length <= 0:
        raise ValueError(f"array length must be positive, got {length}")
    return TypeCode(TCKind.tk_array, content=content, length=length)


def struct_tc(name: str, members: Sequence[Tuple[str, TypeCode]],
              repo_id: str = "") -> TypeCode:
    return TypeCode(TCKind.tk_struct, name=name,
                    repo_id=repo_id or f"IDL:{name}:1.0",
                    members=tuple(members))


def enum_tc(name: str, members: Sequence[str], repo_id: str = "") -> TypeCode:
    return TypeCode(TCKind.tk_enum, name=name,
                    repo_id=repo_id or f"IDL:{name}:1.0",
                    members=tuple(members))


def exception_tc(name: str, members: Sequence[Tuple[str, TypeCode]],
                 repo_id: str = "") -> TypeCode:
    return TypeCode(TCKind.tk_except, name=name,
                    repo_id=repo_id or f"IDL:{name}:1.0",
                    members=tuple(members))


def objref_tc(repo_id: str, name: str = "") -> TypeCode:
    """An object reference (interface type): marshals as an IOR."""
    return TypeCode(TCKind.tk_objref, name=name, repo_id=repo_id)


#: TypeCode kinds legal as a union discriminator
UNION_DISC_KINDS = frozenset({
    TCKind.tk_short, TCKind.tk_ushort, TCKind.tk_long, TCKind.tk_ulong,
    TCKind.tk_longlong, TCKind.tk_ulonglong, TCKind.tk_boolean,
    TCKind.tk_char, TCKind.tk_enum,
})


def union_tc(name: str, discriminator: TypeCode,
             members: Sequence[Tuple],  # (label | None, member_name, tc)
             repo_id: str = "") -> TypeCode:
    """A discriminated union.  ``members`` holds
    ``(label_value, member_name, member_tc)`` triples; a label of
    ``None`` marks the ``default`` arm (at most one)."""
    if discriminator.kind not in UNION_DISC_KINDS:
        raise ValueError(
            f"{discriminator.kind.name} cannot discriminate a union")
    members = tuple(tuple(m) for m in members)
    if sum(1 for label, _, _ in members if label is None) > 1:
        raise ValueError(f"union {name!r} has multiple default arms")
    labels = [label for label, _, _ in members if label is not None]
    if len(labels) != len(set(labels)):
        raise ValueError(f"union {name!r} has duplicate case labels")
    return TypeCode(TCKind.tk_union, name=name,
                    repo_id=repo_id or f"IDL:{name}:1.0",
                    content=discriminator, members=members)


TC_SEQ_OCTET = sequence_tc(TC_OCTET)
TC_SEQ_ZC_OCTET = zc_octet_sequence_tc()
