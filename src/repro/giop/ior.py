"""Interoperable Object References (IOR) and the IIOP profile.

An IOR names a CORBA object location-transparently: a repository type
id plus tagged profiles.  We implement the IIOP profile (tag 0) —
version, host, port, object key — and the stringified ``IOR:...`` and
``corbaloc::host:port/key`` forms used by :meth:`ORB.object_to_string`
and :meth:`ORB.string_to_object`.

The transport scheme is smuggled through the IIOP *host* field as
``scheme!host`` for non-TCP transports (loopback, simulated testbed),
keeping the IOR wire format standard while letting one ORB address all
three transports of this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from ..cdr import NATIVE_LITTLE, CDRDecoder, CDREncoder

__all__ = ["IIOPProfile", "IOR", "IORError", "TAG_INTERNET_IOP"]

TAG_INTERNET_IOP = 0


class IORError(ValueError):
    """Malformed IOR string or profile."""


def _put_tagged(enc: CDREncoder, pairs) -> None:
    """A ``sequence<{ulong tag; sequence<octet> data}>``: the shape of
    both an IOR's profiles and a profile's components."""
    enc.put_ulong(len(pairs))
    for tag, data in pairs:
        enc.put_ulong(tag)
        enc.put_octets(data)


@dataclass(frozen=True)
class IIOPProfile:
    """The TAG_INTERNET_IOP profile body, a CDR encapsulation: its
    alignment counts from the byte-order octet in front of it."""

    host: str
    port: int
    object_key: bytes
    major: int = 1
    minor: int = 1
    #: an IIOP 1.1 body's ``sequence<IOP::TaggedComponent>`` as
    #: ``(tag, data)`` pairs: written empty, kept as decoded
    components: Tuple[Tuple[int, bytes], ...] = field(default=(),
                                                      init=False)

    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytes:
        body = CDREncoder(little_endian=little_endian, offset=1)
        body.put_octet(self.major)
        body.put_octet(self.minor)
        body.put_string(self.host)
        body.put_ushort(self.port)
        body.put_octets(self.object_key)
        if self.minor >= 1:
            _put_tagged(body, self.components)
        return bytes([little_endian]) + body.getvalue()

    @classmethod
    def decode(cls, data) -> "IIOPProfile":
        view = memoryview(data)
        if view.nbytes < 1:
            raise IORError("empty IIOP profile encapsulation")
        dec = CDRDecoder(view[1:], little_endian=bool(view[0]), offset=1)
        major = dec.get_octet()
        minor = dec.get_octet()
        host = dec.get_string()
        port = dec.get_ushort()
        object_key = dec.get_octets()
        profile = cls(host=host, port=port, object_key=object_key,
                      major=major, minor=minor)
        if minor >= 1:
            n = dec.get_ulong()
            if n > 64:
                raise IORError(f"implausible component count {n}")
            object.__setattr__(profile, "components", tuple(
                (dec.get_ulong(), dec.get_octets()) for _ in range(n)))
        return profile

    # -- transport-scheme host encoding ------------------------------------
    # The profile is frozen, so each of these is computed on first use
    # and then lives in the instance dict: routing a call reads them
    # without a function call.
    @cached_property
    def scheme(self) -> str:
        """Transport scheme: 'tcp' unless the host carries 'scheme!host'."""
        if "!" in self.host:
            return self.host.split("!", 1)[0]
        return "tcp"

    @cached_property
    def bare_host(self) -> str:
        if "!" in self.host:
            return self.host.split("!", 1)[1]
        return self.host

    @cached_property
    def endpoint(self) -> Tuple[str, str, int]:
        return (self.scheme, self.bare_host, self.port)


@dataclass(frozen=True)
class IOR:
    """type id + tagged profiles.

    An IOR may carry several IIOP profiles — a multi-homed server
    advertises one per transport endpoint (e.g. ``tcp`` and ``shm``),
    and the client picks the profile it likes best (see
    ``ORB.select_profile``).  Unknown-tag profiles survive decode /
    re-encode byte-exactly.
    """

    type_id: str
    profiles: Tuple[Tuple[int, bytes], ...] = ()

    @classmethod
    def for_object(cls, type_id: str, *profiles: IIOPProfile) -> "IOR":
        if not profiles:
            raise IORError(f"IOR for {type_id!r} needs at least one profile")
        return cls(type_id=type_id,
                   profiles=tuple((TAG_INTERNET_IOP, p.encode())
                                  for p in profiles))

    @cached_property
    def _iiop(self) -> Tuple[IIOPProfile, ...]:
        """The IIOP profiles, decoded once: the reference is frozen, so
        every invocation through it routes over the same tuple."""
        return tuple(IIOPProfile.decode(data)
                     for tag, data in self.profiles
                     if tag == TAG_INTERNET_IOP)

    def iiop_profile(self) -> IIOPProfile:
        """The first IIOP profile (the server's primary endpoint)."""
        profiles = self._iiop
        if not profiles:
            raise IORError(f"IOR for {self.type_id!r} has no IIOP profile")
        return profiles[0]

    def iiop_profiles(self) -> Tuple[IIOPProfile, ...]:
        """Every IIOP profile, in advertisement order."""
        return self._iiop

    def identity(self) -> Tuple:
        """A hashable, profile-order-independent object identity.

        Two references denote the same object when they name the same
        type and the same object key(s) — however many transport
        profiles carry those keys and whatever order they were
        advertised in (a multi-homed server emits one profile per
        endpoint, all sharing one key).  Never raises: a reference
        with no IIOP profile at all falls back to its raw profile
        tuple, so registries keyed on this stay total.
        """
        keys = frozenset(p.object_key for p in self.iiop_profiles())
        if keys:
            return (self.type_id, keys)
        return (self.type_id, self.profiles)

    # -- binary / stringified forms ------------------------------------------
    # The stringified form is an encapsulation: one byte-order octet,
    # then this body, aligned from that octet.
    def encode(self, little_endian: bool = NATIVE_LITTLE) -> bytes:
        """The body that follows the byte-order octet."""
        enc = CDREncoder(little_endian=little_endian, offset=1)
        enc.put_string(self.type_id)
        _put_tagged(enc, self.profiles)
        return enc.getvalue()

    @classmethod
    def decode(cls, data, little_endian: bool) -> "IOR":
        dec = CDRDecoder(data, little_endian=little_endian, offset=1)
        type_id = dec.get_string()
        n = dec.get_ulong()
        if n > 64:
            raise IORError(f"implausible profile count {n}")
        profiles = tuple((dec.get_ulong(), dec.get_octets())
                         for _ in range(n))
        return cls(type_id=type_id, profiles=profiles)

    def to_string(self, little_endian: bool = NATIVE_LITTLE) -> str:
        return "IOR:" + bytes([little_endian]).hex() \
            + self.encode(little_endian).hex()

    @classmethod
    def from_string(cls, s: str) -> "IOR":
        s = s.strip()
        if s.startswith("corbaloc:"):
            return cls._from_corbaloc(s)
        if not s.startswith("IOR:"):
            raise IORError(f"not an IOR string: {s[:16]!r}...")
        try:
            raw = bytes.fromhex(s[4:])
        except ValueError as e:
            raise IORError(f"bad IOR hex: {e}") from e
        if len(raw) < 1:
            raise IORError("empty IOR body")
        return cls.decode(raw[1:], little_endian=bool(raw[0]))

    @classmethod
    def _from_corbaloc(cls, s: str) -> "IOR":
        """``corbaloc::host:port/key`` (optionally ``scheme!host``)."""
        rest = s[len("corbaloc:"):]
        if not rest.startswith(":"):
            raise IORError(f"unsupported corbaloc protocol in {s!r}")
        rest = rest[1:]
        if "/" not in rest:
            raise IORError(f"corbaloc missing object key: {s!r}")
        addr, key = rest.split("/", 1)
        if ":" not in addr:
            raise IORError(f"corbaloc missing port: {s!r}")
        host, port_s = addr.rsplit(":", 1)
        try:
            port = int(port_s)
        except ValueError:
            raise IORError(f"bad corbaloc port {port_s!r}") from None
        profile = IIOPProfile(host=host, port=port,
                              object_key=key.encode("utf-8"))
        return cls.for_object("", profile)
