"""IOR / IIOP-profile tests."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdr import TC_ANY, Any, CDRDecoder, CDREncoder, get_marshaller
from repro.cdr.typecode import TCKind, TypeCode
from repro.giop import IOR, TAG_INTERNET_IOP, IIOPProfile, IORError

from . import golden


class TestIIOPProfile:
    def test_round_trip(self):
        p = IIOPProfile(host="node7", port=2809, object_key=b"POA1/0003")
        out = IIOPProfile.decode(p.encode())
        assert out == p

    def test_scheme_encoding_in_host(self):
        p = IIOPProfile(host="loop!orb3", port=9001, object_key=b"k")
        assert p.scheme == "loop"
        assert p.bare_host == "orb3"
        assert p.endpoint == ("loop", "orb3", 9001)

    def test_plain_host_is_tcp(self):
        p = IIOPProfile(host="192.168.1.5", port=1234, object_key=b"k")
        assert p.scheme == "tcp"
        assert p.endpoint == ("tcp", "192.168.1.5", 1234)

    def test_empty_profile_rejected(self):
        with pytest.raises(IORError):
            IIOPProfile.decode(b"")


class TestIOR:
    def _ior(self):
        return IOR.for_object(
            "IDL:Demo/Sink:1.0",
            IIOPProfile(host="h", port=99, object_key=b"key42"))

    def test_stringified_round_trip(self):
        ior = self._ior()
        s = ior.to_string()
        assert s.startswith("IOR:")
        out = IOR.from_string(s)
        assert out.type_id == ior.type_id
        assert out.iiop_profile() == ior.iiop_profile()

    def test_binary_round_trip_big_endian(self):
        ior = self._ior()
        out = IOR.decode(ior.encode(), little_endian=True)
        assert out.iiop_profile().object_key == b"key42"

    def test_corbaloc_parsing(self):
        ior = IOR.from_string("corbaloc::myhost:2809/Service")
        p = ior.iiop_profile()
        assert p.host == "myhost"
        assert p.port == 2809
        assert p.object_key == b"Service"

    def test_corbaloc_with_scheme(self):
        ior = IOR.from_string("corbaloc::loop!orb1:9000/POA1/0001")
        assert ior.iiop_profile().endpoint == ("loop", "orb1", 9000)
        assert ior.iiop_profile().object_key == b"POA1/0001"

    def test_bad_strings_rejected(self):
        for bad in ("NOPE:123", "IOR:zz", "corbaloc::nohost/",
                    "corbaloc::h/key", "corbaloc:rir:/x"):
            with pytest.raises(IORError):
                IOR.from_string(bad)

    def test_missing_iiop_profile(self):
        ior = IOR(type_id="IDL:X:1.0", profiles=((99, b"opaque"),))
        with pytest.raises(IORError, match="no IIOP profile"):
            ior.iiop_profile()

    def test_foreign_profiles_preserved(self):
        prof = IIOPProfile(host="h", port=1, object_key=b"k")
        ior = IOR(type_id="IDL:X:1.0",
                  profiles=((77, b"vendor"),
                            (TAG_INTERNET_IOP, prof.encode())))
        out = IOR.from_string(ior.to_string())
        assert out.profiles[0] == (77, b"vendor")
        assert out.iiop_profile() == prof

    @given(st.text(alphabet=st.characters(codec="ascii",
                                          exclude_characters="\x00!:/"),
                   min_size=1, max_size=20),
           st.integers(1, 65535), st.binary(min_size=1, max_size=64))
    def test_round_trip_property(self, host, port, key):
        ior = IOR.for_object("IDL:T:1.0",
                             IIOPProfile(host=host, port=port,
                                         object_key=key))
        out = IOR.from_string(ior.to_string())
        assert out.iiop_profile() == ior.iiop_profile()


class TestMultiProfileIOR:
    """A multi-homed server advertises one profile per transport."""

    def _profiles(self):
        return (IIOPProfile(host="198.51.100.7", port=2809,
                            object_key=b"POA1/42"),
                IIOPProfile(host="shm!127.0.0.1", port=39001,
                            object_key=b"POA1/42"))

    def test_round_trip_preserves_all_profiles(self):
        tcp, shm = self._profiles()
        ior = IOR.for_object("IDL:Demo/Sink:1.0", tcp, shm)
        out = IOR.from_string(ior.to_string())
        assert out.iiop_profiles() == (tcp, shm)
        # the primary (first) profile is unchanged by the extras
        assert out.iiop_profile() == tcp
        assert [p.scheme for p in out.iiop_profiles()] == ["tcp", "shm"]

    def test_unknown_tag_profile_survives_byte_exact(self):
        tcp, shm = self._profiles()
        opaque = bytes(range(64))
        ior = IOR(type_id="IDL:Demo/Sink:1.0",
                  profiles=((TAG_INTERNET_IOP, tcp.encode()),
                            (0x4242, opaque),
                            (TAG_INTERNET_IOP, shm.encode())))
        out = IOR.from_string(ior.to_string())
        assert out.profiles[1] == (0x4242, opaque)
        # iiop_profiles skips the foreign tag but keeps the order
        assert out.iiop_profiles() == (tcp, shm)
        assert out.iiop_profile() == tcp
        # and a second round trip is still byte-identical
        assert IOR.from_string(out.to_string()).profiles == out.profiles

    def test_for_object_requires_a_profile(self):
        with pytest.raises(IORError, match="at least one profile"):
            IOR.for_object("IDL:Demo/Sink:1.0")

    def test_binary_round_trip_both_orders(self):
        tcp, shm = self._profiles()
        ior = IOR.for_object("IDL:Demo/Sink:1.0", tcp, shm)
        for little in (True, False):
            # re-decode of our own encoding: the flag byte governs
            out = IOR.decode(ior.encode(), little_endian=True)
            assert out.iiop_profiles() == (tcp, shm)


class TestRoundTripPropertyMulti:
    @given(st.text(alphabet=st.characters(codec="ascii",
                                          exclude_characters="\x00!:/"),
                   min_size=1, max_size=20),
           st.integers(1, 65535), st.binary(min_size=1, max_size=64))
    def test_round_trip_property_multi(self, host, port, key):
        profiles = (IIOPProfile(host=host, port=port, object_key=key),
                    IIOPProfile(host=f"shm!{host}", port=port,
                                object_key=key))
        ior = IOR.for_object("IDL:T:1.0", *profiles)
        out = IOR.from_string(ior.to_string())
        assert out.iiop_profiles() == profiles

class TestIdentity:
    def _profiles(self):
        return (IIOPProfile(host="tcp!h", port=99, object_key=b"key42"),
                IIOPProfile(host="shm!h", port=99, object_key=b"key42"))

    def test_profile_order_independent(self):
        p1, p2 = self._profiles()
        a = IOR.for_object("IDL:Demo/Sink:1.0", p1, p2)
        b = IOR.for_object("IDL:Demo/Sink:1.0", p2, p1)
        assert a.identity() == b.identity()

    def test_single_vs_multi_profile_same_key(self):
        p1, p2 = self._profiles()
        single = IOR.for_object("IDL:Demo/Sink:1.0", p1)
        multi = IOR.for_object("IDL:Demo/Sink:1.0", p1, p2)
        assert single.identity() == multi.identity()

    def test_distinct_objects_differ(self):
        p1, _ = self._profiles()
        other = IIOPProfile(host="tcp!h", port=99, object_key=b"other")
        a = IOR.for_object("IDL:Demo/Sink:1.0", p1)
        b = IOR.for_object("IDL:Demo/Sink:1.0", other)
        assert a.identity() != b.identity()

    def test_type_id_distinguishes(self):
        p1, _ = self._profiles()
        a = IOR.for_object("IDL:Demo/Sink:1.0", p1)
        b = IOR.for_object("IDL:Demo/Source:1.0", p1)
        assert a.identity() != b.identity()

    def test_profile_less_ior_never_raises(self):
        bare = IOR(type_id="IDL:Demo/Sink:1.0",
                   profiles=((0x7F42, b"opaque"),))
        with pytest.raises(IORError):
            bare.iiop_profile()  # the old keying path raised here
        ident = bare.identity()
        assert ident == bare.identity()  # stable and hashable
        hash(ident)


class TestSpecGoldens:
    """The encapsulation vectors in ``golden.py``, hand-written from
    the spec, in both byte orders: encode reproduces them byte for
    byte and decode returns what they were made from."""

    PROFILE = IIOPProfile(host="h", port=0x1234, object_key=b"KEY")

    @pytest.mark.parametrize("order", ["le", "be"])
    def test_iiop_profile(self, order):
        raw = bytes.fromhex(golden.PROFILE[order])
        assert self.PROFILE.encode(order == "le") == raw
        fmt = "<" if order == "le" else ">"
        assert struct.unpack_from(fmt + "I", raw, 4) == (2,)  # host len
        assert struct.unpack_from(fmt + "H", raw, 10) == (0x1234,)
        assert struct.unpack_from(fmt + "I", raw, 12) == (3,)  # key len
        assert struct.unpack_from(fmt + "I", raw, 20) == (0,)  # no comps
        assert IIOPProfile.decode(raw) == self.PROFILE

    @pytest.mark.parametrize("order", ["le", "be"])
    def test_components_survive_a_round_trip(self, order):
        raw = bytes.fromhex(golden.PROFILE_WITH_COMPONENT[order])
        profile = IIOPProfile.decode(raw)
        assert profile.components == ((0, b"\x01\x02\x03"),)
        assert (profile.host, profile.port, profile.object_key) \
            == ("h", 0x1234, b"KEY")
        assert profile.encode(order == "le") == raw

    @pytest.mark.parametrize("order", ["le", "be"])
    def test_stringified_ior(self, order):
        s, little = golden.IOR_STRING[order], order == "le"
        # the profile is an encapsulation of its own, in its own order
        ior = IOR(type_id="IDL:X:1.0", profiles=(
            (TAG_INTERNET_IOP, self.PROFILE.encode(little)),))
        assert ior.to_string(little) == s
        out = IOR.from_string(s)
        assert out.type_id == "IDL:X:1.0"
        assert out.iiop_profile() == self.PROFILE

    @pytest.mark.parametrize("order", ["le", "be"])
    def test_any_holding_a_struct_typecode(self, order):
        tc = TypeCode(TCKind.tk_struct, name="P", repo_id="IDL:P:1.0",
                      members=(("x", TypeCode(TCKind.tk_long)),))
        raw = bytes.fromhex(golden.ANY_STRUCT[order])
        enc = CDREncoder(little_endian=order == "le")
        get_marshaller(TC_ANY).marshal(enc, Any(tc, {"x": 0x01020304}))
        assert enc.getvalue() == raw
        out = get_marshaller(TC_ANY).demarshal(
            CDRDecoder(raw, little_endian=order == "le"))
        assert out.tc == tc and out.value.x == 0x01020304
