"""Unit tests for the object adapter and CORBA exceptions."""

import pytest

from repro.cdr import CDRDecoder, CDREncoder
from repro.orb import (BAD_PARAM, COMM_FAILURE, OBJECT_NOT_EXIST, POA,
                       CompletionStatus, Servant, SystemException,
                       UserException)
from repro.orb.exceptions import (decode_system_exception,
                                  encode_system_exception,
                                  system_exception_class)
from repro.orb.signatures import InterfaceDef


class _Thing(Servant):
    _INTERFACE = InterfaceDef(repo_id="IDL:Thing_poa:1.0", name="Thing")


class TestPOA:
    def test_activate_returns_stable_key(self):
        poa = POA("P")
        servant = _Thing()
        key1 = poa.activate_object(servant)
        key2 = poa.activate_object(servant)  # idempotent
        assert key1 == key2
        assert poa.find_servant(key1) is servant
        assert len(poa) == 1

    def test_distinct_servants_distinct_keys(self):
        poa = POA("P")
        keys = {poa.activate_object(_Thing()) for _ in range(10)}
        assert len(keys) == 10

    def test_deactivate(self):
        poa = POA("P")
        servant = _Thing()
        key = poa.activate_object(servant)
        poa.deactivate_object(key)
        assert poa.find_servant(key) is None
        with pytest.raises(OBJECT_NOT_EXIST):
            poa.deactivate_object(key)

    def test_reactivate_after_deactivate_gets_new_key(self):
        poa = POA("P")
        servant = _Thing()
        key = poa.activate_object(servant)
        poa.deactivate_object(key)
        key2 = poa.activate_object(servant)
        assert key2 != key

    def test_non_servant_rejected(self):
        with pytest.raises(BAD_PARAM):
            POA("P").activate_object(object())

    def test_servant_without_interface_rejected(self):
        class Bare(Servant):
            pass

        with pytest.raises(TypeError, match="_INTERFACE"):
            POA("P").activate_object(Bare())

    def test_keys_carry_poa_name(self):
        poa = POA("MyPOA")
        key = poa.activate_object(_Thing())
        assert key.startswith(b"MyPOA/")

    def test_implicit_object_operations(self):
        servant = _Thing()
        assert servant._is_a("IDL:Thing_poa:1.0")
        assert not servant._is_a("IDL:Other:1.0")
        assert servant._non_existent() is False


class TestSystemExceptions:
    def test_repo_ids(self):
        exc = COMM_FAILURE(minor=3)
        assert exc.repo_id == "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
        assert exc.minor == 3
        assert exc.completed is CompletionStatus.COMPLETED_NO

    def test_wire_round_trip(self):
        exc = OBJECT_NOT_EXIST(
            minor=7, completed=CompletionStatus.COMPLETED_MAYBE)
        enc = CDREncoder()
        encode_system_exception(enc, exc)
        out = decode_system_exception(CDRDecoder(enc.getvalue()))
        assert type(out) is type(exc)
        assert out.minor == 7
        assert out.completed is CompletionStatus.COMPLETED_MAYBE

    def test_unknown_repo_id_maps_to_unknown(self):
        from repro.orb import UNKNOWN
        cls = system_exception_class("IDL:omg.org/CORBA/NOT_A_THING:1.0")
        assert cls is UNKNOWN

    def test_message_in_str_not_on_wire(self):
        exc = COMM_FAILURE(message="socket reset")
        assert "socket reset" in str(exc)
        enc = CDREncoder()
        encode_system_exception(enc, exc)
        out = decode_system_exception(CDRDecoder(enc.getvalue()))
        assert out.message == ""  # minor+status only, per spec

    def test_all_standard_exceptions_are_distinct_types(self):
        from repro.orb import exceptions as mod
        names = ["UNKNOWN", "BAD_PARAM", "COMM_FAILURE", "MARSHAL",
                 "TRANSIENT", "OBJECT_NOT_EXIST", "NO_IMPLEMENT",
                 "BAD_OPERATION", "INTERNAL", "TIMEOUT"]
        classes = [getattr(mod, n) for n in names]
        assert len(set(classes)) == len(classes)
        for cls in classes:
            assert issubclass(cls, SystemException)


class TestUserExceptions:
    def test_members_as_attributes(self):
        class MyExc(UserException):
            pass

        exc = MyExc(code=4, why="nope")
        assert exc.code == 4
        assert "why='nope'" in str(exc)

    def test_repo_id_requires_typecode(self):
        class NoTc(UserException):
            pass

        with pytest.raises(TypeError, match="TYPECODE"):
            NoTc().repo_id


class TestUserExceptionReplies:
    """The dispatcher maps what a servant raises by the signature it
    resolved for the request: a declared user exception travels as a
    USER_EXCEPTION reply, an undeclared one as UNKNOWN, COMPLETED_YES."""

    @pytest.fixture
    def stub(self):
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig
        api = compile_idl("""
            exception PoaDeclared { long code; };
            exception PoaStray { long code; };
            interface PoaRaiser {
                long declared(in long code) raises (PoaDeclared);
                long stray(in long code);
            };""", module_name="_poa_exceptions_idl")

        class Impl(api.PoaRaiser_skel):
            def declared(self, code):
                raise api.PoaDeclared(code=code)

            def stray(self, code):
                raise api.PoaStray(code=code)

        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"))
        try:
            yield api, client.string_to_object(
                server.object_to_string(server.activate(Impl())))
        finally:
            client.shutdown()
            server.shutdown()

    def test_a_declared_exception_is_a_user_exception_reply(self, stub):
        api, ref = stub
        with pytest.raises(api.PoaDeclared) as info:
            ref.declared(7)
        assert info.value.code == 7

    def test_an_undeclared_exception_is_unknown_completed_yes(self, stub):
        from repro.orb import UNKNOWN
        _, ref = stub
        with pytest.raises(UNKNOWN) as info:
            ref.stray(7)
        assert info.value.completed is CompletionStatus.COMPLETED_YES
