"""Unit tests for operation signatures and the interface model."""

import pytest

from repro.cdr import CDRDecoder
from repro.cdr.typecode import TC_DOUBLE, TC_LONG, TC_STRING, exception_tc
from repro.orb import (BAD_PARAM, MARSHAL, InterfaceDef, OperationSignature,
                       Param, ParamMode)
from repro.orb.connection import GIOPConn, ReceivedMessage

#: the marshal entry points read byte order, encoder and context off a
#: connection; one over no stream has the defaults
CONN = GIOPConn(None)


def _sig(**kw):
    defaults = dict(name="op")
    defaults.update(kw)
    return OperationSignature(**defaults)


class TestParamMode:
    def test_directionality(self):
        assert ParamMode.IN.sends and not ParamMode.IN.returns
        assert ParamMode.OUT.returns and not ParamMode.OUT.sends
        assert ParamMode.INOUT.sends and ParamMode.INOUT.returns


class TestSignatureValidation:
    def test_oneway_constraints(self):
        with pytest.raises(ValueError):
            _sig(oneway=True, result_tc=TC_LONG)
        with pytest.raises(ValueError):
            _sig(oneway=True,
                 params=(Param("x", ParamMode.OUT, TC_LONG),))
        with pytest.raises(ValueError):
            _sig(oneway=True, raises=(exception_tc(
                "E", [], repo_id="IDL:Esig:1.0"),))
        _sig(oneway=True)  # valid

    def test_wrong_arg_count(self):
        sig = _sig(params=(Param("a", ParamMode.IN, TC_LONG),))
        with pytest.raises(BAD_PARAM, match="takes 1"):
            sig.marshal_request(CONN, [1, 2])

    def test_out_params_not_sent(self):
        sig = _sig(params=(Param("a", ParamMode.IN, TC_LONG),
                           Param("b", ParamMode.OUT, TC_STRING)))
        body, _ = sig.marshal_request(CONN, [42])
        dec = CDRDecoder(body)
        assert sig.demarshal_request(dec, ReceivedMessage(None), CONN) == [42]
        assert dec.remaining == 0  # the OUT param used no wire space


class TestResultPacking:
    def test_void_no_outs(self):
        sig = _sig()
        assert sig.pack_results(None, []) is None
        assert sig.split_servant_return(None) == (None, [])

    def test_result_only(self):
        sig = _sig(result_tc=TC_LONG)
        assert sig.pack_results(7, []) == 7
        assert sig.split_servant_return(7) == (7, [])

    def test_single_out_void_result(self):
        sig = _sig(params=(Param("o", ParamMode.OUT, TC_STRING),))
        assert sig.pack_results(None, ["v"]) == "v"
        assert sig.split_servant_return("v") == (None, ["v"])

    def test_result_plus_outs(self):
        sig = _sig(result_tc=TC_LONG,
                   params=(Param("o1", ParamMode.OUT, TC_STRING),
                           Param("o2", ParamMode.INOUT, TC_DOUBLE)))
        assert sig.pack_results(1, ["a", 2.0]) == (1, "a", 2.0)
        assert sig.split_servant_return((1, "a", 2.0)) == (1, ["a", 2.0])

    def test_wrong_tuple_shape_rejected(self):
        sig = _sig(result_tc=TC_LONG,
                   params=(Param("o", ParamMode.OUT, TC_STRING),))
        with pytest.raises(MARSHAL, match="2-tuple"):
            sig.split_servant_return(5)

    def test_reply_marshal_count_checked(self):
        sig = _sig(result_tc=TC_LONG,
                   params=(Param("o", ParamMode.OUT, TC_STRING),))
        with pytest.raises(MARSHAL, match="2-tuple"):
            sig.marshal_reply(CONN, (1, "a", "b"))


class TestInterfaceDef:
    def _tree(self):
        base = InterfaceDef(repo_id="IDL:Base:1.0", name="Base",
                            operations=(_sig(name="ping"),
                                        _sig(name="shared")))
        derived = InterfaceDef(
            repo_id="IDL:Derived:1.0", name="Derived",
            operations=(_sig(name="extra"),
                        _sig(name="shared", result_tc=TC_LONG)),
            bases=(base,))
        return base, derived

    def test_find_operation_walks_bases(self):
        base, derived = self._tree()
        assert derived.find_operation("ping") is base.operations[0]
        assert derived.find_operation("extra") is not None
        assert derived.find_operation("ghost") is None

    def test_override_shadows_base(self):
        _, derived = self._tree()
        assert derived.find_operation("shared").result_tc is TC_LONG

    def test_all_operations_merged(self):
        _, derived = self._tree()
        ops = derived.all_operations()
        assert set(ops) == {"ping", "shared", "extra"}
        assert ops["shared"].result_tc is TC_LONG

    def test_is_a_transitive(self):
        base, derived = self._tree()
        assert derived.is_a("IDL:Derived:1.0")
        assert derived.is_a("IDL:Base:1.0")
        assert not base.is_a("IDL:Derived:1.0")

    def test_exception_lookup(self):
        tc = exception_tc("Boom", [("why", TC_STRING)],
                          repo_id="IDL:Boom_sig:1.0")
        sig = _sig(raises=(tc,))
        assert sig.exception_tc_by_id("IDL:Boom_sig:1.0") is tc
        assert sig.exception_tc_by_id("IDL:Other:1.0") is None
