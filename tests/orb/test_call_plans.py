"""Call plans: a fixed-layout direction is one ``struct`` call.

An operation's request and its reply are each classified once (DESIGN.md
§17, rule 3): *fixed* when every value is a fixed-layout primitive.  A
fixed direction packs and unpacks with one precompiled ``struct.Struct``
per byte order (``_request_plan`` / ``_reply_plan``, None for any other
direction); everything else, and every call on a ``generic_loop``
connection, runs the TypeCode interpreter.  These tests hold the plan
to the interpreter: the same bytes on both byte orders, the same values
back, and the same exception, type and message, for anything the plan
refuses, on both ends of a real connection too.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (TC_ANY, TC_BOOLEAN, TC_CHAR, TC_DOUBLE, TC_FLOAT,
                       TC_LONG, TC_LONGLONG, TC_OCTET, TC_SEQ_OCTET,
                       TC_SEQ_ZC_OCTET, TC_SHORT, TC_STRING, TC_ULONG,
                       TC_ULONGLONG, TC_USHORT, TC_VOID, CDRDecoder, enum_tc,
                       sequence_tc, struct_tc)
from repro.cdr.typecode import objref_tc, zc_sequence_tc
from repro.giop import RequestHeader, ReplyStatus, encode_message
from repro.idl import compile_idl
from repro.orb import ORB, OperationSignature, ORBConfig, Param, ParamMode
from repro.orb.connection import GIOPConn, ReceivedMessage
from repro.orb.exceptions import decode_system_exception

#: a connection over no stream: the plan's; and one that forces the
#: interpreter, whose bytes and values the plan must reproduce
_PLAN = {le: GIOPConn(None, little_endian=le) for le in (True, False)}
_INTERP = {le: GIOPConn(None, little_endian=le, generic_loop=True)
           for le in (True, False)}
#: the interpreter's demarshal context comes from the received message
_RM = ReceivedMessage(None)

_POINT = struct_tc("PlanPoint", [("x", TC_DOUBLE), ("tag", TC_OCTET),
                                 ("n", TC_LONG)],
                   repo_id="IDL:PlanPoint:1.0")

#: (type, whether a direction holding it alone is fixed); the mode
#: table below places it in each direction
_CLASSES = [
    (TC_BOOLEAN, True), (TC_OCTET, True), (TC_SHORT, True),
    (TC_USHORT, True), (TC_LONG, True), (TC_ULONG, True),
    (TC_LONGLONG, True), (TC_ULONGLONG, True), (TC_FLOAT, True),
    (TC_DOUBLE, True),
    # a struct of fixed primitives runs the interpreter too, which
    # builds its value class
    (_POINT, False), (TC_CHAR, False), (TC_STRING, False),
    (TC_SEQ_OCTET, False), (sequence_tc(TC_LONG), False),
    (enum_tc("PlanColor", ["red", "green"]), False),
    (struct_tc("PlanNamed", [("x", TC_DOUBLE), ("s", TC_STRING)]), False),
    (TC_SEQ_ZC_OCTET, False), (zc_sequence_tc(TC_DOUBLE), False),
    (objref_tc("IDL:PlanTarget:1.0"), False), (TC_ANY, False),
    (struct_tc("PlanHolder", [("n", TC_LONG), ("d", TC_SEQ_ZC_OCTET)]),
     False),
    (sequence_tc(objref_tc("IDL:PlanTarget:1.0")), False),
]


def _fixed(sig: OperationSignature) -> tuple:
    """Whether the request and whether the reply has a call plan."""
    return sig._request_plan is not None, sig._reply_plan is not None


def _sig(mode, tc) -> OperationSignature:
    if mode == "result":
        return OperationSignature("op", result_tc=tc)
    return OperationSignature("op", params=(Param("a", ParamMode(mode), tc),))


@pytest.mark.parametrize("tc, fixed", _CLASSES, ids=lambda v: repr(v))
@pytest.mark.parametrize("mode", ["in", "out", "inout", "result"])
def test_each_type_is_classified_per_direction(tc, fixed, mode):
    # a direction the value does not travel in is empty, hence fixed
    expected = {"in": (fixed, True), "out": (True, fixed),
                "inout": (fixed, fixed), "result": (True, fixed)}[mode]
    assert _fixed(_sig(mode, tc)) == expected


def test_a_bulk_call_is_fixed_only_where_it_carries_nothing():
    api = compile_idl("""interface PlanBulk {
        unsigned long send_zc(in sequence<zc_octet> data);
        sequence<zc_octet> fetch_zc(in unsigned long n);
        void ping(in unsigned long x);
    };""", module_name="_call_plans_bulk_idl")
    iface = api.PlanBulk._INTERFACE
    assert _fixed(iface.find_operation("send_zc")) == (False, True)
    assert _fixed(iface.find_operation("fetch_zc")) == (True, False)
    assert _fixed(iface.find_operation("ping")) == (True, True)


# -- plan against interpreter ---------------------------------------------------

def _ints(bits, signed):
    if signed:
        return st.integers(-(1 << bits - 1), (1 << bits - 1) - 1)
    return st.integers(0, (1 << bits) - 1)


_VALUES = {
    TC_BOOLEAN: st.booleans(), TC_OCTET: _ints(8, False),
    TC_SHORT: _ints(16, True), TC_USHORT: _ints(16, False),
    TC_LONG: _ints(32, True), TC_ULONG: _ints(32, False),
    TC_LONGLONG: _ints(64, True), TC_ULONGLONG: _ints(64, False),
    TC_FLOAT: st.floats(width=32, allow_nan=False),
    TC_DOUBLE: st.floats(allow_nan=False),
}


_FIXED_TYPES = list(_VALUES)


def _same(a, b) -> bool:
    """Equal values of the same types (``True`` is not ``1`` here)."""
    return a == b and [type(v) for v in a] == [type(v) for v in b]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_FIXED_TYPES), max_size=8).flatmap(
    lambda tcs: st.tuples(st.just(tcs), st.tuples(*map(_VALUES.get, tcs)))))
def test_a_fixed_request_packs_the_interpreters_bytes(case):
    tcs, args = case
    sig = OperationSignature("op", params=tuple(
        Param(f"a{i}", ParamMode.INOUT if i % 2 else ParamMode.IN, tc)
        for i, tc in enumerate(tcs)))
    for le in (True, False):
        body, ctx = sig.marshal_request(_PLAN[le], list(args))
        enc, _ = sig.marshal_request(_INTERP[le], list(args))
        assert type(body) is bytes and ctx is None
        assert body == enc.getvalue()
        planned = sig.demarshal_request(CDRDecoder(body, le), _RM, _PLAN[le])
        walked = sig.demarshal_request(CDRDecoder(body, le), _RM,
                                       _INTERP[le])
        assert _same(planned, walked) and _same(planned, list(args))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_FIXED_TYPES), max_size=6).flatmap(
    lambda tcs: st.tuples(st.just(tcs), st.tuples(*map(_VALUES.get, tcs)))))
def test_a_fixed_reply_packs_the_interpreters_bytes(case):
    tcs, values = case
    # the first type is the result, the rest are outs
    sig = OperationSignature(
        "op", result_tc=tcs[0] if tcs else TC_VOID,
        params=tuple(Param(f"o{i}", ParamMode.OUT, tc)
                     for i, tc in enumerate(tcs[1:])))
    value = values[0] if len(values) == 1 else values or None
    for le in (True, False):
        body, ctx = sig.marshal_reply(_PLAN[le], value)
        enc, _ = sig.marshal_reply(_INTERP[le], value)
        assert type(body) is bytes and ctx is None
        assert body == enc.getvalue()
        planned = sig.demarshal_reply(CDRDecoder(body, le), _RM, _PLAN[le])
        walked = sig.demarshal_reply(CDRDecoder(body, le), _RM, _INTERP[le])
        assert type(planned) is type(walked) and planned == walked
        assert planned == value


def test_the_pads_sit_where_cdr_puts_them():
    sig = OperationSignature("op", params=(
        Param("a", ParamMode.IN, TC_OCTET), Param("b", ParamMode.IN, TC_LONG),
        Param("c", ParamMode.IN, TC_SHORT),
        Param("d", ParamMode.IN, TC_DOUBLE)))
    body, _ = sig.marshal_request(_PLAN[False], [1, 2, 3, 4.0])
    assert body == (b"\x01" + bytes(3) + b"\x00\x00\x00\x02" + b"\x00\x03"
                    + bytes(6) + b"\x40\x10" + bytes(6))


class _Unbooled:
    def __bool__(self):
        raise ValueError("no truth here")


_REFUSED = [
    (TC_OCTET, 256), (TC_OCTET, -1), (TC_SHORT, 1 << 15),
    (TC_USHORT, -1), (TC_LONG, 1 << 31), (TC_ULONG, 1 << 32),
    (TC_LONGLONG, 1 << 63), (TC_ULONGLONG, -1), (TC_LONG, "7"),
    (TC_LONGLONG, 1.5), (TC_DOUBLE, "x"), (TC_FLOAT, 1e300),
    (TC_FLOAT, None), (TC_BOOLEAN, _Unbooled()),
]


def _outcome(call):
    """What ``call()`` returns, or the type and message it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)


def _wire(marshaled) -> bytes:
    body, _ = marshaled
    return body if isinstance(body, bytes) else body.getvalue()


@pytest.mark.parametrize("tc, value", _REFUSED, ids=lambda v: repr(v))
def test_a_refused_value_raises_what_the_interpreter_raises(tc, value):
    request = OperationSignature("op", params=(
        Param("a", ParamMode.IN, TC_LONG), Param("b", ParamMode.IN, tc)))
    reply = OperationSignature("op", result_tc=tc, params=(
        Param("o", ParamMode.OUT, TC_LONG),))
    for le in (True, False):
        got = _outcome(lambda: request.marshal_request(_PLAN[le], [1, value]))
        want = _outcome(lambda: request.marshal_request(_INTERP[le],
                                                        [1, value]))
        assert isinstance(want[0], type) and got == want
        got = _outcome(lambda: reply.marshal_reply(_PLAN[le], (value, 1)))
        want = _outcome(lambda: reply.marshal_reply(_INTERP[le], (value, 1)))
        assert isinstance(want[0], type) and got == want


@pytest.mark.parametrize("args", [[], [1], [1, 2, 3]], ids=len)
def test_a_wrong_argument_count_raises_what_the_interpreter_raises(args):
    sig = OperationSignature("op", params=(
        Param("a", ParamMode.IN, TC_LONG), Param("b", ParamMode.IN, TC_LONG)))
    got = _outcome(lambda: sig.marshal_request(_PLAN[True], args))
    want = _outcome(lambda: sig.marshal_request(_INTERP[True], args))
    assert isinstance(want[0], type) and got == want
    assert "takes 2" in want[1]


@pytest.mark.parametrize("value", [5, [1, 2], (1,), (1, 2, 3)], ids=repr)
def test_a_wrong_reply_shape_raises_what_the_interpreter_raises(value):
    sig = OperationSignature("op", result_tc=TC_LONG, params=(
        Param("o", ParamMode.OUT, TC_LONG),))
    got = _outcome(lambda: sig.marshal_reply(_PLAN[True], value))
    want = _outcome(lambda: sig.marshal_reply(_INTERP[True], value))
    assert isinstance(want[0], type) and got == want
    assert "2-tuple" in want[1]


def test_a_short_body_raises_what_the_interpreter_raises():
    sig = OperationSignature("op", result_tc=TC_DOUBLE, params=(
        Param("a", ParamMode.IN, TC_LONG), Param("b", ParamMode.IN, TC_DOUBLE),
        Param("o", ParamMode.OUT, TC_LONG)))
    request = _wire(sig.marshal_request(_PLAN[True], [1, 2.0]))
    reply = _wire(sig.marshal_reply(_PLAN[True], (2.0, 1)))
    for demarshal, body in ((sig.demarshal_request, request),
                            (sig.demarshal_reply, reply)):
        for cut in range(len(body)):
            got = _outcome(lambda: demarshal(
                CDRDecoder(body[:cut], True), _RM, _PLAN[True]))
            want = _outcome(lambda: demarshal(
                CDRDecoder(body[:cut], True), _RM, _INTERP[True]))
            assert isinstance(want[0], type) and got == want


# -- over a real connection ---------------------------------------------------------

_PING_IDL = """
struct PlanSample { double value; unsigned long long stamp; boolean ok; };
interface PlanPing {
    long ping(in long x);
    PlanSample sample(in unsigned short channel, out double raw);
    void nothing();
};"""


@pytest.fixture(scope="module")
def api():
    return compile_idl(_PING_IDL, module_name="_call_plans_ping_idl")


def _impl(api):
    class Impl(api.PlanPing_skel):
        def ping(self, x):
            return x + 1

        def sample(self, channel):
            return api.PlanSample(value=channel / 4, stamp=1 << 40,
                                  ok=True), -0.5

        def nothing(self):
            return None

    return Impl()


@pytest.mark.parametrize("server_le, client_le",
                         [(True, False), (False, True), (False, False)],
                         ids=["server-little", "server-big", "both-big"])
def test_flipped_byte_orders_ping_each_other(api, server_le, client_le):
    server = ORB(ORBConfig(scheme="tcp", wire_little_endian=server_le))
    client = ORB(ORBConfig(scheme="tcp", wire_little_endian=client_le))
    try:
        stub = client.string_to_object(
            server.object_to_string(server.activate(_impl(api))))
        assert stub.ping(41) == 42
        assert stub.ping(-(1 << 31)) == -(1 << 31) + 1
        got, raw = stub.sample(6)
        assert type(got) is api.PlanSample and raw == -0.5
        assert (got.value, got.stamp, got.ok) == (1.5, 1 << 40, True)
        assert stub.nothing() is None
    finally:
        client.shutdown()
        server.shutdown()


def _truncated_ping_reply(api, generic_loop: bool, params: bytes):
    """``(exception type, completion status)`` a server answers a
    ``ping`` whose body is ``params``."""
    server = ORB(ORBConfig(scheme="tcp", generic_loop=generic_loop))
    try:
        ref = server.activate(_impl(api))
        endpoint = server.endpoint
        conn = GIOPConn(server.transports.get(endpoint[0]).connect(
            endpoint, timeout=5.0))
        try:
            conn.stream.send(encode_message(RequestHeader(
                request_id=1, object_key=ref._ior.iiop_profile().object_key,
                operation="ping"), params=params))
            rm = conn.read_message(5.0)
        finally:
            conn.close()
        assert rm.msg.body_header.reply_status is \
            ReplyStatus.SYSTEM_EXCEPTION
        exc = decode_system_exception(rm.params_decoder())
        return type(exc), exc.completed
    finally:
        server.shutdown()


@pytest.mark.parametrize("params", [b"\x01", b"\x01\x02\x03"], ids=len)
def test_a_truncated_request_maps_as_the_interpreter_maps_it(api, params):
    planned = _truncated_ping_reply(api, False, params)
    assert planned == _truncated_ping_reply(api, True, params)


def test_float_results_keep_their_single_precision(api):
    sig = OperationSignature("op", result_tc=TC_FLOAT)
    body, _ = sig.marshal_reply(_PLAN[True], math.pi)
    got = sig.demarshal_reply(CDRDecoder(body, True), _RM, _PLAN[True])
    assert got == sig.demarshal_reply(CDRDecoder(body, True), _RM,
                                      _INTERP[True]) != math.pi
