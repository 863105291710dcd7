"""Dynamic Invocation Interface tests."""

import pytest

from repro.cdr import (TC_SEQ_OCTET, TC_SEQ_ZC_OCTET, TC_STRING, TC_ULONG)
from repro.core import OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.orb import BAD_PARAM, DynRequest


class TestDynRequest:
    def test_dynamic_call_without_stub_method(self, loop_pair):
        stub, impl, *_ = loop_pair
        n = DynRequest(stub, "put_std", result_tc=TC_ULONG) \
            .add_in_arg(OctetSequence(b"dyn"), TC_SEQ_OCTET) \
            .invoke()
        assert n == 3
        assert impl.last.tobytes() == b"dyn"

    def test_dynamic_zero_copy_rides_deposit_path(self, loop_pair):
        """The deposit optimization is ORB property, not stub property."""
        stub, impl, client, _ = loop_pair
        payload = ZCOctetSequence.from_data(b"q" * DEPOSIT_MIN_SIZE)
        n = DynRequest(stub, "put", result_tc=TC_ULONG) \
            .add_in_arg(payload, TC_SEQ_ZC_OCTET) \
            .invoke()
        assert n == DEPOSIT_MIN_SIZE
        assert impl.last.is_page_aligned
        conn = next(iter(client._proxies.values())).conn
        assert conn.stats.deposits_sent == 1

    def test_inout_and_result(self, loop_pair):
        stub, *_ = loop_pair
        req = DynRequest(stub, "swap", result_tc=TC_STRING)
        req.add_inout_arg("abc", TC_STRING)
        assert req.invoke() == ("ABC", "cba")
        assert req.result == ("ABC", "cba")

    def test_oneway(self, loop_pair):
        stub, impl, *_ = loop_pair
        DynRequest(stub, "reset", oneway=True).invoke()
        assert impl.resets == 1

    def test_reinvocation_rejected(self, loop_pair):
        stub, *_ = loop_pair
        req = DynRequest(stub, "reset", oneway=True)
        req.invoke()
        with pytest.raises(BAD_PARAM, match="re-invoked"):
            req.invoke()

    def test_target_must_be_reference(self):
        with pytest.raises(BAD_PARAM):
            DynRequest("not a stub", "op")

    def test_user_exception_surfaces(self, loop_pair, test_api):
        stub, *_ = loop_pair
        req = DynRequest(stub, "put", result_tc=TC_ULONG,
                         raises=(test_api.Test_Failed.TYPECODE,))
        req.add_in_arg(ZCOctetSequence.from_data(b""), TC_SEQ_ZC_OCTET)
        with pytest.raises(test_api.Test_Failed):
            req.invoke()
