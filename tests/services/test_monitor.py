"""ORBMonitor: in-band introspection over GIOP.

Includes the PR's acceptance scenario: a slow call's full span tree is
retrievable through ``recent_spans`` *without tracing ever having been
enabled* — the always-on flight recorder captured it.
"""

import json
import time

import pytest

from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.obs.flightrec import DEFAULT_SLOW_THRESHOLD
from repro.obs.cli import validate_dump, validate_span_dump
from repro.orb import ORB, ORBConfig
from repro.orb.exceptions import INV_OBJREF
from repro.services.monitor import monitor_api, register_monitor

SLEEPY_IDL = """
interface Sleepy {
    unsigned long nap(in unsigned long millis);
    unsigned long put(in sequence<zc_octet> data);
};
"""


@pytest.fixture(scope="module")
def sleepy_api():
    return compile_idl(SLEEPY_IDL, module_name="_monitor_sleepy_idl")


def _make_impl(api):
    class Impl(api.Sleepy_skel):
        def nap(self, millis):
            time.sleep(millis / 1000.0)
            return millis

        def put(self, data):
            return len(data)

    return Impl()


@pytest.fixture
def pair(sleepy_api):
    """(stub, monitor_stub, client, server) over loopback."""
    server = ORB(ORBConfig(scheme="loop"))
    client = ORB(ORBConfig(scheme="loop"))
    ref = server.activate(_make_impl(sleepy_api))
    stub = client.string_to_object(server.object_to_string(ref))
    mon_ref = server.resolve_initial_references("ORBMonitor")
    monitor = client.string_to_object(server.object_to_string(mon_ref))
    yield stub, monitor, client, server
    client.shutdown()
    server.shutdown()


class TestRegistration:
    def test_server_orb_auto_registers_monitor(self, pair):
        _, monitor, _, server = pair
        assert server.resolve_initial_references("ORBMonitor") is not None
        assert monitor.uptime() > 0.0

    def test_monitor_false_opts_out(self, sleepy_api):
        """An ORB that never resolves the monitor activates no monitor
        servant; ``register_monitor`` still works; a client-only ORB
        has none to resolve."""
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop"))
        try:
            server.activate(_make_impl(sleepy_api))
            assert len(server.poa) == 1  # the servant above, no monitor
            ref = register_monitor(server)
            assert server.resolve_initial_references("ORBMonitor") is ref
            with pytest.raises(INV_OBJREF):
                client.resolve_initial_references("ORBMonitor")
        finally:
            client.shutdown()
            server.shutdown()

    def test_slow_threshold_reports_recorder_config(self, pair):
        _, monitor, _, _ = pair
        assert monitor.slow_threshold() == DEFAULT_SLOW_THRESHOLD


class TestSnapshotAndConnections:
    def test_snapshot_is_valid_v1_dump(self, pair):
        stub, monitor, _, _ = pair
        stub.nap(0)
        doc = json.loads(monitor.snapshot())
        assert validate_dump(doc) == []

    def test_connections_carry_tier_counters(self, pair):
        stub, monitor, _, _ = pair
        stub.put(ZCOctetSequence.from_data(b"x" * DEPOSIT_MIN_SIZE))
        records = monitor.connections()
        api = monitor_api()
        assert records and all(
            isinstance(r, api.Monitor_ConnStatsRec) for r in records)
        server_side = [r for r in records if r.role == "server"]
        assert server_side
        # the put() and the monitor calls themselves crossed this conn
        assert sum(r.messages_received for r in server_side) >= 2
        assert sum(r.deposits_received for r in server_side) >= 1
        # tier counters are present (zero over plain loopback is fine)
        assert server_side[0].shm_deposits >= 0
        assert server_side[0].sendfile_sends >= 0


class TestFlightRecorderAcceptance:
    def test_slow_call_tree_captured_without_tracing(self, sleepy_api):
        """A call slower than the threshold is fully retained — stages
        and all — although enable_tracing was never called."""
        server = ORB(ORBConfig(scheme="loop", slow_call_threshold=0.010))
        client = ORB(ORBConfig(scheme="loop"))
        try:
            assert server.metrics is None  # tracing really is off
            ref = server.activate(_make_impl(sleepy_api))
            stub = client.string_to_object(server.object_to_string(ref))
            stub.nap(0)    # fast: header only
            stub.nap(30)   # slow: full tree sampled
            mon_ref = server.resolve_initial_references("ORBMonitor")
            monitor = client.string_to_object(
                server.object_to_string(mon_ref))
            doc = json.loads(monitor.recent_spans(0))
            assert validate_span_dump(doc) == []
            naps = [s for s in doc["spans"] if s["name"] == "nap"]
            assert len(naps) == 2
            slow = [s for s in naps if s["duration_s"] >= 0.010]
            fast = [s for s in naps if s["duration_s"] < 0.010]
            assert len(slow) == 1 and len(fast) == 1
            # the slow call kept its stage detail, the fast one did not
            assert slow[0]["stages"]
            assert fast[0]["stages"] == []
        finally:
            client.shutdown()
            server.shutdown()

    def test_recent_spans_bounds_root_count(self, pair):
        stub, monitor, _, _ = pair
        for _ in range(5):
            stub.nap(0)
        doc = json.loads(monitor.recent_spans(2))
        # monitor invocations are recorded too, so: exactly 2 roots
        assert len(doc["spans"]) == 2
