"""Cross-cutting coverage: locate, CLI mains, Fast-Ethernet claim."""

import time

import pytest

from repro.orb import (ORB, TIMEOUT, CompletionStatus, InvocationPolicy,
                       ORBConfig)
from repro.orb.exceptions import TRANSIENT
from repro.transport import FaultPlan, faulty_registry


class TestLocate:
    def test_locate_existing_and_deactivated(self, test_api, store_impl):
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        try:
            ref = server.activate(store_impl)
            stub = client.string_to_object(server.object_to_string(ref))
            assert client.locate(stub) is True
            server.deactivate(ref)
            assert client.locate(stub) is False
        finally:
            client.shutdown()
            server.shutdown()

    def test_locate_collocated_shortcut(self, test_api, store_impl):
        orb = ORB(ORBConfig(scheme="loop"))
        try:
            ref = orb.activate(store_impl)
            assert orb.locate(ref) is True
        finally:
            orb.shutdown()

    @pytest.fixture
    def remote(self, test_api, store_impl):
        """makes (client, stub) for an object on a second ORB, the
        client's wire optionally under a FaultPlan and a policy."""
        orbs = []

        def make(scheme="loop", plan=None, policy=None):
            server = ORB(ORBConfig(scheme=scheme))
            client = ORB(ORBConfig(scheme=scheme), policy=policy,
                         transports=plan and faulty_registry(plan))
            orbs.extend([client, server])
            return client, client.string_to_object(
                server.object_to_string(server.activate(store_impl)))

        yield make
        for orb in orbs:
            orb.shutdown()

    def test_locate_is_false_when_the_server_hangs_up(self, remote,
                                                      monkeypatch):
        """A CloseConnection instead of a LocateReply is an answer."""
        from repro.orb import IIOPServer

        def hang_up(server, conn, rm, driver=None):
            conn.send_close()
            conn.close()

        monkeypatch.setattr(IIOPServer, "_route", hang_up)
        client, stub = remote()
        assert client.locate(stub) is False

    def test_locate_honours_the_deadline(self, remote):
        """A server that accepts and then says nothing used to hang the
        caller forever; under a policy the probe times out like a call,
        with the completion status of a request that did leave."""
        client, stub = remote("tcp", FaultPlan().stall_recv(nth=1, delay=0.6),
                              InvocationPolicy(timeout=0.2))
        t0 = time.monotonic()
        with pytest.raises(TIMEOUT) as ei:
            client.locate(stub)
        assert time.monotonic() - t0 < 0.5
        assert ei.value.completed is CompletionStatus.COMPLETED_MAYBE
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.timeouts == 1
        assert proxy._demux.inflight == 0

    def test_locate_retries_a_refused_dial(self, remote):
        plan = FaultPlan().refuse_connect(nth=1)
        sleeps = []
        policy = InvocationPolicy(max_retries=1, seed=7, sleep=sleeps.append)
        client, stub = remote("loop", plan, policy)
        assert client.locate(stub) is True
        assert [e.action for e in plan.events] == ["refuse"]
        assert sleeps == policy.preview_schedule()[:1]
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.retries == 1

    def test_locate_without_budget_reports_the_refused_dial(self, remote):
        """A dial that never reached the server is not an answer."""
        client, stub = remote("loop", FaultPlan().refuse_connect(nth=1))
        with pytest.raises(TRANSIENT) as ei:
            client.locate(stub)
        assert ei.value.completed is CompletionStatus.COMPLETED_NO


class TestFastEthernetClaim:
    def test_corba_would_not_saturate_fast_ethernet(self):
        """§5.2: 'The achieved bandwidths would not even use a Fast
        Ethernet to its limit.'  On a modelled 100 MBit link, classic
        CORBA still cannot reach the wire; the zero-copy ORB pins it."""
        from repro.simnet import (FAST_ETHERNET, PENTIUM_II_400,
                                  OrbCostConfig, measure_corba_request,
                                  standard_stack)
        size = 4 << 20
        std = measure_corba_request(PENTIUM_II_400, FAST_ETHERNET, size,
                                    standard_stack(),
                                    OrbCostConfig(zero_copy=False))
        zc = measure_corba_request(PENTIUM_II_400, FAST_ETHERNET, size,
                                   standard_stack(),
                                   OrbCostConfig(zero_copy=True))
        assert std.mbit_per_s < 60  # CPU-bound far below the wire
        assert zc.mbit_per_s > 85  # zero-copy ORB saturates FE


class TestCLIs:
    def test_repro_idl_main(self, tmp_path, capsys):
        from repro.idl.compiler import main
        src = tmp_path / "svc.idl"
        src.write_text("interface CliSvc { void ping(); };")
        out = tmp_path / "svc.py"
        assert main([str(src), "-o", str(out)]) == 0
        text = out.read_text()
        assert "class CliSvc(_ObjectStub):" in text
        compile(text, str(out), "exec")

    def test_repro_idl_with_include(self, tmp_path):
        from repro.idl.compiler import main
        (tmp_path / "base.idl").write_text("typedef sequence<octet> B;")
        src = tmp_path / "top.idl"
        src.write_text('#include "base.idl"\n'
                       "interface Top2 { void put(in B data); };")
        out = tmp_path / "top.py"
        assert main([str(src), "-o", str(out)]) == 0
        assert "Top2" in out.read_text()

    def test_repro_ttcp_main_sim(self, capsys):
        from repro.apps.ttcp import main
        assert main(["--mode", "sim", "--versions", "raw",
                     "--max-size", "65536"]) == 0
        out = capsys.readouterr().out
        assert "raw/standard" in out

    def test_repro_transcode_main(self, capsys):
        from repro.apps.transcoder.cli import main
        assert main(["--frames", "6", "--workers", "1",
                     "--paths", "zc"]) == 0
        out = capsys.readouterr().out
        assert "zc " in out and "PSNR" in out


class TestPoolStatsVisibility:
    def test_deposit_pool_warms_across_requests(self, test_api,
                                                store_impl):
        """Steady-state requests of one size hit the pool, not malloc —
        the §2.1 allocation overhead is removed in the real ORB too."""
        from repro.core import BufferPool, ZCOctetSequence
        pool = BufferPool()
        server = ORB(ORBConfig(scheme="loop"), pool=pool)
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False),
                     pool=pool)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(store_impl)))
            payload = bytes(64 * 1024)
            for _ in range(5):
                seq = ZCOctetSequence.from_data(payload, pool=pool)
                stub.put(seq)
                # the servant releases nothing: buffers accumulate
                # unless the app returns them — release explicitly
                store_impl.last.release()
            assert pool.hits >= 4  # first call may miss, rest reuse
        finally:
            client.shutdown()
            server.shutdown()
