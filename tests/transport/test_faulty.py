"""The fault-injection transport: deterministic, seeded wire failures.

Stream-level coverage of every FaultPlan action (connect refusal,
mid-stream reset, partial delivery, stalls, corruption), the per-
connection/nth-operation addressing, the audit log, and seeded
determinism of probabilistic rules."""

import select
import threading
import time

import pytest

from repro.transport import (FaultPlan, FaultRule, FaultyTransport,
                             LoopbackTransport, TCPTransport, TransportError,
                             faulty_registry)


def make_pair(plan):
    """(client stream, server stream, listener) over faulty loopback."""
    transport = FaultyTransport(LoopbackTransport(), plan)
    accepted = []
    listener = transport.listen("faulty-host", 0, accepted.append)
    client = transport.connect(listener.endpoint)
    return client, accepted[0], listener


class TestPlanBasics:
    def test_adopts_inner_scheme(self):
        assert FaultyTransport(LoopbackTransport()).scheme == "loop"

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(op="send", action="explode")

    def test_no_rules_is_transparent(self):
        client, server, listener = make_pair(FaultPlan())
        try:
            client.send(b"ping")
            assert server.recv_exact(4).tobytes() == b"ping"
            server.send(b"pong")
            assert client.recv_exact(4).tobytes() == b"pong"
        finally:
            listener.close()

    def test_builder_chaining(self):
        plan = FaultPlan(seed=3).refuse_connect(nth=1).reset_on_send(nth=2)
        assert [r.op for r in plan.rules] == ["connect", "send"]


class TestConnectFaults:
    def test_refusal_then_success(self):
        plan = FaultPlan().refuse_connect(nth=1)
        transport = FaultyTransport(LoopbackTransport(), plan)
        accepted = []
        listener = transport.listen("refuse-host", 0, accepted.append)
        try:
            with pytest.raises(TransportError, match="injected connect"):
                transport.connect(listener.endpoint)
            stream = transport.connect(listener.endpoint)
            stream.send(b"ok")
            assert accepted[0].recv_exact(2).tobytes() == b"ok"
            assert [(e.op, e.action) for e in plan.events] == \
                [("connect", "refuse")]
        finally:
            listener.close()

    def test_stall_connect_delays(self):
        plan = FaultPlan().stall_connect(nth=1, delay=0.03)
        transport = FaultyTransport(LoopbackTransport(), plan)
        listener = transport.listen("stallconn-host", 0, lambda s: None)
        try:
            t0 = time.monotonic()
            transport.connect(listener.endpoint)
            assert time.monotonic() - t0 >= 0.03
        finally:
            listener.close()


class TestSendFaults:
    def test_reset_on_nth_send(self):
        plan = FaultPlan().reset_on_send(nth=2)
        client, server, listener = make_pair(plan)
        try:
            client.send(b"first")
            assert server.recv_exact(5).tobytes() == b"first"
            with pytest.raises(TransportError, match="injected reset"):
                client.send(b"second")
            # the reset tore the stream down for good
            with pytest.raises(TransportError):
                client.send(b"third")
        finally:
            listener.close()

    def test_partial_send_delivers_prefix(self):
        plan = FaultPlan().partial_send(nth=1, fraction=0.5)
        client, server, listener = make_pair(plan)
        try:
            with pytest.raises(TransportError, match="50/100"):
                client.send(bytes(range(100)))
            assert server.available == 50
            assert server.recv_exact(50).tobytes() == bytes(range(50))
        finally:
            listener.close()

    def test_partial_respects_chunk_boundaries(self):
        """The cut point falls mid-chunk of a gather write."""
        plan = FaultPlan().partial_send(nth=1, fraction=0.25)
        client, server, listener = make_pair(plan)
        try:
            with pytest.raises(TransportError):
                client.sendv([b"A" * 30, b"B" * 30, b"C" * 60])
            assert server.recv_exact(30).tobytes() == b"A" * 30
        finally:
            listener.close()

    def test_corrupt_flips_one_byte_without_touching_source(self):
        plan = FaultPlan().corrupt_send(nth=1, byte_offset=4, xor_mask=0xFF)
        client, server, listener = make_pair(plan)
        try:
            payload = bytearray(b"GIOP\x01\x00\x00\x00")
            client.send(payload)
            got = server.recv_exact(8).tobytes()
            assert got[4] == 0x01 ^ 0xFF
            assert got[:4] == b"GIOP"
            assert payload[4] == 0x01  # the caller's buffer is sacred
        finally:
            listener.close()

    def test_stall_send_sleeps_then_delivers(self):
        plan = FaultPlan().stall_send(nth=1, delay=0.03)
        client, server, listener = make_pair(plan)
        try:
            t0 = time.monotonic()
            client.send(b"late")
            assert time.monotonic() - t0 >= 0.03
            assert server.recv_exact(4).tobytes() == b"late"
        finally:
            listener.close()


@pytest.fixture
def tcp_pair():
    """``make(plan)`` -> (client stream, server stream) over faulty tcp."""
    made = []

    def make(plan):
        transport = FaultyTransport(TCPTransport(), plan)
        accepted = []
        listener = transport.listen("127.0.0.1", 0, accepted.append)
        client = transport.connect(listener.endpoint)
        deadline = time.monotonic() + 5.0
        while not accepted and time.monotonic() < deadline:
            time.sleep(0.005)
        made.append((client, accepted[0], listener))
        return client, accepted[0]

    yield make
    for client, server, listener in made:
        client.close()
        server.close()
        listener.close()


def _readable(stream, timeout: float) -> bool:
    """Whether a poller of ``stream`` wakes within ``timeout``."""
    poll = select.poll()
    poll.register(stream.fileno(), select.POLLIN)
    return bool(poll.poll(timeout * 1e3))


class TestRecvFaults:
    """A read never waits: a reset or a partial delivery raises at once,
    a stall holds the stream, and each staged read takes one number."""

    def test_reset_on_recv(self):
        plan = FaultPlan().reset_on_recv(nth=1)
        client, server, listener = make_pair(plan)
        try:
            server.send(b"data")
            with pytest.raises(TransportError, match="injected reset"):
                client.recv_into_nb(memoryview(bytearray(4)))
        finally:
            listener.close()

    def test_partial_recv_lands_prefix(self):
        plan = FaultPlan().partial_recv(nth=1, fraction=0.3)
        client, server, listener = make_pair(plan)
        try:
            server.send(bytes(range(100)))
            view = memoryview(bytearray(100))
            with pytest.raises(TransportError, match="30/100"):
                client.recv_into_nb(view)
            assert view[:30].tobytes() == bytes(range(30))
        finally:
            listener.close()

    def test_a_stall_keeps_the_stream_out_of_poll_until_its_delay(self,
                                                                 tcp_pair):
        client, server = tcp_pair(FaultPlan().stall_recv(nth=1, delay=0.4))
        server.send(b"data")
        assert _readable(client, 5.0)
        view = memoryview(bytearray(4))
        t0 = time.monotonic()
        assert client.recv_into_nb(view) is None  # the hold begins
        assert not _readable(client, 0.2)
        assert _readable(client, 5.0)
        assert time.monotonic() - t0 >= 0.4
        assert client.recv_into_nb(view) == 4 and view.tobytes() == b"data"

    def test_a_hold_takes_no_second_number(self, tcp_pair):
        plan = FaultPlan().stall_recv(nth=1, delay=0.1).reset_on_recv(nth=2)
        client, server = tcp_pair(plan)
        server.send(b"data")
        assert _readable(client, 5.0)
        view = memoryview(bytearray(4))
        while client.recv_into_nb(view) is None:  # held, then read
            time.sleep(0.01)
        server.send(b"more")
        assert _readable(client, 5.0)
        with pytest.raises(TransportError, match="reset on recv #2"):
            client.recv_into_nb(view)
        assert [(e.nth, e.action) for e in plan.events] == \
            [(1, "stall"), (2, "reset")]

    def test_close_during_a_hold_wakes_a_poller(self, tcp_pair):
        client, server = tcp_pair(FaultPlan().stall_recv(nth=1, delay=30.0))
        server.send(b"data")
        assert _readable(client, 5.0)
        view = memoryview(bytearray(4))
        assert client.recv_into_nb(view) is None
        woke = []
        poller = threading.Thread(
            target=lambda: woke.append(_readable(client, 5.0)))
        poller.start()
        time.sleep(0.05)  # the poller is asleep in poll
        t0 = time.monotonic()
        client.close()
        poller.join(5.0)
        assert woke == [True] and time.monotonic() - t0 < 2.0
        with pytest.raises(TransportError):
            client.recv_into_nb(view)

    def test_the_end_of_a_hold_runs_the_pump_again(self):
        client, server, listener = make_pair(
            FaultPlan().stall_recv(nth=1, delay=0.05))
        got, done = [], threading.Event()

        def pump():
            view = memoryview(bytearray(4))
            if client.recv_into_nb(view):
                got.append(view.tobytes())
                done.set()
        try:
            client.set_data_handler(pump)
            server.send(b"data")
            assert got == []  # held
            assert done.wait(5.0) and got == [b"data"]
        finally:
            listener.close()


class TestAddressing:
    def test_rule_scoped_to_connection(self):
        """A conn=2 rule leaves connection 1 untouched."""
        plan = FaultPlan().reset_on_send(nth=1, conn=2)
        transport = FaultyTransport(LoopbackTransport(), plan)
        accepted = []
        listener = transport.listen("scoped-host", 0, accepted.append)
        try:
            c1 = transport.connect(listener.endpoint)
            c2 = transport.connect(listener.endpoint)
            c1.send(b"fine")
            assert accepted[0].recv_exact(4).tobytes() == b"fine"
            with pytest.raises(TransportError):
                c2.send(b"doomed")
        finally:
            listener.close()

    def test_events_record_coordinates(self):
        plan = FaultPlan().reset_on_send(nth=2)
        client, server, listener = make_pair(plan)
        try:
            client.send(b"a")
            with pytest.raises(TransportError):
                client.send(b"b")
            (ev,) = plan.events
            assert (ev.conn, ev.op, ev.nth, ev.action) == \
                (1, "send", 2, "reset")
        finally:
            listener.close()


class TestDeterminism:
    @staticmethod
    def _drive(seed):
        """20 sends through a probability-gated zero-delay stall; the
        event trace is the plan's observable fault pattern."""
        plan = FaultPlan(seed=seed)
        plan.add(FaultRule(op="send", action="stall", probability=0.5,
                           once=False, delay=0.0))
        client, server, listener = make_pair(plan)
        try:
            for _ in range(20):
                client.send(b"x")
        finally:
            listener.close()
        return [e.nth for e in plan.events]

    def test_same_seed_same_faults(self):
        assert self._drive(42) == self._drive(42)

    def test_different_seed_different_faults(self):
        assert self._drive(42) != self._drive(43)


class TestRegistryHelper:
    def test_wraps_builtin_transports(self):
        plan = FaultPlan().refuse_connect(nth=1)
        reg = faulty_registry(plan)
        assert "loop" in reg and "tcp" in reg
        loop = reg.get("loop")
        assert isinstance(loop, FaultyTransport)
        assert loop.plan is plan


class TestConnectTimeout:
    """Injected dial stalls against the caller's connect deadline."""

    def test_stall_exceeding_timeout_raises(self):
        from repro.transport import TransportTimeout
        plan = FaultPlan().stall_connect(nth=1, delay=30.0)
        transport = FaultyTransport(LoopbackTransport(), plan)
        listener = transport.listen("stall-host", 0, lambda s: None)
        try:
            t0 = time.monotonic()
            with pytest.raises(TransportTimeout, match="connect timeout"):
                transport.connect(listener.endpoint, timeout=0.05)
            # slept only the deadline, not the full injected stall
            assert time.monotonic() - t0 < 5.0
            assert plan.events[-1].action == "stall"
            assert "timed out" in plan.events[-1].detail
        finally:
            listener.close()

    def test_stall_within_timeout_connects(self):
        plan = FaultPlan().stall_connect(nth=1, delay=0.01)
        transport = FaultyTransport(LoopbackTransport(), plan)
        accepted = []
        listener = transport.listen("slow-host", 0, accepted.append)
        try:
            stream = transport.connect(listener.endpoint, timeout=5.0)
            stream.send(b"ok")
            assert accepted[0].recv_exact(2).tobytes() == b"ok"
        finally:
            listener.close()

    def test_orb_maps_dial_timeout_to_transient(self):
        """The proxy turns a dial-deadline expiry into TRANSIENT with
        COMPLETED_NO: the request was never sent, safe to retry."""
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig
        from repro.orb.exceptions import TRANSIENT, CompletionStatus
        from repro.transport import faulty_registry

        api = compile_idl(
            "interface Pingable { unsigned long ping(in unsigned long x); };",
            module_name="_test_dialto_idl")

        class Impl(api.Pingable_skel):
            def ping(self, x):
                return x

        plan = FaultPlan().stall_connect(nth=1, delay=30.0)
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False,
                               connect_timeout=0.05),
                     transports=faulty_registry(plan))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            with pytest.raises(TRANSIENT, match="connect timed out") as ei:
                stub.ping(1)
            assert ei.value.completed is CompletionStatus.COMPLETED_NO
        finally:
            client.shutdown()
            server.shutdown()
