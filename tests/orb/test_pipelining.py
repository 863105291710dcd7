"""Request pipelining: concurrent in-flight calls on one connection.

The tentpole scenarios of the multiplexing layer:

* N threads invoking through one proxy share one connection, and their
  upcalls genuinely overlap on the server's worker pool;
* a slow request's deadline cancels only its own future — independent
  calls on the same connection proceed, and the late reply is dropped
  as stale without killing the connection;
* a transport stall delays replies, but every caller still fails (or
  completes) by its *own* deadline instead of queueing behind the
  stalled call;
* a connection reset fails every in-flight call with the right CORBA
  exception, and the retry budget accounting stays exact across the
  fan-out;
* interleaved traced calls still produce correct span trees and exact
  per-span byte attribution.
"""

import dataclasses
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.obs import SpanCollector, build_span_tree, dump_spans
from repro.obs.cli import main as metrics_cli
from repro.orb import (COMM_FAILURE, ORB, TIMEOUT, CompletionStatus,
                       InvocationPolicy, ORBConfig)
from repro.orb.server import RequestWorkerPool
from repro.transport import FaultPlan, faulty_registry

PIPE_IDL = """
interface Pipe {
    double work(in double seconds);
    unsigned long poke(in unsigned long x);
};
"""

_pipe_api = None


def _pipe():
    global _pipe_api
    if _pipe_api is None:
        _pipe_api = compile_idl(PIPE_IDL, module_name="_pipelining_idl")
    return _pipe_api


def make_pipe_impl():
    api = _pipe()

    class PipeImpl(api.Pipe_skel):
        def __init__(self):
            self._lock = threading.Lock()
            self.active = 0
            self.max_active = 0
            self.pokes = 0

        def work(self, seconds):
            with self._lock:
                self.active += 1
                self.max_active = max(self.max_active, self.active)
            time.sleep(seconds)
            with self._lock:
                self.active -= 1
            return seconds

        def poke(self, x):
            with self._lock:
                self.pokes += 1
            return (x + 1) & 0xFFFFFFFF

    return PipeImpl()


@pytest.fixture
def pipe_pair_factory():
    """makes (stub, impl, client, server); optional FaultPlan/policy."""
    orbs = []

    def make(scheme="loop", plan=None, policy=None, workers=4):
        server = ORB(ORBConfig(scheme=scheme, server_workers=workers))
        if plan is not None:
            client = ORB(ORBConfig(scheme=scheme, collocated_calls=False),
                         transports=faulty_registry(plan), policy=policy)
        else:
            client = ORB(ORBConfig(scheme=scheme, collocated_calls=False),
                         policy=policy)
        orbs.extend([client, server])
        impl = make_pipe_impl()
        ref = server.activate(impl)
        stub = client.string_to_object(server.object_to_string(ref))
        return stub, impl, client, server

    yield make
    for orb in orbs:
        orb.shutdown()


def _proxy(client):
    return next(iter(client._proxies.values()))


class TestPipelining:
    @pytest.mark.parametrize("scheme", ["loop", "tcp"])
    def test_concurrent_calls_share_one_connection(self, pipe_pair_factory,
                                                   scheme):
        stub, impl, client, _ = pipe_pair_factory(scheme, workers=8)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: stub.work(0.15), range(8)))
        elapsed = time.perf_counter() - t0
        assert results == [0.15] * 8
        proxy = _proxy(client)
        # one connection served all eight callers...
        assert proxy.stats.reconnects == 0
        assert proxy.calls == 8
        # ...and the upcalls overlapped rather than queueing: serial
        # execution would need 8 * 0.15 = 1.2s
        assert impl.max_active >= 2
        assert elapsed < 0.9

    def test_deadline_cancels_only_its_own_call(self, pipe_pair_factory):
        """A slow request times out on its own; an independent call on
        the same connection completes while it is still in flight, and
        the eventual late reply is dropped without hurting anyone."""
        stub, impl, client, _ = pipe_pair_factory("loop")
        slow_pol = InvocationPolicy(timeout=0.2)
        outcome = {}

        def slow():
            t0 = time.perf_counter()
            with pytest.raises(TIMEOUT) as ei:
                client.invoke(stub.ior, stub._signature("work"), [0.8],
                              policy=slow_pol)
            outcome["elapsed"] = time.perf_counter() - t0
            outcome["exc"] = ei.value

        slow_thread = threading.Thread(target=slow)
        slow_thread.start()
        time.sleep(0.05)  # the slow request is now in flight
        # independent calls complete well within the slow call's window
        for i in range(3):
            assert stub.poke(i) == i + 1
        slow_thread.join(timeout=5)
        assert outcome["exc"].completed is CompletionStatus.COMPLETED_MAYBE
        assert outcome["elapsed"] < 0.6  # its own deadline, not 0.8s
        proxy = _proxy(client)
        assert proxy.stats.timeouts == 1
        # the connection survived the timeout AND the stale late reply
        time.sleep(0.9)
        assert stub.poke(41) == 42
        assert proxy.stats.reconnects == 0

    def test_transport_stall_respects_each_callers_deadline(
            self, pipe_pair_factory):
        """The demux reader stalls on the wire; every waiter gives up at
        its *own* deadline rather than riding out the stall."""
        plan = FaultPlan().stall_recv(nth=1, delay=1.2)
        pol = InvocationPolicy(timeout=0.3)
        stub, _, client, _ = pipe_pair_factory("tcp", plan=plan, policy=pol)
        elapsed = {}

        def call(i):
            t0 = time.perf_counter()
            with pytest.raises(TIMEOUT):
                stub.poke(i)
            elapsed[i] = time.perf_counter() - t0

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # both timed out at ~0.3s; neither waited for the 1.2s stall
        assert all(v < 1.0 for v in elapsed.values()), elapsed
        assert _proxy(client).stats.timeouts == 2
        # once the stall clears, the same connection serves new calls
        time.sleep(1.2)
        assert stub.poke(7) == 8
        assert _proxy(client).stats.reconnects == 0

    def test_reset_fails_all_inflight_and_retry_budget_holds(
            self, pipe_pair_factory):
        """One wire reset, two requests in flight: both futures fail
        with a retryable verdict, both (idempotent) calls re-issue on a
        fresh connection, and the shared stats count every step once."""
        plan = FaultPlan().reset_on_recv(nth=1)
        sleeps = []
        pol = InvocationPolicy(max_retries=2, seed=7, sleep=sleeps.append)
        stub, impl, client, _ = pipe_pair_factory("loop", plan=plan,
                                                  policy=pol)
        sig = dataclasses.replace(stub._signature("work"), idempotent=True)
        results = []

        def call():
            results.append(client.invoke(stub.ior, sig, [0.15], policy=pol))

        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == [0.15, 0.15]
        assert [e.action for e in plan.events] == ["reset"]
        stats = _proxy(client).stats
        # each of the two failed in-flight calls retried exactly once,
        # and the dead connection was replaced exactly once
        assert stats.retries == 2
        assert stats.reconnects == 1
        assert stats.timeouts == 0

    def test_nonidempotent_inflight_calls_fail_completed_maybe(
            self, pipe_pair_factory):
        """Without idempotence the fan-out failure must surface, each
        caller getting its own COMPLETED_MAYBE COMM_FAILURE."""
        plan = FaultPlan().reset_on_recv(nth=1)
        pol = InvocationPolicy(max_retries=2, seed=7, sleep=lambda s: None)
        stub, _, client, _ = pipe_pair_factory("loop", plan=plan,
                                               policy=pol)
        failures = []

        def call():
            with pytest.raises(COMM_FAILURE) as ei:
                stub.work(0.15)
            failures.append(ei.value)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(failures) == 2
        assert all(f.completed is CompletionStatus.COMPLETED_MAYBE
                   for f in failures)
        # distinct exception instances per caller, no cross-threading
        assert failures[0] is not failures[1]
        assert _proxy(client).stats.retries == 0


class TestExactCounters:
    """``proxy.calls`` and ``dispatcher.requests_dispatched`` are
    shared by every pipelining caller and every worker; a bare ``+= 1``
    on them loses increments under preemption."""

    THREADS = 8
    CALLS = 500

    def test_counters_are_exact_under_contention(self, pipe_pair_factory):
        stub, impl, client, server = pipe_pair_factory("tcp")
        stub.poke(0)  # dial before the race starts
        proxy = _proxy(client)
        dispatcher = server._server.dispatcher
        before = (proxy.calls, dispatcher.requests_dispatched, impl.pokes)
        failures = []

        def hammer():
            try:
                for i in range(self.CALLS):
                    assert stub.poke(i) == i + 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt inside every += there is
        try:
            threads = [threading.Thread(target=hammer)
                       for _ in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures
        total = self.THREADS * self.CALLS
        assert impl.pokes - before[2] == total
        assert proxy.calls - before[0] == total
        assert dispatcher.requests_dispatched - before[1] == total
        assert dispatcher.errors == 0
        assert proxy.stats.messages_sent == proxy.calls


class TestInterleavedTracing:
    def test_two_clients_interleaved_spans_build_correct_trees(
            self, tmp_path):
        """Two traced clients pipeline deposit-carrying calls at one
        traced server; every span lands on the right tree, the stage
        order inside each client span survives the interleaving, and
        per-span byte splits still reconcile exactly with each
        connection's ConnStats."""
        collector = SpanCollector()

        def traced(seed, server=True):
            cfg = ORBConfig(scheme="loop") if server else \
                ORBConfig(scheme="loop", collocated_calls=False)
            orb = ORB(cfg)
            orb.enable_tracing(distributed=True, collector=collector,
                               trace_seed=seed)
            return orb

        server = traced(1)
        clients = [traced(seed, server=False) for seed in (2, 3)]
        try:
            impl = make_pipe_impl()
            ref = server.activate(impl)
            ior = server.object_to_string(ref)
            stubs = [c.string_to_object(ior) for c in clients]

            def drive(stub):
                with ThreadPoolExecutor(max_workers=3) as pool:
                    list(pool.map(lambda s: stub.work(s),
                                  [0.05, 0.08, 0.03]))

            with ThreadPoolExecutor(max_workers=2) as outer:
                list(outer.map(drive, stubs))

            deadline = time.monotonic() + 5
            while len(collector) < 12 and time.monotonic() < deadline:
                time.sleep(0.005)
            spans = collector.spans
            assert len(spans) == 12  # 6 calls x (client + server)

            forest = build_span_tree(spans)
            assert len(forest) == 6  # every call is its own trace
            for roots in forest.values():
                (root,) = roots
                assert root.span.kind == "client"
                (child,) = root.children
                assert child.span.kind == "server"
                assert child.span.request_id == root.span.request_id
                # interleaving must not scramble the per-span stages
                assert [e.stage for e in root.span.stages] == \
                    ["marshal", "control-send", "deposit-send",
                     "server-wait", "deposit-recv", "demarshal"]

            # per-client reconciliation: the spans of each client sum
            # to exactly that client's connection counters
            for client in clients:
                proxy = next(iter(client._proxies.values()))
                node = f"orb{client.orb_id}"
                cli_spans = [s for s in spans
                             if s.kind == "client" and s.node == node]
                assert len(cli_spans) == 3
                assert sum(s.control_bytes_sent for s in cli_spans) == \
                    proxy.stats.bytes_sent
                assert sum(s.control_bytes_recv for s in cli_spans) == \
                    proxy.stats.bytes_received

            # the CLI agrees the interleaved dump is a valid forest
            dump_path = str(tmp_path / "interleaved.json")
            dump_spans(collector, dump_path)
            assert metrics_cli(["check", dump_path]) == 0
            assert metrics_cli(["tree", dump_path]) == 0
        finally:
            for orb in clients:
                orb.shutdown()
            server.shutdown()

    def test_deposit_bytes_reconcile_under_pipelining(self, test_api):
        """Zero-copy deposit accounting stays exact when the deposits
        of several in-flight calls interleave on one connection."""
        collector = SpanCollector()
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        server.enable_tracing(distributed=True, collector=collector,
                              trace_seed=5)
        client.enable_tracing(distributed=True, collector=collector,
                              trace_seed=6)
        try:
            # the session's compiled module: compiling TEST_IDL again
            # under its name would rebind the registered Test_Failed
            # class for every later test in the process
            from tests.conftest import make_store_impl
            impl = make_store_impl(test_api)
            ref = server.activate(impl)
            stub = client.string_to_object(server.object_to_string(ref))

            sizes = [DEPOSIT_MIN_SIZE * k for k in (2, 3, 4, 1)]
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(
                    lambda n: stub.put(ZCOctetSequence.from_data(bytes(n))),
                    sizes))

            proxy = next(iter(client._proxies.values()))
            cli_spans = [s for s in collector.spans if s.kind == "client"]
            assert len(cli_spans) == 4
            assert sum(s.deposit_bytes_sent for s in cli_spans) == \
                proxy.stats.deposit_bytes_sent == sum(sizes)
            assert sum(s.control_bytes_sent for s in cli_spans) == \
                proxy.stats.bytes_sent
            assert impl._get_total() == sum(sizes)
        finally:
            client.shutdown()
            server.shutdown()


class TestServerPoolObservability:
    def test_inflight_gauge_and_queue_histogram(self, pipe_pair_factory):
        """The worker pool reports its gauge/histogram through the
        server ORB's metrics registry once tracing is enabled."""
        stub, impl, client, server = pipe_pair_factory("loop", workers=4)
        server.enable_tracing()
        reg = server.metrics
        assert reg is not None
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda _: stub.work(0.1), range(4)))
        gauge = reg.gauge("server_inflight_requests")
        assert gauge.value == 0  # all drained
        hist = reg.histogram(
            "server_queue_depth",
            buckets=server._server.workers.QUEUE_BUCKETS)
        assert hist.count == 4  # one sample per submitted request


class TestWorkerPoolHandOff:
    """The pool's queue: bounded, blocking, idle when idle."""

    class _Conn:
        closed = False

        def close(self):
            self.closed = True

    def _pool(self, handler, workers=1, depth=2):
        return RequestWorkerPool(workers, handler, queue_depth=depth)

    def test_bound_and_backpressure(self):
        gate = threading.Event()
        done = []

        def handler(conn, rm):
            gate.wait(5)
            done.append(rm)

        pool = self._pool(handler, workers=1, depth=2)
        try:
            conn = self._Conn()
            pool.submit_nowait(conn, 0)
            # the worker picks request 0 up and blocks in the handler
            assert _wait_until(lambda: pool.queue_size == 0)
            pool.submit_nowait(conn, 1)
            pool.submit_nowait(conn, 2)
            assert pool.queue_size == 2 and pool.inflight == 3
            with pytest.raises(queue.Full):
                pool.submit_nowait(conn, 3)
            assert pool.inflight == 3  # the refused request left no trace
            blocked = threading.Thread(target=pool.submit, args=(conn, 4))
            blocked.start()
            blocked.join(0.2)
            assert blocked.is_alive()  # submit blocks on a full queue
            gate.set()
            blocked.join(5)
            assert not blocked.is_alive()
            assert pool.drain(5)
            assert done == [0, 1, 2, 4] and pool.inflight == 0
        finally:
            gate.set()
            pool.shutdown()

    def test_drain_wakes_on_the_last_completion_not_on_a_poll(self):
        release = threading.Event()
        pool = self._pool(lambda conn, rm: release.wait(5), workers=2)
        try:
            pool.submit(self._Conn(), "slow")
            assert not pool.drain(0.05)  # bounded: still executing
            threading.Timer(0.05, release.set).start()
            t0 = time.monotonic()
            assert pool.drain(5)
            assert time.monotonic() - t0 < 1.0
            assert pool.drain(0)  # idle pool: immediate
        finally:
            release.set()
            pool.shutdown()

    def test_shutdown_stops_every_worker_after_the_queued_work(self):
        seen = []
        pool = self._pool(lambda conn, rm: seen.append(rm), workers=3,
                          depth=8)
        for i in range(8):
            pool.submit(self._Conn(), i)
        pool.shutdown(timeout=5)
        assert sorted(seen) == list(range(8))
        assert not any(t.is_alive() for t in pool._threads)

    def test_idle_workers_execute_nothing(self):
        """An idle pool blocks in the queue: no timed wake-ups (the
        old loop polled ten times a second per worker)."""
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        threading.setprofile(profile)
        try:
            pool = self._pool(lambda conn, rm: None, workers=4)
        finally:
            threading.setprofile(None)
        try:
            pool.submit(self._Conn(), "warm")
            assert pool.drain(5)
            time.sleep(0.05)  # let the worker get back into get()
            calls.clear()
            time.sleep(0.35)
            assert calls == []
        finally:
            pool.shutdown()

    def test_handler_failure_closes_the_connection_not_the_worker(self):
        def handler(conn, rm):
            if rm == "boom":
                raise RuntimeError("servant bug below the dispatcher")

        pool = self._pool(handler, workers=1)
        try:
            bad, good = self._Conn(), self._Conn()
            pool.submit(bad, "boom")
            pool.submit(good, "fine")
            assert pool.drain(5)
            assert bad.closed and not good.closed
        finally:
            pool.shutdown()

    def test_rejects_a_bound_that_would_block_forever(self):
        with pytest.raises(ValueError):
            self._pool(lambda conn, rm: None, depth=0)


def _wait_until(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return pred()
