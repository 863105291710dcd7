"""The one span stack is left empty, whatever way a call ends.

A call's record lives on one per-thread stack of its ORB's span
producer (DESIGN.md §8): the proxy opens and finishes one span per
attempt, the dispatcher one per request.  A span left open would adopt
every later call of its thread as a child, so after each way a call can
end — reply, retried ``COMM_FAILURE``, deadline, servant exception,
nested call, cancelled await — every thread's stack must be empty and
the recorder must have counted exactly the attempts that were roots.
"""

import asyncio
import threading
import time

import pytest

from repro.idl import compile_idl
from repro.obs.flightrec import _OpenSpans
from repro.orb import ORB, InvocationPolicy, ORBConfig, async_api
from repro.orb.exceptions import TIMEOUT, UNKNOWN
from repro.transport import FaultPlan, faulty_registry


@pytest.fixture(scope="module")
def api():
    return compile_idl("""
        exception StackOops { long code; };
        interface Stacked {
            unsigned long ok(in unsigned long x);
            void nap(in unsigned long ms);
            void oops() raises (StackOops);
            void bug();
            unsigned long relay(in unsigned long x);
        };
    """, module_name="_span_stack_idl")


@pytest.fixture
def stacks(monkeypatch):
    """Every per-thread stack any recorder of this test hands out."""
    seen = []
    init = _OpenSpans.__init__

    def tracked(self):
        init(self)
        seen.append(self.stack)

    monkeypatch.setattr(_OpenSpans, "__init__", tracked)
    return seen


@pytest.fixture
def rig(api, stacks):
    """``make(scheme, **client_kw) -> (stub, client, server, servant)``;
    the servant's ``relay`` calls its ``backend`` when one is set."""
    orbs = []

    class Impl(api.Stacked_skel):
        backend = None

        def ok(self, x):
            return x + 1

        def nap(self, ms):
            time.sleep(ms / 1000.0)

        def oops(self):
            raise api.StackOops(code=3)

        def bug(self):
            raise RuntimeError("servant bug")

        def relay(self, x):
            return self.backend.ok(x)

    def make(scheme="tcp", **client_kw):
        server = ORB(ORBConfig(scheme=scheme))
        client = ORB(ORBConfig(scheme=scheme, collocated_calls=False),
                     **client_kw)
        orbs.extend([client, server])
        impl = Impl()
        stub = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        stub.ok(0)  # dial; every thread that will ever stamp exists
        _settled(stacks, (client, server), [1, 1])
        return stub, client, server, impl

    yield make
    for orb in orbs:
        orb.shutdown()


def _recorded(*orbs):
    return [orb.flightrec.recorded_total for orb in orbs]


def _settled(stacks, orbs, expected, timeout=5.0):
    """Server spans finish on worker threads after the reply left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _recorded(*orbs) == expected and not any(stacks):
            break
        time.sleep(0.005)
    assert _recorded(*orbs) == expected
    assert stacks and not any(stacks), [s for s in stacks if s]


def test_successful_call(rig, stacks):
    stub, client, server, _ = rig()
    before = _recorded(client, server)
    assert stub.ok(1) == 2
    _settled(stacks, (client, server), [n + 1 for n in before])


def test_retried_comm_failure_finishes_every_attempt(rig, stacks):
    plan = FaultPlan().reset_on_send(nth=2)  # nth=1 is the rig's warm-up
    stub, client, server, _ = rig(
        "loop", transports=faulty_registry(plan),
        policy=InvocationPolicy(max_retries=3, seed=7,
                                sleep=lambda s: None))
    before = _recorded(client, server)
    assert stub.ok(4) == 5
    assert client.connections_snapshot()[0]["retries"] == 1
    # two attempts, two roots; only the second reached the server
    _settled(stacks, (client, server), [before[0] + 2, before[1] + 1])
    first, second = client.flightrec.recent()[-2:]
    assert (first.status, second.status) == ("COMM_FAILURE", "NO_EXCEPTION")
    assert first.trace == second.trace and first.number != second.number


def test_deadline_timeout(rig, stacks):
    stub, client, server, _ = rig(policy=InvocationPolicy(timeout=0.1))
    before = _recorded(client, server)
    with pytest.raises(TIMEOUT):
        stub.nap(400)
    assert client.flightrec.recent()[-1].status == "TIMEOUT"
    # the server's span stays open until its servant wakes
    _settled(stacks, (client, server), [n + 1 for n in before])


def test_exception_out_of_a_servant(rig, api, stacks):
    stub, client, server, _ = rig()
    before = _recorded(client, server)
    with pytest.raises(api.StackOops):
        stub.oops()
    with pytest.raises(UNKNOWN):
        stub.bug()
    _settled(stacks, (client, server), [n + 2 for n in before])
    assert [s.status for s in client.flightrec.recent()[-2:]] == \
        ["StackOops", "UNKNOWN"]
    assert [s.status for s in server.flightrec.recent()[-2:]] == \
        ["USER_EXCEPTION", "SYSTEM_EXCEPTION"]


def test_nested_servant_to_backend_call(rig, stacks):
    backend_stub, _, backend, _ = rig()
    stub, client, middle, impl = rig()
    # the servant calls out through ITS ORB, under its server span
    impl.backend = middle.string_to_object(
        backend.object_to_string(backend_stub))
    impl.backend.ok(0)
    _settled(stacks, (backend,), [2])
    orbs = (client, middle, backend)
    before = _recorded(*orbs)
    assert stub.relay(5) == 6
    # the middle ORB's nested client span travels with its server root:
    # one root there, not two
    _settled(stacks, orbs, [n + 1 for n in before])
    assert middle.flightrec.recent()[-1].kind == "server"


def test_cancelled_await_with_its_send_still_on_the_executor(
        rig, stacks, monkeypatch):
    """The async driver opens no span (yet): a cancelled await whose
    send outlives it on an executor thread must leave nothing open
    there either, and the request that did leave is still a finished
    span on the server."""
    from repro.orb import GIOPConn

    stub, client, server, _ = rig()
    # over a live connection the awaiting driver writes in place, with
    # no await to cancel at: drop it, the redial goes to the executor
    next(iter(client._proxies.values())).close()
    in_send, cancelled = threading.Event(), threading.Event()
    orig_send = GIOPConn.send_message

    def held_send(conn, *a, **kw):
        if conn.orb is client:
            in_send.set()
            assert cancelled.wait(10.0)
        return orig_send(conn, *a, **kw)

    monkeypatch.setattr(GIOPConn, "send_message", held_send)
    before = _recorded(client, server)

    async def go():
        task = asyncio.create_task(async_api(stub).ok(7))
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, in_send.wait, 10)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        cancelled.set()

    try:
        asyncio.run(go())
    finally:
        cancelled.set()
    _settled(stacks, (client, server), [before[0], before[1] + 1])
