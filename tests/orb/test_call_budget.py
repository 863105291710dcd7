"""The interpreter path length of one null call, held as a budget.

On one CPU the round trip of ``void ping(in unsigned long)`` *is* the
number of Python-level function calls it executes (DESIGN.md, "The
call path and its budget"), so that number is what this test pins:
two in-process ORBs over ``tcp``, default configuration, every thread
profiled, counts taken after warm-up.

The ceilings sit 10 % above what the fast-path change reached.  The
commit before it needed 194 calls on the calling thread and 533 in
all, and built 12 flight-recorder events per call; a change that
drifts back towards that fails here before it shows in a benchmark.
The count is deterministic up to the reactor's 50 ms heartbeat, which
adds a fraction of a call per ping to the total.
"""

import collections
import sys
import threading

from repro.idl import compile_idl
from repro.obs.flightrec import FlightRecorder
from repro.orb import ORB, ORBConfig
from repro.orb.reactor import reset_reactor

#: measured: 85 on the calling thread, 254 over all threads, 6 emits
CALLER_CEILING = 93
TOTAL_CEILING = 279
EMIT_CEILING = 6

CALLS = 200


def test_null_call_stays_inside_its_budget():
    api = compile_idl("interface Budget { void ping(in unsigned long x); };",
                      module_name="_call_budget_idl")

    class Impl(api.Budget_skel):
        def ping(self, x):
            return None

    calls = collections.Counter()  # thread ident -> Python-level calls
    emits = [0]
    emit_code = FlightRecorder.emit.__code__
    counting = [False]

    def profile(frame, event, arg):
        if event == "call" and counting[0]:
            calls[threading.get_ident()] += 1
            if frame.f_code is emit_code:
                emits[0] += 1

    # threads take the profile hook when they start: the reactor shard
    # (process-wide, possibly alive from an earlier test) is restarted
    # so that it, the workers and the accept thread all carry it
    reset_reactor()
    threading.setprofile(profile)
    server = client = None
    try:
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"))
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        for _ in range(30):  # dial, caches, lazily imported modules
            stub.ping(1)
        sys.setprofile(profile)
        counting[0] = True
        for _ in range(CALLS):
            stub.ping(1)
        counting[0] = False
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        for orb in (client, server):
            if orb is not None:
                orb.shutdown()
        reset_reactor()  # the next test gets an unprofiled shard

    caller = calls[threading.get_ident()] / CALLS
    total = sum(calls.values()) / CALLS
    assert caller <= CALLER_CEILING, f"calling thread: {caller:.1f} calls"
    assert total <= TOTAL_CEILING, f"all threads: {total:.1f} calls"
    assert emits[0] / CALLS <= EMIT_CEILING, \
        f"{emits[0] / CALLS:.1f} FlightRecorder.emit calls per ping"
    # the count is of a working call path, not of an early return
    assert caller > 20 and len(calls) >= 3
