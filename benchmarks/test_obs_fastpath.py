"""OBS-FAST — what always-on observation costs a null call.

The telemetry plane is on by default (flight recorder + monitor), so
the paper's zero-copy numbers must not be taxed by the observability
that watches them.  The gate on that cost is a count, not a timing:
``tests/orb/test_call_budget.py`` holds the Python-level calls the
recorder adds to one ``ping`` and that an ORB without one makes no
call into ``repro/obs/`` at all.  What stays here is that such an ORB
has no span producer, and the wall-clock ratio of a null call with the recorder
on and off: reported, not asserted, because two ~150 us loops timed in
one shared process spread wider than the few percent they differ by.
"""

import os
import time

from repro.idl import compile_idl
from repro.orb import ORB, ORBConfig
from repro.orb.reactor import reset_reactor

from conftest import report

CALLS = 2000
ROUNDS = 6


def test_orb_without_recorder_has_no_span_producer():
    """flight_recorder=False and no enable_tracing leaves
    orb.span_producer None, so every connection's sink is None and
    every stage site on the invocation path is skipped outright."""
    orb = ORB(ORBConfig(scheme="loop", flight_recorder=False,
                        monitor=False))
    try:
        assert orb.flightrec is None
        assert orb.span_producer is None
    finally:
        orb.shutdown()


def _null_call_us():
    """Best-of-rounds wall clock of one ``ping`` over tcp, in us, with
    the recorder on and off: both pairs live side by side and the
    rounds alternate, so drift of the host hits both alike."""
    api = compile_idl("interface Fast { void ping(in unsigned long x); };",
                      module_name="_obs_fastpath_idl")

    class Impl(api.Fast_skel):
        def ping(self, x):
            return None

    orbs, stubs, best = [], {}, {True: float("inf"), False: float("inf")}
    # one CPU, like benchmarks/e2e's null_sync_tcp: path length is time
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") \
        else None
    try:
        if affinity:
            os.sched_setaffinity(0, {min(affinity)})
        for recorder in (True, False):
            config = ORBConfig(scheme="tcp", flight_recorder=recorder)
            server, client = ORB(config), ORB(config)
            orbs += [client, server]
            stubs[recorder] = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            for _ in range(200):
                stubs[recorder].ping(1)
        for _ in range(ROUNDS):
            for recorder, stub in stubs.items():
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    stub.ping(1)
                best[recorder] = min(
                    best[recorder],
                    (time.perf_counter() - t0) / CALLS * 1e6)
        return best[True], best[False]
    finally:
        for orb in orbs:
            orb.shutdown()
        reset_reactor()
        if affinity:
            os.sched_setaffinity(0, affinity)


def test_recorder_on_off_ratio_is_reported(once):
    on_us, off_us = once(_null_call_us)
    report("null call over tcp, flight recorder on vs off",
           [f"{'recorder on':<14} {on_us:8.1f} us",
            f"{'recorder off':<14} {off_us:8.1f} us",
            f"{'on / off':<14} {on_us / off_us:8.3f}  (target < 1.05, "
            f"gated as a call count in tests/orb/test_call_budget.py)"])
    assert on_us > 0 and off_us > 0
