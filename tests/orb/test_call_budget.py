"""The interpreter path length of one null call, held as a budget.

On one CPU the round trip of ``void ping(in unsigned long)`` *is* the
number of Python-level function calls it executes (DESIGN.md, "The
call path and its budget"), so that number is what this test pins:
two in-process ORBs over ``tcp``, every thread profiled, counts taken
after warm-up, once in the default configuration and once with
``flight_recorder=False``.  The server ORB runs off the reactor (a
reader thread and the worker pool), so its threads can be told from
the client's.

Who reads: the client's connection is never awaited on, so the calling
thread reads its own reply (DESIGN.md §10, the waiter) and the client
half of a ping runs on that one thread, which the test pins; no loop
runs in the client at all.  The ceilings sit 10 % above what that
change reached: it moved calls onto the calling thread (63 → 92, the
read and routing of the reply, and the idle check before the write)
and took more off the others (187 → 166 in all), which is the thread
hand-off it removed.  The flat-record change before it had brought 86
calls on the calling thread and 254 in all, 52 of them for the
recorder, to 63 and 187; a change that drifts back fails here before
it shows in a benchmark.

The second half is the gate on always-on observation (ROADMAP item 5):
what the recorder adds to a null call, as path length, and that an ORB
without one runs no observation code at all.

The third configuration is the traced path (``enable_tracing(
distributed=True)`` on both ORBs): with one span model every reader
works off the record the default path already keeps, so what tracing
adds is the readers, and a stage is one ``stamp`` whoever listens.
Before that change a traced ping made 418 calls inside ``repro/obs/``
and each stage event fanned out into 6.6 of them.

The deposit's price is held the same way: ``send_zc`` of a payload one
byte under ``DEPOSIT_MIN_SIZE`` and of one twice the constant, on tcp
and on shm, all threads.  So is a ping on shm, whose client half is
the calling thread's as on tcp: its caller reads the reply, and the
server's reader thread reads the request, each with a ``poll`` and
``GIOPConn._read_nb``.

The fourth configuration is the awaited call: eight callers awaiting ``ping`` on the
reactor's loop, which reads the connection from the first awaited call
on.  Over a live connection the awaiting driver marshals and writes
where it stands, so the client side of a ping is one thread.
When every send hopped to the loop's executor it was seven threads and
215 calls, about 100 of them executor and future plumbing.
"""

import asyncio
import collections
import os
import sys
import threading

import pytest

import repro.obs
from repro.core import ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.obs.events import EventSink
from repro.obs.flightrec import FlightRecorder
from repro.orb import ORB, ORBConfig, async_api, run_sync
from repro.orb.reactor import reset_reactor
from repro.transport.shm import shm_available

#: measured: 89 on the calling thread, which reads its own reply, 162
#: over all threads (92 and 165 while the idle check before a write led
#: a read; 166 while the server's reader thread blocked in ``recv``
#: instead of ``poll``), 0 emits (63 and 187 while a reactor thread read
#: it)
CALLER_CEILING = 101
TOTAL_CEILING = 182
EMIT_CEILING = 0
#: measured on shm: 93 on the calling thread, which reads its own reply
#: as on tcp, and 170 over all threads (67 and 167 while a reader thread
#: read the client's connection; 169 while reader threads blocked in
#: ``recv``)
SHM_CALLER_CEILING = 101
SHM_TOTAL_CEILING = 184
#: measured: 20.0 calls per ping more than with ``flight_recorder=False``
RECORDER_CEILING = 25
#: measured, traced: 306 calls inside ``repro/obs/`` per ping (about half
#: of them metrics-registry look-ups), 1.0 per stage event
TRACED_OBS_CEILING = 340
STAGE_FANOUT_CEILING = 2
#: measured, awaited with 8 in flight: mostly 111-119 calls per ping on
#: the client, now and then up to 125 (how many replies one readiness
#: event finds moves it; the same before callers read), all on the
#: reactor's thread
ASYNC_CLIENT_CEILING = 125
ASYNC_CLIENT_THREADS = 1
ASYNC_WINDOW = 8

#: measured, all threads, per ``send_zc``: one byte under
#: ``DEPOSIT_MIN_SIZE`` 214 on tcp and 227 on shm (the payload rides the
#: control message), at twice the constant 255 and 308 (a deposit; on
#: shm with its arena staging, and its record read by the parse).  While
#: a reader thread read the shm client's connection, and the idle check
#: led a read, it was 217 / 224 and 258 / 305; while reader threads
#: blocked in ``recv`` 218 / 226 and 260 / 309; before the size rule and
#: the one gather write 279 / 324 at every size; before tcp callers read
#: their own replies 233 / 278 on tcp
DEPOSIT_CEILINGS = {("tcp", False): 256, ("shm", False): 247,
                    ("tcp", True): 305, ("shm", True): 341}

CALLS = 200

_OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


BUDGET_IDL = """interface Budget {
    void ping(in unsigned long x);
    unsigned long send_zc(in sequence<zc_octet> data);
};"""


def _count_null_call(flight_recorder: bool, traced: bool = False,
                     scheme: str = "tcp", payload=None):
    """``(calling thread, all threads, FlightRecorder.emit, inside
    repro/obs/, threads seen, calls per stage event, client threads)``:
    Python-level calls per ping (with a ``payload``: per ``send_zc`` of
    it); the sixth is every call made from a sink's ``stamp`` down,
    itself included, per outermost ``stamp``.  The server ORB keeps off
    the reactor, so every thread that is not one of its own is the
    client's."""
    api = compile_idl(BUDGET_IDL, module_name="_call_budget_idl")

    class Impl(api.Budget_skel):
        def ping(self, x):
            return None

        def send_zc(self, data):
            return len(data)

    calls = collections.Counter()  # thread ident -> Python-level calls
    names = {}  # thread ident -> thread name
    emits = [0]
    in_obs = [0]
    emit_code = FlightRecorder.emit.__code__
    stamp_codes = {EventSink.stamp.__code__, FlightRecorder.stamp.__code__}
    stamping = collections.Counter()  # thread ident -> depth below a stamp
    stage_events, fanout = [0], [0]
    counting = [False]

    def profile(frame, event, arg):
        if not counting[0]:
            return
        ident = threading.get_ident()
        if event == "call":
            if ident not in calls:
                names[ident] = threading.current_thread().name
            calls[ident] += 1
            code = frame.f_code
            if code is emit_code:
                emits[0] += 1
            if code.co_filename.startswith(_OBS_DIR):
                in_obs[0] += 1
            if stamping[ident]:
                stamping[ident] += 1
                fanout[0] += 1
            elif code in stamp_codes:
                stamping[ident] = 1
                fanout[0] += 1
                stage_events[0] += 1
        elif event == "return" and stamping[ident]:
            stamping[ident] -= 1

    # threads take the profile hook when they start: the reactor shard
    # (process-wide, possibly alive from an earlier test) is restarted
    # so that whatever starts it, the workers and the accept thread all
    # carry it
    reset_reactor()
    threading.setprofile(profile)
    server = client = None
    try:
        server = ORB(ORBConfig(scheme=scheme, flight_recorder=flight_recorder,
                               reactor=False))
        client = ORB(ORBConfig(scheme=scheme,
                               flight_recorder=flight_recorder))
        if traced:
            server.enable_tracing(distributed=True)
            client.enable_tracing(distributed=True)
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        call, arg = (stub.ping, 1) if payload is None \
            else (stub.send_zc, payload)
        for _ in range(30):  # dial, caches, lazily imported modules
            call(arg)
        sys.setprofile(profile)
        counting[0] = True
        for _ in range(CALLS):
            call(arg)
        counting[0] = False
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        for orb in (client, server):
            if orb is not None:
                orb.shutdown()
        reset_reactor()  # the next test gets an unprofiled shard

    client_threads = [name for ident, name in names.items()
                      if not name.startswith(("iiop-", "tcp-"))]
    assert len(client_threads) < len(calls)  # the server's were told apart
    return (calls[threading.get_ident()] / CALLS,
            sum(calls.values()) / CALLS, emits[0] / CALLS,
            in_obs[0] / CALLS, len(calls),
            fanout[0] / max(stage_events[0], 1), client_threads)


def test_null_call_stays_inside_its_budget():
    caller, total, emits, in_obs, threads, _, client = _count_null_call(True)
    assert caller <= CALLER_CEILING, f"calling thread: {caller:.1f} calls"
    assert total <= TOTAL_CEILING, f"all threads: {total:.1f} calls"
    assert emits <= EMIT_CEILING, \
        f"{emits:.1f} FlightRecorder.emit calls per ping"
    # the client half of a sync tcp ping is the calling thread's: it
    # reads its own reply, and nothing else of the client runs
    assert client == [threading.current_thread().name], client
    # the count is of a working call path, not of an early return, and
    # of a recorder that is really being driven
    assert caller > 20 and threads >= 3 and in_obs >= 2

    _, bare, _, bare_in_obs, _, _, _ = _count_null_call(False)
    assert total - bare <= RECORDER_CEILING, \
        f"the recorder adds {total - bare:.1f} calls per ping"
    assert bare_in_obs == 0, \
        f"{bare_in_obs:.1f} calls into repro/obs/ without a recorder"


@pytest.mark.skipif(not shm_available(), reason="no shared-memory directory")
def test_shm_ping_stays_inside_its_budget():
    caller, total, _, _, _, _, client = _count_null_call(True, scheme="shm")
    assert caller <= SHM_CALLER_CEILING, f"calling thread: {caller:.1f} calls"
    assert total <= SHM_TOTAL_CEILING, f"all threads: {total:.1f} calls"
    # as on tcp, the caller reads its own reply: no reader thread
    assert client == [threading.current_thread().name], client
    assert caller > 20  # a working call path


@pytest.mark.parametrize("deposited", [False, True], ids=["inline", "deposit"])
@pytest.mark.parametrize("scheme", [
    "tcp", pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared-memory directory"))])
def test_a_payload_pays_for_a_deposit_only_when_it_takes_one(scheme,
                                                             deposited):
    nbytes = 2 * DEPOSIT_MIN_SIZE if deposited else DEPOSIT_MIN_SIZE - 1
    _, total, _, _, _, _, _ = _count_null_call(
        True, scheme=scheme,
        payload=ZCOctetSequence.from_data(bytes(nbytes)))
    assert total <= DEPOSIT_CEILINGS[scheme, deposited], \
        f"send_zc of {nbytes} bytes on {scheme}: {total:.1f} calls"
    assert total > 150  # a working call path


def test_traced_call_reads_the_one_record():
    _, _, _, in_obs, _, per_stage, _ = _count_null_call(True, traced=True)
    assert in_obs <= TRACED_OBS_CEILING, \
        f"{in_obs:.1f} calls inside repro/obs/ per traced ping"
    assert 1 <= per_stage <= STAGE_FANOUT_CEILING, \
        f"a stage event fans out into {per_stage:.1f} calls"


def _count_awaited_call():
    """``(calls per ping, threads)`` on the client side of ``ping``
    awaited by ``ASYNC_WINDOW`` callers through ``run_sync``.  The
    server ORB keeps off the reactor, so every thread that is not one
    of its own (accept, connection reader, workers) is the client's."""
    api = compile_idl(BUDGET_IDL, module_name="_call_budget_idl")

    class Impl(api.Budget_skel):
        def ping(self, x):
            return None

    calls = collections.Counter()  # thread -> Python-level calls
    counting = [False]

    def profile(frame, event, arg):
        if counting[0] and event == "call":
            calls[threading.current_thread()] += 1

    async def window(per_caller):
        ping = async_api(stub).ping

        async def caller():
            for _ in range(per_caller):
                await ping(1)

        await asyncio.gather(*(caller() for _ in range(ASYNC_WINDOW)))

    reset_reactor()  # threads take the profile hook when they start
    threading.setprofile(profile)
    server = client = None
    try:
        server = ORB(ORBConfig(scheme="tcp", reactor=False))
        client = ORB(ORBConfig(scheme="tcp"))
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        run_sync(window(5), timeout=30.0)  # dial, caches, executor threads
        counting[0] = True
        run_sync(window(CALLS // ASYNC_WINDOW), timeout=30.0)
        counting[0] = False
    finally:
        threading.setprofile(None)
        for orb in (client, server):
            if orb is not None:
                orb.shutdown()
        reset_reactor()
    mine = {t: n for t, n in calls.items()
            if not t.name.startswith(("iiop-", "tcp-"))}
    assert len(mine) < len(calls)  # the server's threads were told apart
    return sum(mine.values()) / CALLS, len(mine)


def test_awaited_call_stays_on_the_loop_that_awaits_it():
    per_ping, threads = _count_awaited_call()
    assert per_ping <= ASYNC_CLIENT_CEILING, \
        f"client side of an awaited ping: {per_ping:.1f} calls"
    assert threads == ASYNC_CLIENT_THREADS, \
        f"{threads} client threads ran Python for awaited pings"
    assert per_ping > 60  # a working call path, not an early return
