"""The interpreter path length of one null call, held as a budget.

On one CPU the round trip of ``void ping(in unsigned long)`` *is* the
number of Python-level function calls it executes (DESIGN.md, "The
call path and its budget"), so that number is what this test pins:
two in-process ORBs over ``tcp``, every thread profiled, counts taken
after warm-up, once in the default configuration, once with
``generic_loop=True`` (which forces the TypeCode interpreter, so its
count must stay the interpreter's: the switch still switches) and once
with ``flight_recorder=False``.  The server ORB reads each connection on a
thread of its own and dispatches there (``server_workers=0``), so its
threads can be told from the client's.

Who reads: the client's connection is never awaited on, so the calling
thread reads its own reply (DESIGN.md §10, the waiter) and the client
half of a ping runs on that one thread, which the test pins; no loop
runs in the client at all.  The ceilings sit 10 % above what is
reached: 69 on the calling thread and 116 in all since a received
message is one record (72 → 69, 126 → 116).  The call plans before it
took 90 → 72 and 162 → 126: a fixed-layout request and reply are one
``struct`` call each, with no encoder, decoder walk or marshal
context.  The waiter change before
them moved calls onto the calling thread (63 → 92, the
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

Last, ``services.blobstore.read_all``: at the same number of chunks its
count must not grow with the chunk size, because each landed reply is
copied once, whole, into the result.
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
from repro.obs.flightrec import FlightRecorder
from repro.orb import ORB, ORBConfig, async_api, run_sync
from repro.orb.reactor import reset_reactor
from repro.services import BlobStoreImpl, read_all
from repro.transport.shm import shm_available

#: measured: 69 on the calling thread, which reads its own reply, 116
#: over all threads against a server that dispatches on its reader
#: thread, 0 emits; a received message is one record (72 and 126 while
#: the read built a message object and a second GIOPHeader per message,
#: and the consumers asked the record for its parameter decoder and
#: demarshal context); a fixed-layout request and reply each take one
#: ``struct`` call (90 and 162 while every call ran the TypeCode
#: interpreter; 91 and 164 while proxy and dispatcher asked the
#: connection for a composed byte hook; 89 and 160 while only a traced
#: send stamped control-send and deposit-send; 162 while the server
#: handed each request to a pool worker; 92 and 165 while the idle check
#: before a write led a read; 166 while the server's reader thread
#: blocked in ``recv`` instead of ``poll``; 63 and 187 while a reactor
#: thread read it)
CALLER_CEILING = 76
TOTAL_CEILING = 128
EMIT_CEILING = 0
#: measured with ``generic_loop=True``, which forces the interpreter on
#: every call: 147 in all (159 before the one-record read; 162 before
#: the call plans, whose count the switch must keep within
#: ``GENERIC_LOOP_SLACK``)
GENERIC_LOOP_TOTAL = 147
GENERIC_LOOP_SLACK = 3
#: measured on shm: 72 on the calling thread, which reads its own reply
#: as on tcp, and 122 over all threads (75 and 132 before the one-record
#: read; 94 and 170 before the call plans; 95 and 172 with the composed
#: byte hook; 93 and 168 while only a traced send stamped its two
#: stages; 170 with the server's pool; 67 and 167 while a reader thread
#: read the client's connection; 169 while reader threads blocked in
#: ``recv``)
SHM_CALLER_CEILING = 79
SHM_TOTAL_CEILING = 134
#: measured: the recorder adds 21.0 calls per ping (116 against 95
#: with ``flight_recorder=False``; 126 against 105 before the one-record
#: read): twelve ``stamp``s, six stages on
#: each side.  23.0 while each side's marshal stamp read an encoder's
#: ``nbytes`` property (a fixed body's ``len`` is a C call); 20.0 while
#: an untraced send stamped neither control-send nor deposit-send
RECORDER_CEILING = 25
#: measured, traced: 260 calls inside ``repro/obs/`` per ping (about
#: half of them metrics-registry look-ups), 1.0 per stage event; 263
#: while the breakdown went through a stage timer object of its own.
#: 291 while a traced send was split in two timed writes and built a
#: ``WireEvent`` per message that the recorder dropped (306 with the
#: server's pool, whose hand-off is a stage): the ceiling sits below
#: that
TRACED_OBS_CEILING = 285
STAGE_FANOUT_CEILING = 2
#: measured, awaited with 8 in flight: the least of three windows 89.3
#: to 89.4 calls per ping on the client over five runs, every window
#: 89.2 to 89.8 (92.6 before the one-record read).  Earlier: 110.0
#: to 111.9 calls per ping on the client over three runs, every window
#: 110.0 to 113.1, all on the reactor's thread.  Against the server's
#: pool one window alone read 116.4 to 122.3 over eight runs, now and
#: then 126: a window whose
#: replies one readiness event finds one at a time runs more loop
#: iterations (``loop.time``, ``_run_once``, the self-pipe, empty
#: ``_read_nb`` rounds), which the least of three leaves out
ASYNC_CLIENT_CEILING = 98
ASYNC_CLIENT_THREADS = 1
ASYNC_WINDOW = 8

#: measured, all threads, per ``send_zc``: one byte under
#: ``DEPOSIT_MIN_SIZE`` 175 on tcp and 187 on shm (the payload rides the
#: control message), at twice the constant 218 and 272 (a deposit; on
#: shm with its arena staging, and its record read by the parse); 188 /
#: 200 and 229 / 283 before the one-record read; its
#: ``unsigned long`` reply takes the call plan (214 / 227 and 254 / 309
#: while it ran the interpreter); 216 /
#: 229 and 256 / 311 with the composed byte hook; 212 / 225 and 252 /
#: 307 while an untraced send stamped neither send stage;
#: 214 / 227 and 255 / 308 with the server's pool.  While
#: a reader thread read the shm client's connection, and the idle check
#: led a read, it was 217 / 224 and 258 / 305; while reader threads
#: blocked in ``recv`` 218 / 226 and 260 / 309; before the size rule and
#: the one gather write 279 / 324 at every size; before tcp callers read
#: their own replies 233 / 278 on tcp
DEPOSIT_CEILINGS = {("tcp", False): 193, ("shm", False): 206,
                    ("tcp", True): 240, ("shm", True): 299}

#: measured over loopback, all threads, one ``read_all`` of 8 chunks:
#: 4162 calls at 64 KiB chunks, 4193 to 4221 at 1 MiB (16x the bytes).
#: Each chunk is copied once from its landed view into the result; a
#: copy that walked the payload would add calls per byte
READ_ALL_CHUNKS = 8
READ_ALL_SIZE_SLACK = 1.05

CALLS = 200

_OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


BUDGET_IDL = """interface Budget {
    void ping(in unsigned long x);
    unsigned long send_zc(in sequence<zc_octet> data);
};"""


def _count_null_call(flight_recorder: bool, traced: bool = False,
                     scheme: str = "tcp", payload=None,
                     generic_loop: bool = False):
    """``(calling thread, all threads, FlightRecorder.emit, inside
    repro/obs/, threads seen, calls per stage event, client threads)``:
    Python-level calls per ping (with a ``payload``: per ``send_zc`` of
    it); the sixth is every call made from the producer's ``stamp`` down,
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
    stamp_code = FlightRecorder.stamp.__code__
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
            elif code is stamp_code:
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
                               server_workers=0, generic_loop=generic_loop))
        client = ORB(ORBConfig(scheme=scheme, flight_recorder=flight_recorder,
                               generic_loop=generic_loop))
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
    # of a recorder that is really being driven; the threads are the
    # caller and the server's reader, which dispatches
    assert caller > 20 and threads >= 2 and in_obs >= 2

    _, generic, _, _, _, _, _ = _count_null_call(True, generic_loop=True)
    assert abs(generic - GENERIC_LOOP_TOTAL) <= GENERIC_LOOP_SLACK, \
        f"generic_loop=True: {generic:.1f} calls, the interpreter's count " \
        f"is {GENERIC_LOOP_TOTAL}"

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
    _, _, emits, in_obs, _, per_stage, _ = _count_null_call(True,
                                                            traced=True)
    assert in_obs <= TRACED_OBS_CEILING, \
        f"{in_obs:.1f} calls inside repro/obs/ per traced ping"
    # no wire log is attached, so no WireEvent is built
    assert emits <= EMIT_CEILING, \
        f"{emits:.1f} FlightRecorder.emit calls per traced ping"
    assert 1 <= per_stage <= STAGE_FANOUT_CEILING, \
        f"a stage event fans out into {per_stage:.1f} calls"


def _count_awaited_call():
    """``(calls per ping, threads, every window's calls per ping)`` on
    the client side of ``ping`` awaited by ``ASYNC_WINDOW`` callers
    through ``run_sync``, counted over three windows: the first is the
    least of the three (how many replies one readiness event finds
    moves a window's count, and batching only adds loop iterations),
    the second the most client threads any window ran.  The server ORB
    reads on a thread of its own and dispatches there
    (``server_workers=0``), so every thread that is not one of its own
    (accept, connection reader) is the client's."""
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
        server = ORB(ORBConfig(scheme="tcp", server_workers=0))
        client = ORB(ORBConfig(scheme="tcp"))
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        run_sync(window(5), timeout=30.0)  # dial, caches, executor threads
        windows = []
        for _ in range(3):
            calls.clear()
            counting[0] = True
            run_sync(window(CALLS // ASYNC_WINDOW), timeout=30.0)
            counting[0] = False
            mine = {t: n for t, n in calls.items()
                    if not t.name.startswith(("iiop-", "tcp-"))}
            assert len(mine) < len(calls)  # the server's were told apart
            windows.append((sum(mine.values()) / CALLS, len(mine)))
    finally:
        threading.setprofile(None)
        for orb in (client, server):
            if orb is not None:
                orb.shutdown()
        reset_reactor()
    per_ping = [n for n, _ in windows]
    return min(per_ping), max(t for _, t in windows), per_ping


def test_awaited_call_stays_on_the_loop_that_awaits_it():
    per_ping, threads, every = _count_awaited_call()
    print(f"client calls per awaited ping, three windows: {every}")
    assert per_ping <= ASYNC_CLIENT_CEILING, \
        f"client side of an awaited ping: {every} calls in three windows"
    assert threads == ASYNC_CLIENT_THREADS, \
        f"{threads} client threads ran Python for awaited pings"
    assert per_ping > 60  # a working call path, not an early return


def _count_read_all(root, chunk: int) -> int:
    """Python-level calls, all threads, of one ``read_all`` of a blob of
    ``READ_ALL_CHUNKS`` chunks of ``chunk`` bytes over loopback."""
    data = os.urandom(READ_ALL_CHUNKS * chunk)
    (root / "blob.bin").write_bytes(data)
    calls, counting = [0], [False]

    def profile(frame, event, arg):
        if counting[0] and event == "call":
            calls[0] += 1

    reset_reactor()
    threading.setprofile(profile)
    impl = BlobStoreImpl(root, chunk_size=chunk)
    server = ORB(ORBConfig(scheme="loop"))
    client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
    try:
        store = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        for _ in range(3):  # caches, pool buffers, executor threads
            read_all(store, "blob.bin")
        sys.setprofile(profile)
        counting[0] = True
        got = read_all(store, "blob.bin")
        counting[0] = False
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        impl.shutdown()
        client.shutdown()
        server.shutdown()
        reset_reactor()
    assert got == data
    return calls[0]


def test_read_all_calls_do_not_grow_with_the_chunk_size(tmp_path):
    small = _count_read_all(tmp_path, 64 * 1024)
    big = _count_read_all(tmp_path, 1024 * 1024)
    assert big <= small * READ_ALL_SIZE_SLACK, \
        f"read_all of {READ_ALL_CHUNKS} chunks: {small} calls at 64 KiB, " \
        f"{big} at 1 MiB"
    assert small > 100 * READ_ALL_CHUNKS  # a working call path
