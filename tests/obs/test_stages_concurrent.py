"""StageTimer under pipelined callers: the producer keeps one stack of
open records per thread, so no caller reads another's stages."""

import threading
import time

from repro.giop import ReplyStatus
from repro.idl import compile_idl
from repro.obs import (CLIENT_STAGES, STAGE_MARSHAL, FlightRecorder,
                       StageTimer)
from repro.orb import ORB, ORBConfig

CALLERS = 8


def test_two_threads_keep_their_own_open_record(clock):
    rec, timer = FlightRecorder(clock=clock), StageTimer()
    rec.consumers.append(timer.consume)
    both_open = threading.Barrier(2, timeout=10.0)

    def call(op, rid):
        span = rec.start_client_span(op, rec.begin_invocation())
        both_open.wait()            # both records are open at once
        rec.stamp(STAGE_MARSHAL, 0.0, rid)
        both_open.wait()
        span.request_id, span.reply_status = rid, ReplyStatus.NO_EXCEPTION
        rec.finish(span)

    threads = [threading.Thread(target=call, args=(f"op{i}", i))
               for i in (1, 2)]
    for t in threads:
        t.start()
    rec.stamp(STAGE_MARSHAL, 0.0, 99)  # this thread has no record open
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    by_id = {r.request_id: r for r in timer.records}
    assert sorted(by_id) == [1, 2]
    for rid, got in by_id.items():
        assert got.operation == f"op{rid}"
        assert [e.nbytes for e in got.stages] == [rid]


def test_concurrent_invocations_each_commit_their_six_stages():
    api = compile_idl("interface Slow { void nap(in unsigned long ms); };",
                      module_name="_stages_concurrent_idl")

    class Impl(api.Slow_skel):
        def nap(self, ms):
            time.sleep(ms / 1000.0)

    server = ORB(ORBConfig(scheme="tcp", server_workers=CALLERS))
    client = ORB(ORBConfig(scheme="tcp", collocated_calls=False))
    try:
        tracer = client.enable_tracing()
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        stub.nap(0)                 # dial outside the concurrent window
        calls = tracer.registry.get("invocations_total", operation="nap")
        before = calls.value
        start = threading.Barrier(CALLERS, timeout=10.0)
        errors = []

        def call():
            try:
                start.wait()
                stub.nap(50)
            except Exception as e:  # noqa: BLE001 - reported below
                errors.append(e)

        threads = [threading.Thread(target=call) for _ in range(CALLERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        assert errors == []
        records = list(tracer.timer.records)[-CALLERS:]
        assert len({r.request_id for r in records}) == CALLERS
        for rec in records:
            assert [e.stage for e in rec.stages] == list(CLIENT_STAGES)
        assert calls.value == before + CALLERS
    finally:
        client.shutdown()
        server.shutdown()
