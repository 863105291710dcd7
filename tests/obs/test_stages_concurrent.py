"""StageTimer under pipelined callers: one open record per thread."""

import threading
import time

from repro.idl import compile_idl
from repro.obs import CLIENT_STAGES, STAGE_MARSHAL, StageEvent, StageTimer
from repro.orb import ORB, ORBConfig

CALLERS = 8


def test_two_threads_keep_their_own_open_record(clock):
    timer = StageTimer(clock=clock)
    both_open = threading.Barrier(2, timeout=10.0)

    def call(op, rid):
        timer.begin(op)
        both_open.wait()            # both records are open at once
        timer.emit(StageEvent(stage=STAGE_MARSHAL, duration_s=0.0,
                              nbytes=rid))
        both_open.wait()
        timer.commit(request_id=rid)

    threads = [threading.Thread(target=call, args=(f"op{i}", i))
               for i in (1, 2)]
    for t in threads:
        t.start()
    timer.emit(StageEvent(stage=STAGE_MARSHAL, duration_s=0.0))  # no record
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    by_id = {r.request_id: r for r in timer.records}
    assert sorted(by_id) == [1, 2]
    for rid, rec in by_id.items():
        assert rec.operation == f"op{rid}"
        assert [e.nbytes for e in rec.stages] == [rid]
    assert len(timer.take_loose()) == 1


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
        tracer.timer.take_loose()
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
        # every caller had a record open: none of its stages went loose
        assert not [e for e in tracer.timer.take_loose()
                    if e.stage in CLIENT_STAGES]
    finally:
        client.shutdown()
        server.shutdown()
