"""TAB-OVH — §5.2's instrumentation: where the CORBA overhead goes.

Paper: "We instrumented the ORB source code to pinpoint the sources of
this overhead.  The test shows that the highest cost incurs due to
data copying and data inspection" (§5.2); §2.1 names the three
overhead classes: data copying, request demultiplexing, memory
allocation.

Regenerates that breakdown for a 1 MiB request through the standard
ORB on the simulated testbed, and the same request through the
zero-copy ORB (where the per-byte middleware costs must vanish).
"""

import pytest

from repro.simnet import (GIGABIT_ETHERNET, PENTIUM_II_400, OrbCostConfig,
                          Testbed, corba_request_steps, standard_stack,
                          zero_copy_stack)

from conftest import MB, report


def _breakdown(zero_copy: bool):
    bed = Testbed(PENTIUM_II_400, GIGABIT_ETHERNET)
    stack = zero_copy_stack() if zero_copy else standard_stack()
    steps = corba_request_steps(bed, MB, stack,
                                OrbCostConfig(zero_copy=zero_copy))
    rep = bed.run(steps, MB)
    return rep


def test_overhead_breakdown_standard_vs_zero_copy(once):
    std, zc = once(lambda: (_breakdown(False), _breakdown(True)))

    def rows(rep):
        total = sum(rep.breakdown_ns.values())
        out = []
        for name, ns in rep.breakdown_ns.items():
            pct = 100.0 * ns / total if total else 0.0
            out.append(f"{name:<22} {ns/1e6:9.2f} ms  {pct:5.1f}%")
        out.append(f"{'TOTAL byte-touching':<22} {total/1e6:9.2f} ms")
        out.append(f"{'end-to-end':<22} {rep.elapsed_ns/1e6:9.2f} ms")
        return out

    report("§5.2 overhead breakdown — standard ORB, 1 MiB request",
           rows(std), "dominant cost: data copying & inspection (marshal)")
    report("§5.2 overhead breakdown — zero-copy ORB, 1 MiB request",
           rows(zc))

    # marshaling dominates the standard ORB's byte-touching time
    std_total = sum(std.breakdown_ns.values())
    marshal_ns = (std.breakdown_ns.get("tx.marshal", 0)
                  + std.breakdown_ns.get("rx.marshal", 0))
    assert marshal_ns / std_total > 0.5

    # the zero-copy ORB spends no middleware per-byte time at all
    assert "tx.marshal" not in zc.breakdown_ns
    assert "rx.marshal" not in zc.breakdown_ns

    # payload copy accounting: 5 copies -> ~0 copies
    assert std.sender_copies + std.receiver_copies \
        == pytest.approx(5.0, abs=0.05)
    assert zc.sender_copies + zc.receiver_copies < 0.1


def test_pipeline_timeline(once):
    """Render the stage timeline of a 64 KiB stream on both stacks:
    the standard stack's rx-cpu bar is solid (the plateau), the
    zero-copy stack's bottleneck moves to the PCI bus."""
    from repro.simnet import Testbed, TraceRecorder

    def run():
        out = {}
        for name, stack in (("standard", standard_stack()),
                            ("zero-copy", zero_copy_stack())):
            bed = Testbed(PENTIUM_II_400, GIGABIT_ETHERNET)
            trace = TraceRecorder()
            step = bed.stream(64 * 1024, stack)
            step.trace = trace
            bed.run([step], 64 * 1024)
            out[name] = trace
        return out

    traces = once(run)
    for name, trace in traces.items():
        report(f"pipeline timeline — {name} stack, 64 KiB stream",
               trace.timeline(width=60).splitlines()
               + [f"bottleneck: {trace.bottleneck_stage()}"])
    assert traces["standard"].bottleneck_stage() == "rx-cpu"
    assert traces["zero-copy"].bottleneck_stage() in ("tx-pci", "rx-pci")


def test_real_orb_instrumentation_matches_model(once, test_api=None):
    """The same breakdown taken from the REAL ORB's on_bytes hook."""
    from repro.core import OctetSequence
    from repro.idl import compile_idl
    from repro.orb import ORB, ORBConfig

    api = compile_idl("""
    interface Pipe { unsigned long push(in sequence<octet> data); };
    """, module_name="_bench_ovh_idl")

    class Impl(api.Pipe_skel):
        def push(self, data):
            return len(data)

    events = []

    def run():
        server = ORB(ORBConfig(scheme="loop"),
                     on_bytes=lambda k, n: events.append((k, n)))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False),
                     on_bytes=lambda k, n: events.append((k, n)))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            stub.push(OctetSequence(bytes(MB)))
        finally:
            client.shutdown()
            server.shutdown()
        return events

    got = once(run)
    marshal_bytes = sum(n for k, n in got if k.startswith("marshal"))
    # the payload is marshaled exactly twice: client in, server out
    assert marshal_bytes == 2 * MB


def test_live_stage_breakdown_cross_checks_model(once):
    """The live six-stage breakdown (repro.obs tracing) agrees with the
    offline model's structure: on the standard path the payload bytes
    ride the marshal/demarshal stages, on the zero-copy path they move
    to the data-path stages (deposit-send/deposit-recv) and the
    byte-touching middleware stages collapse — §5.2's claim, measured
    on the real ORB instead of the testbed model.  The server half of
    Fig. 7 is read off the server ORB's span of the same push: the
    request's read, stamped by the span that owns it, carries the
    payload on the control path or on the data path."""
    from repro.core import OctetSequence, ZCOctetSequence
    from repro.idl import compile_idl
    from repro.obs import CLIENT_STAGES
    from repro.orb import ORB, ORBConfig

    api = compile_idl("""
    interface Pipe2 {
        unsigned long push(in sequence<octet> data);
        unsigned long push_zc(in sequence<zc_octet> data);
    };
    """, module_name="_bench_ovh_live_idl")

    class Impl(api.Pipe2_skel):
        def push(self, data):
            return len(data)

        def push_zc(self, data):
            return len(data)

    def one(zero_copy: bool):
        server = ORB(ORBConfig(scheme="loop", slow_call_threshold=0.0))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        tracer = client.enable_tracing()
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(Impl())))
            if zero_copy:
                stub.push_zc(ZCOctetSequence.from_data(bytes(MB)))
            else:
                stub.push(OctetSequence(bytes(MB)))
            # the loop dispatches on the caller's thread: its span is in
            (served,) = [s for s in server.flightrec.recent()
                         if s.name.startswith("push")]
        finally:
            client.shutdown()
            server.shutdown()
        return tracer, served

    (std, std_srv), (zc, zc_srv) = once(lambda: (one(False), one(True)))

    for tracer in (std, zc):
        rec = tracer.last
        assert rec.stage_order() == list(CLIENT_STAGES)
        assert all(e.duration_s >= 0.0 for e in rec.stages)
        # the live record and the metrics registry tell the same story
        for stage in CLIENT_STAGES:
            counter = tracer.registry.get("stage_bytes_total", stage=stage)
            got = counter.value if counter is not None else 0
            assert got == rec.nbytes(stage)

    report("§5.2 live stage breakdown — 1 MiB request, client stages",
           [f"{'stage':<14} {'std bytes':>12} {'zc bytes':>12}"] +
           [f"{s:<14} {std.last.nbytes(s):>12} {zc.last.nbytes(s):>12}"
            for s in CLIENT_STAGES],
           "data copying vanishes from the middleware stages (Fig. 7)")

    # standard path: the payload crosses marshal and the control send
    assert std.last.nbytes("marshal") > MB
    assert std.last.nbytes("control-send") > MB
    assert std.last.nbytes("deposit-send") == 0
    # zero-copy path: the payload rides the data path instead
    assert zc.last.nbytes("deposit-send") == MB
    assert zc.last.nbytes("marshal") < 4096
    assert zc.last.nbytes("control-send") < 4096
    # the server's read: the standard request's payload is in its control
    # message, the zero-copy request's lands as a deposit
    assert std_srv.stage_bytes("recv-wait") > MB
    assert std_srv.stage_bytes("deposit-recv") == 0
    assert zc_srv.stage_bytes("deposit-recv") == MB
    assert zc_srv.stage_bytes("recv-wait") < 4096
