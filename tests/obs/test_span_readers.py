"""Golden test: what the flight recorder's readers hand out.

However the recorder stores an open call, everything that *reads* it —
``FlightRecorder.spans()``, ``/spans``, ``ORBMonitor.recent_spans(n)``
and ``repro-metrics tree`` — must render span schema v2 as it always
has: 32-hex trace ids, 16-hex span ids, parent links, status, request
id, stage detail for the slow call only.  This pins that for a fast
call, a slow call with a nested server span, and a failed call, on one
ORB calling itself over ``loop`` with inline dispatch (so the server
span opens under the client span, on the caller's thread).
"""

import json
import time
import urllib.request

import pytest

from repro.idl import compile_idl
from repro.obs import MetricsRegistry, render_span_tree, spans_to_dict
from repro.obs.cli import main as metrics_cli
from repro.obs.cli import validate_span_dump
from repro.obs.export import dump_spans
from repro.obs.httpexport import TelemetryServer
from repro.orb import ORB, ORBConfig

SLOW = 0.02


#: (kind, name, trace, span, parent, status, request id, stage names) —
#: one id counter per recorder, numbered here from the first id it
#: drew: trace, client span, nested server span
GOLDEN = [
    ("client", "ping", 1, 2, None, "NO_EXCEPTION", 1, []),
    # the server's read runs on this thread under the client span, but
    # stamps nothing: the server span that owns the request stamps it
    ("client", "nap", 4, 5, None, "NO_EXCEPTION", 2,
     ["marshal", "control-send", "deposit-send", "server-wait",
      "deposit-recv", "demarshal"]),
    ("server", "nap", 4, 6, 5, "NO_EXCEPTION", 2,
     ["recv-wait", "deposit-recv", "demarshal", "marshal", "control-send",
      "deposit-send"]),
    ("client", "fail", 7, 8, None, "Boom", 3, []),
]


@pytest.fixture
def recorded():
    api = compile_idl(
        "exception Boom { long code; };"
        "interface Golden { void ping(in unsigned long x);"
        "                   void nap(in unsigned long ms);"
        "                   void fail() raises (Boom); };",
        module_name="_span_readers_idl")

    class Impl(api.Golden_skel):
        def ping(self, x):
            return None

        def nap(self, ms):
            time.sleep(ms / 1000.0)

        def fail(self):
            raise api.Boom(code=3)

    orb = ORB(ORBConfig(scheme="loop", collocated_calls=False,
                        server_workers=0, slow_call_threshold=SLOW))
    other = ORB(ORBConfig(scheme="loop"))
    try:
        stub = orb.string_to_object(orb.object_to_string(
            orb.activate(Impl())))
        stub.ping(1)
        stub.nap(int(SLOW * 1000) + 10)
        with pytest.raises(api.Boom):
            stub.fail()
        monitor = other.string_to_object(orb.object_to_string(
            orb.resolve_initial_references("ORBMonitor")))
        yield orb, monitor
    finally:
        other.shutdown()
        orb.shutdown()


def _ids(rec):
    """GOLDEN's small numbers as this recorder's hex ids: the counter
    starts at a per-recorder offset and a trace id carries the
    recorder's random prefix in its upper 64 bits."""
    first = rec.recent()[0].trace - 1  # ping's trace drew the first id
    assert first >> 64 and first >> 64 == rec._trace_base >> 64
    return (lambda n: f"{first + n:032x}",
            lambda n: f"{(first + n) & (1 << 64) - 1:016x}")


def _shape(doc: dict) -> list:
    return [(s["kind"], s["name"], s["trace_id"], s["span_id"],
             s["parent_id"], s["status"], s["request_id"],
             [st["stage"] for st in s["stages"]]) for s in doc["spans"]]


def test_every_reader_renders_schema_v2_as_before(recorded, tmp_path):
    orb, monitor = recorded
    rec = orb.flightrec
    doc = json.loads(json.dumps(spans_to_dict(rec.spans())))
    assert validate_span_dump(doc) == []
    _trace, _span = _ids(rec)
    assert _shape(doc) == [
        (kind, name, _trace(trace), _span(span),
         None if parent is None else _span(parent), status, rid, stages)
        for kind, name, trace, span, parent, status, rid, stages in GOLDEN]
    for s in doc["spans"]:
        assert s["node"] == f"orb{orb.orb_id}"
        assert (s["duration_s"] >= SLOW) == (s["name"] == "nap")
        assert all(st["duration_s"] >= 0.0 for st in s["stages"])
        # the wire bytes a span reports are those of its wait stages
        assert (s["control_bytes"]["recv"] > 0) == (s["name"] == "nap")

    # the same objects come back on every read, ring and slow tree alike
    (tree,) = rec.slow_trees()
    assert [s.name for s in tree] == ["nap", "nap"]
    assert tree[-1] is rec.recent()[1] is rec.spans()[1]
    assert [s.name for s in rec.recent()] == ["ping", "nap", "fail"]

    # /spans and the monitor serve exactly that document
    with TelemetryServer(MetricsRegistry(), recorder=rec) as srv:
        with urllib.request.urlopen(srv.url + "/spans", timeout=5.0) as r:
            assert json.loads(r.read()) == doc
        # bounding by roots keeps a kept root's tree: nap + nap, fail
        with urllib.request.urlopen(srv.url + "/spans?n=2",
                                    timeout=5.0) as r:
            assert _shape(json.loads(r.read())) == _shape(doc)[1:]
    # (last: the monitor's own upcall is a root in this recorder too)
    assert json.loads(monitor.recent_spans(0)) == doc


def test_tree_rendering(recorded, tmp_path, capsys):
    orb, _ = recorded
    spans = orb.flightrec.spans()
    path = str(tmp_path / "spans.json")
    dump_spans(spans, path)
    capsys.readouterr()
    assert metrics_cli(["tree", path]) == 0
    out = capsys.readouterr().out
    assert out == render_span_tree(spans)
    lines = out.splitlines()
    _trace, _ = _ids(orb.flightrec)
    assert [ln for ln in lines if ln.startswith("trace ")] == [
        f"trace {_trace(1)}  (1 span, {spans[0].duration_s * 1e3:.3f}ms)",
        f"trace {_trace(4)}  (2 spans, {spans[1].duration_s * 1e3:.3f}ms)",
        f"trace {_trace(7)}  (1 span, {spans[3].duration_s * 1e3:.3f}ms)"]
    assert lines[1].startswith("`-- client ping  ")
    assert lines[3].startswith("`-- client nap  ")
    assert lines[4].startswith("    `-- server nap  ")
    assert lines[6].startswith("`-- client fail  ")
    assert lines[6].endswith("  [Boom]")
    assert all(f"@orb{orb.orb_id}  ctl " in ln for ln in lines
               if not ln.startswith("trace "))
