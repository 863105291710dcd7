"""FlightRecorder: ring/slow-sampling semantics, driven by FakeClock."""

import threading

from repro.obs.flightrec import DEFAULT_SLOW_THRESHOLD, FlightRecorder


def _call(rec, clock, name="op", seconds=0.001, stages=0,
          status=None):
    """Drive one client call of ``seconds`` through the recorder."""
    scope = rec.begin_invocation()
    active = rec.start_client_span(name, scope)
    for i in range(stages):
        rec.stamp(f"s{i}", 0.0001)
    clock.advance(seconds)
    return rec.finish(active, status=status)


class TestRecording:
    def test_fast_call_keeps_header_drops_detail(self, clock):
        assert DEFAULT_SLOW_THRESHOLD == 0.050
        rec = FlightRecorder(slow_threshold=0.050, clock=clock)
        span = _call(rec, clock, seconds=0.001, stages=3)
        assert span.duration_s == 0.001
        assert span.stages == []              # detail stripped
        assert rec.counters() == {
            "recorded_total": 1, "slow_sampled": 0,
            "detail_dropped": 1, "ring_spans": 1, "slow_trees": 0}

    def test_slow_call_keeps_full_detail(self, clock):
        rec = FlightRecorder(slow_threshold=0.050, clock=clock)
        span = _call(rec, clock, seconds=0.200, stages=2)
        assert [e.stage for e in span.stages] == ["s0", "s1"]
        (tree,) = rec.slow_trees()
        assert tree == [span]
        assert rec.counters()["slow_sampled"] == 1

    def test_ring_is_bounded(self, clock):
        rec = FlightRecorder(keep=4, clock=clock)
        for i in range(10):
            _call(rec, clock, name=f"op{i}")
        recent = rec.recent()
        assert len(recent) == 4
        assert [s.name for s in recent] == ["op6", "op7", "op8", "op9"]
        assert rec.counters()["recorded_total"] == 10

    def test_nested_spans_travel_with_their_root(self, clock):
        """A server span opened under a live client span (synchronous
        loopback) lands in the same trace and is delivered with the
        root when the root finishes slow."""
        rec = FlightRecorder(slow_threshold=0.050, clock=clock)
        scope = rec.begin_invocation()
        outer = rec.start_client_span("outer", scope)
        inner = rec.start_server_span("handle", request_id=7)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        clock.advance(0.010)
        rec.finish(inner)
        clock.advance(0.100)
        root = rec.finish(outer)
        (tree,) = rec.slow_trees()
        assert {s.name for s in tree} == {"outer", "handle"}
        assert tree[-1] is root
        assert rec.spans()[0].name in ("outer", "handle")

    def test_status_recorded(self, clock):
        rec = FlightRecorder(clock=clock)
        span = _call(rec, clock, status="COMM_FAILURE")
        assert span.status == "COMM_FAILURE"

    def test_disable_stops_stage_capture(self, clock):
        rec = FlightRecorder(slow_threshold=0.0, clock=clock)
        rec.disable()
        assert not rec.enabled
        scope = rec.begin_invocation()
        active = rec.start_client_span("op", scope)
        rec.stamp("s", 0.1)
        assert active.stages == []
        rec.enable()
        rec.stamp("s", 0.1)
        assert [e.stage for e in active.stages] == ["s"]

    def test_threads_record_independent_traces(self, clock):
        rec = FlightRecorder(clock=clock)
        done = threading.Barrier(2)
        traces = {}

        def run(name):
            scope = rec.begin_invocation()
            active = rec.start_client_span(name, scope)
            done.wait(timeout=2.0)  # both spans open at once
            traces[name] = active.trace_id
            rec.finish(active)

        threads = [threading.Thread(target=run, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=2.0)
        assert traces["t0"] != traces["t1"]  # no cross-thread nesting
        assert rec.counters()["recorded_total"] == 2

    def test_spans_reader_merges_slow_trees_and_roots(self, clock):
        rec = FlightRecorder(slow_threshold=0.050, clock=clock)
        _call(rec, clock, name="fast", seconds=0.001)
        scope = rec.begin_invocation()
        outer = rec.start_client_span("slow", scope)
        inner = rec.start_server_span("inner")
        clock.advance(0.010)
        rec.finish(inner)
        clock.advance(0.100)
        rec.finish(outer)
        names = [s.name for s in rec.spans()]
        # inner is not a root, but rides in via the slow tree
        assert names == ["fast", "slow", "inner"] or \
            names == ["fast", "inner", "slow"]
        # bounding by root count keeps the matching tree members
        assert {s.name for s in rec.spans(1)} == {"slow", "inner"}

    def test_clear(self, clock):
        rec = FlightRecorder(slow_threshold=0.0, clock=clock)
        _call(rec, clock)
        rec.clear()
        assert rec.recent() == []
        assert rec.slow_trees() == []
        assert rec.counters()["recorded_total"] == 1  # lifetime stays
