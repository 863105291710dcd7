"""TelemetryServer + RuntimeSampler against a bare registry.

ORB-level integration (enable_telemetry, the probe set against live
connections) lives in tests/services/test_monitor.py; this file pins
the HTTP surface and the sampler's failure containment in isolation,
plus the one live round trip CI's telemetry smoke reads off ``/spans``.
"""

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.idl import compile_idl
from repro.obs.cli import validate_span_dump
from repro.obs.flightrec import FlightRecorder
from repro.obs.httpexport import RuntimeSampler, TelemetryServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import parse_exposition, samples_by_name
from repro.orb import ORB, ORBConfig


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.headers.get("Content-Type"), resp.read().decode()


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("widgets_total").inc(5)
    return reg


class TestTelemetryServer:
    def test_metrics_endpoint_serves_strict_exposition(self, registry):
        with TelemetryServer(registry) as srv:
            assert srv.port != 0
            ctype, text = _get(srv.url + "/metrics")
            assert "version=0.0.4" in ctype
            by_name = samples_by_name(parse_exposition(text))
            assert by_name["widgets_total"][0].value == 5
            assert srv.scrapes == 1

    def test_healthz_and_custom_document(self, registry):
        with TelemetryServer(registry,
                             health=lambda: {"status": "ok",
                                             "role": "test"}) as srv:
            ctype, text = _get(srv.url + "/healthz")
            assert ctype == "application/json"
            assert json.loads(text) == {"status": "ok", "role": "test"}

    def test_spans_endpoint_serves_schema_v2(self, registry):
        rec = FlightRecorder(slow_threshold=0.0)
        scope = rec.begin_invocation()
        rec.finish(rec.start_client_span("op", scope))
        with TelemetryServer(registry, recorder=rec) as srv:
            _, text = _get(srv.url + "/spans?n=10")
            doc = json.loads(text)
            assert doc["schema"] == 2
            assert [s["name"] for s in doc["spans"]] == ["op"]

    def test_unknown_path_is_404(self, registry):
        with TelemetryServer(registry) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(srv.url + "/nope")
            assert exc.value.code == 404

    def test_scrape_runs_sampler_first(self, registry):
        ticks = []
        sampler = RuntimeSampler(
            registry, [lambda reg: ticks.append(1)], interval=3600)
        with TelemetryServer(registry, sampler=sampler) as srv:
            _get(srv.url + "/metrics")
            _get(srv.url + "/metrics")
        assert len(ticks) == 2  # once per scrape, thread never fired


@pytest.mark.parametrize("distributed", [False, True],
                         ids=["telemetry", "distributed"])
def test_spans_over_http_after_an_idle_connection(distributed):
    """``ping; sleep; ping`` on a live ORB pair, read back from
    ``/spans`` (the telemetry-smoke CI job runs this by node id): ids
    have their schema-v2 widths, the call kept its stages and they fit
    inside it (a reader that charges a call the connection's idle
    fails here), and under distributed tracing the document's span is
    the collector's span is the breakdown's call."""
    api = compile_idl("interface P { void ping(in unsigned long x); };",
                      module_name="_httpexport_idle_idl")

    class Impl(api.P_skel):
        def ping(self, x):
            return None

    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp", slow_call_threshold=0.0))
    try:
        tracer = client.enable_tracing(distributed=True) \
            if distributed else None
        url = client.enable_telemetry().url
        stub = client.string_to_object(
            server.object_to_string(server.activate(Impl())))
        stub.ping(1)
        time.sleep(0.3)
        stub.ping(2)
        doc = json.loads(_get(url + "/spans")[1])
    finally:
        client.shutdown()
        server.shutdown()
    assert doc["schema"] == 2 and validate_span_dump(doc) == []
    for s in doc["spans"]:
        assert re.fullmatch("[0-9a-f]{32}", s["trace_id"]), s
        assert re.fullmatch("[0-9a-f]{16}", s["span_id"]), s
    root = [s for s in doc["spans"] if s["parent_id"] is None
            and (s["kind"], s["name"]) == ("client", "ping")][-1]
    staged = sum(st["duration_s"] for st in root["stages"])
    assert root["stages"] and staged <= root["duration_s"], root
    if distributed:
        collected = tracer.spans.spans[-1]
        assert root == json.loads(json.dumps(collected.as_dict()))
        assert tracer.last.request_id == root["request_id"]
        assert [(e.stage, e.duration_s, e.nbytes)
                for e in tracer.last.stages] == \
            [(st["stage"], st["duration_s"], st["nbytes"])
             for st in root["stages"]]


class TestRuntimeSampler:
    def test_failing_probe_is_quarantined_not_fatal(self, registry):
        calls = []

        def good(reg):
            calls.append("good")
            reg.gauge("fine").set(1)

        def bad(reg):
            calls.append("bad")
            raise RuntimeError("probe exploded")

        sampler = RuntimeSampler(registry, [bad, good], interval=3600)
        sampler.sample()
        sampler.sample()
        # bad ran once, was benched; good kept running
        assert calls == ["bad", "good", "good"]
        assert registry.gauge("sampler_probe_errors").value == 1
        assert registry.gauge("fine").value == 1

    def test_rejects_nonpositive_interval(self, registry):
        with pytest.raises(ValueError):
            RuntimeSampler(registry, [], interval=0)
