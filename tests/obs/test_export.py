"""Exporters: JSON and Prometheus-style text dumps."""

import io
import json

import pytest

from repro.obs import MetricsRegistry, dump_metrics, render_text, to_dict
from repro.obs.export import SCHEMA_VERSION, to_json
from repro.obs.promexport import parse_exposition, render, samples_by_name


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("invocations_total", operation="put").inc(3)
    reg.gauge("pool_buffers").set(2)
    h = reg.histogram("stage_seconds", buckets=(0.01, 1.0), stage="marshal")
    h.observe(0.005)
    h.observe(0.5)
    return reg


def test_to_dict_carries_schema_and_meta():
    d = to_dict(_sample_registry(), mode="real", payload=2048)
    assert d["schema"] == SCHEMA_VERSION
    assert d["mode"] == "real"
    assert d["payload"] == 2048
    assert len(d["metrics"]) == 3


def test_to_json_round_trips():
    d = json.loads(to_json(_sample_registry()))
    by_name = {m["name"]: m for m in d["metrics"]}
    assert by_name["invocations_total"]["value"] == 3
    assert by_name["invocations_total"]["labels"] == {"operation": "put"}
    hist = by_name["stage_seconds"]
    assert hist["count"] == 2
    assert hist["buckets"][-1] == {"le": "+Inf", "count": 2}


def test_render_text_exposition_format():
    text = render_text(_sample_registry())
    lines = text.splitlines()
    assert 'invocations_total{operation="put"} 3' in lines
    assert "pool_buffers 2" in lines
    # (``le`` comes last, as promexport.render writes it)
    assert 'stage_seconds_bucket{stage="marshal",le="0.01"} 1' in lines
    assert 'stage_seconds_bucket{stage="marshal",le="+Inf"} 2' in lines
    assert 'stage_seconds_sum{stage="marshal"} 0.505' in lines
    assert 'stage_seconds_count{stage="marshal"} 2' in lines
    assert text.endswith("\n")


def test_render_text_is_the_prometheus_renderer_without_comments():
    reg = _sample_registry()
    reg.counter("odd-name.total", path='a"b\\c\nd').inc()
    text = render_text(reg)
    assert text == "".join(
        line + "\n" for line in render(reg).splitlines()
        if not line.startswith("#"))
    assert "#" not in text
    # and so the strict parser reads it back, escapes and all
    samples = samples_by_name(parse_exposition(text))
    assert samples["invocations_total"][0].value == 3
    assert samples["odd_name_total"][0].labels_dict == {"path": 'a"b\\c\nd'}
    assert [s.value for s in samples["stage_seconds_bucket"]] == [1, 2, 2]


def test_render_text_empty_registry():
    assert render_text(MetricsRegistry()) == ""


def test_dump_metrics_to_path_is_parseable_json(tmp_path):
    path = tmp_path / "metrics.json"
    dump_metrics(_sample_registry(), str(path), mode="smoke")
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA_VERSION
    assert data["mode"] == "smoke"
    assert any(m["name"] == "invocations_total" for m in data["metrics"])


def test_dump_metrics_to_file_object_as_text():
    buf = io.StringIO()
    dump_metrics(_sample_registry(), buf, fmt="text")
    assert "invocations_total" in buf.getvalue()


def test_dump_metrics_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        dump_metrics(_sample_registry(), str(tmp_path / "x"), fmt="xml")
