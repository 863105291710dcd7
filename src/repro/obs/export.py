"""Exporters: render a MetricsRegistry or a span set as text or JSON.

The text form is the Prometheus exposition of :mod:`repro.obs.promexport`
minus its comment lines (stable, greppable, shows up well in CI logs);
the JSON form is the machine interface the benchmark harness and the CI
smoke step parse, read off one
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so it is internally
consistent even while the ORB keeps counting.

Two dump schemas coexist, distinguished by their ``schema`` field:

* **v1** — metrics dumps (``{"schema": 1, "metrics": [...]}``);
* **v2** — span dumps from :mod:`repro.obs.dtrace`
  (``{"schema": 2, "spans": [...]}``), one object per finished span
  with its parentage, stage record, and the control/deposit byte split.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional, Union

from .metrics import MetricsRegistry

__all__ = ["to_dict", "to_json", "render_text", "dump_metrics",
           "spans_to_dict", "dump_spans",
           "SCHEMA_VERSION", "SPAN_SCHEMA_VERSION"]

#: bumped when the metrics snapshot shape changes; parsers check it
SCHEMA_VERSION = 1

#: the span-dump schema, versioned alongside (and distinct from) v1
SPAN_SCHEMA_VERSION = 2


def to_dict(registry: MetricsRegistry, **meta) -> dict:
    """JSON-ready dict: ``{"schema": 1, "metrics": [...], **meta}``."""
    out = {"schema": SCHEMA_VERSION}
    out.update(meta)
    out.update(registry.snapshot())
    return out


def to_json(registry: MetricsRegistry, indent: Optional[int] = 2,
            **meta) -> str:
    return json.dumps(to_dict(registry, **meta), indent=indent,
                      sort_keys=False)


def render_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition lines, one series per line: what
    :func:`repro.obs.promexport.render` writes, without its ``# HELP``
    / ``# TYPE`` headers (so :func:`~repro.obs.promexport.
    parse_exposition` reads it back)."""
    # imported here: every ORB process imports this package, and only
    # a telemetry plane or a CLI pays for the renderer's module
    from .promexport import render
    lines = [line for line in render(registry).splitlines()
             if not line.startswith("#")]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_to_dict(spans: Iterable, **meta) -> dict:
    """JSON-ready span dump (schema v2).

    ``spans`` is an iterable of :class:`repro.obs.dtrace.Span` or a
    :class:`~repro.obs.dtrace.SpanCollector`.
    """
    members = getattr(spans, "spans", spans)
    out = {"schema": SPAN_SCHEMA_VERSION}
    out.update(meta)
    out["spans"] = [s.as_dict() for s in members]
    return out


def dump_spans(spans: Iterable, target: Union[str, IO[str]],
               indent: Optional[int] = 2, **meta) -> None:
    """Write a schema-v2 span dump to a path or open text file."""
    payload = json.dumps(spans_to_dict(spans, **meta), indent=indent) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        target.write(payload)


def dump_metrics(registry: MetricsRegistry,
                 target: Union[str, IO[str]], fmt: str = "json",
                 **meta) -> None:
    """Write the registry to a path or open text file.

    ``fmt`` is ``"json"`` (the parseable dump the CI smoke step
    asserts on) or ``"text"`` (the Prometheus-style lines).
    """
    if fmt == "json":
        payload = to_json(registry, **meta) + "\n"
    elif fmt == "text":
        payload = render_text(registry)
    else:
        raise ValueError(f"unknown metrics format {fmt!r}")
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        target.write(payload)
