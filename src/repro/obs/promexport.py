"""Prometheus text exposition (format 0.0.4) for a MetricsRegistry.

The one renderer of the format: the ``/metrics`` endpoint of
:mod:`repro.obs.httpexport` serves exactly what a stock Prometheus
server scrapes, and :func:`repro.obs.export.render_text` (``repro-metrics
render``, ``dump_metrics(fmt="text")``) is this output without the
comment lines:

* one ``# HELP`` / ``# TYPE`` header per metric family, samples of all
  label children grouped under it;
* histograms as cumulative ``_bucket{le="..."}`` series with the
  terminal ``le="+Inf"`` plus ``_sum`` and ``_count``;
* label values escaped per the spec (``\\``, ``\"``, ``\n``).

The module also carries the *strict* line-grammar parser
(:func:`parse_exposition`) used by the tests, the CI smoke step and
``repro-top``: it validates names, label syntax, escapes, value
lexemes and histogram invariants (cumulative buckets, ``+Inf`` ==
``_count``) and raises :class:`ExpositionError` on the first
violation, so a scrape that parses is a scrape Prometheus would accept.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CONTENT_TYPE", "ExpositionError", "Sample", "render",
    "parse_exposition", "samples_by_name",
]

#: the content type Prometheus expects for text format 0.0.4
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class ExpositionError(ValueError):
    """A line of exposition text violates the 0.0.4 grammar."""


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _sanitize_name(name: str) -> str:
    name = _SANITIZE_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    v = float(v)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_le(bound) -> str:
    if bound == "+Inf":
        return "+Inf"
    return _fmt_value(float(bound))


def _label_str(labels: Dict[str, str],
               extra: Optional[Tuple[str, str]] = None) -> str:
    items = [(k, str(v)) for k, v in sorted(labels.items())]
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{_sanitize_name(k)}="{_escape_label(v)}"'
                     for k, v in items)
    return "{" + inner + "}"


def render(registry) -> str:
    """The registry in text exposition format 0.0.4.

    Families (series sharing a name) are rendered contiguously under
    one HELP/TYPE header; the first series' help string wins.  A name
    registered with conflicting metric types (possible per label set)
    degrades to ``untyped`` raw values rather than lying about shape.
    """
    families: Dict[str, List] = {}
    order: List[str] = []
    for metric in registry.series():
        name = _sanitize_name(metric.name)
        if name not in families:
            families[name] = []
            order.append(name)
        families[name].append(metric)

    out: List[str] = []
    for name in order:
        members = families[name]
        types = {m.type_name for m in members}
        ftype = members[0].type_name if len(types) == 1 else "untyped"
        help_text = next((m.help for m in members if m.help), "")
        if help_text:
            out.append(f"# HELP {name} {_escape_help(help_text)}")
        out.append(f"# TYPE {name} {ftype}")
        for m in members:
            snap = m.snapshot()
            if ftype == "histogram":
                for bucket in snap["buckets"]:
                    out.append(
                        f"{name}_bucket"
                        f"{_label_str(m.labels, ('le', _fmt_le(bucket['le'])))}"
                        f" {_fmt_value(bucket['count'])}")
                out.append(f"{name}_sum{_label_str(m.labels)} "
                           f"{_fmt_value(snap['sum'])}")
                out.append(f"{name}_count{_label_str(m.labels)} "
                           f"{_fmt_value(snap['count'])}")
            else:
                out.append(f"{name}{_label_str(m.labels)} "
                           f"{_fmt_value(snap['value'])}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One parsed sample line."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)


@dataclass
class _Family:
    type: Optional[str] = None
    closed: bool = False  #: a later family started; reopening is an error
    samples: List[Sample] = field(default_factory=list)


def _parse_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"{where}: bad value {text!r}") from None


def _unescape_label(raw: str, where: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise ExpositionError(f"{where}: dangling escape")
            nxt = raw[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == '"':
                out.append('"')
            else:
                raise ExpositionError(f"{where}: bad escape \\{nxt}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(raw: str, where: str) -> Tuple[Tuple[str, str], ...]:
    """``name="value",...`` (no surrounding braces)."""
    labels: List[Tuple[str, str]] = []
    i, n = 0, len(raw)
    while i < n:
        j = raw.find("=", i)
        if j < 0:
            raise ExpositionError(f"{where}: label without '='")
        lname = raw[i:j].strip()
        if not _LABEL_RE.match(lname):
            raise ExpositionError(f"{where}: bad label name {lname!r}")
        if j + 1 >= n or raw[j + 1] != '"':
            raise ExpositionError(f"{where}: label value not quoted")
        # find the closing quote, honouring backslash escapes
        k = j + 2
        while k < n:
            if raw[k] == "\\":
                k += 2
                continue
            if raw[k] == '"':
                break
            k += 1
        if k >= n:
            raise ExpositionError(f"{where}: unterminated label value")
        labels.append((lname, _unescape_label(raw[j + 2:k], where)))
        i = k + 1
        if i < n:
            if raw[i] != ",":
                raise ExpositionError(f"{where}: expected ',' after label")
            i += 1
    if len(dict(labels)) != len(labels):
        raise ExpositionError(f"{where}: duplicate label name")
    return tuple(labels)


def _parse_sample(line: str, where: str) -> Sample:
    if "{" in line:
        brace = line.index("{")
        name = line[:brace]
        close = line.rfind("}")
        if close < brace:
            raise ExpositionError(f"{where}: unbalanced braces")
        labels = _parse_labels(line[brace + 1:close], where)
        rest = line[close + 1:].strip()
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ExpositionError(f"{where}: sample without value")
        name, rest = parts
        labels = ()
    if not _NAME_RE.match(name):
        raise ExpositionError(f"{where}: bad metric name {name!r}")
    fields = rest.split()
    if len(fields) not in (1, 2):  # optional trailing timestamp
        raise ExpositionError(f"{where}: trailing garbage {rest!r}")
    if len(fields) == 2:
        try:
            int(fields[1])
        except ValueError:
            raise ExpositionError(
                f"{where}: bad timestamp {fields[1]!r}") from None
    return Sample(name=name, labels=labels,
                  value=_parse_value(fields[0], where))


def _base_family(name: str, families: Dict[str, _Family]) -> str:
    """Histogram sample names resolve to their TYPEd base family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[:-len(suffix)]
            fam = families.get(base)
            if fam is not None and fam.type == "histogram":
                return base
    return name


def _check_histogram(name: str, fam: _Family) -> None:
    """Cumulative-bucket and sum/count invariants of one family."""
    by_child: Dict[Tuple, Dict] = {}
    for s in fam.samples:
        labels = dict(s.labels)
        le = labels.pop("le", None)
        child = by_child.setdefault(tuple(sorted(labels.items())),
                                    {"buckets": [], "sum": None,
                                     "count": None})
        if s.name == name + "_bucket":
            if le is None:
                raise ExpositionError(
                    f"histogram {name}: _bucket without le")
            child["buckets"].append((_parse_value(le, name), s.value))
        elif s.name == name + "_sum":
            child["sum"] = s.value
        elif s.name == name + "_count":
            child["count"] = s.value
        else:
            raise ExpositionError(
                f"histogram {name}: stray sample {s.name}")
    for key, child in by_child.items():
        buckets = sorted(child["buckets"])
        if not buckets or not math.isinf(buckets[-1][0]):
            raise ExpositionError(
                f"histogram {name}{dict(key)}: no +Inf bucket")
        counts = [c for _, c in buckets]
        if counts != sorted(counts):
            raise ExpositionError(
                f"histogram {name}{dict(key)}: buckets not cumulative")
        if child["sum"] is None or child["count"] is None:
            raise ExpositionError(
                f"histogram {name}{dict(key)}: missing _sum/_count")
        if counts[-1] != child["count"]:
            raise ExpositionError(
                f"histogram {name}{dict(key)}: +Inf bucket "
                f"({counts[-1]:g}) != _count ({child['count']:g})")


def parse_exposition(text: str) -> List[Sample]:
    """Parse (and validate) text exposition format 0.0.4.

    Returns every sample in document order.  Raises
    :class:`ExpositionError` on any grammar or invariant violation:
    malformed names/labels/escapes/values, a ``TYPE`` repeated or
    declared after its samples, an interleaved (non-contiguous)
    family, or a histogram family whose buckets are non-cumulative or
    inconsistent with ``_count``.
    """
    families: Dict[str, _Family] = {}
    current: Optional[str] = None
    samples: List[Sample] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise ExpositionError(
                        f"{where}: malformed # {parts[1]} line")
                name = parts[2]
                fam = families.setdefault(name, _Family())
                if parts[1] == "TYPE":
                    mtype = parts[3].strip() if len(parts) == 4 else ""
                    if mtype not in _TYPES:
                        raise ExpositionError(
                            f"{where}: unknown type {mtype!r}")
                    if fam.type is not None:
                        raise ExpositionError(
                            f"{where}: duplicate TYPE for {name}")
                    if fam.samples:
                        raise ExpositionError(
                            f"{where}: TYPE for {name} after its samples")
                    fam.type = mtype
            continue  # other comment lines are legal and ignored
        sample = _parse_sample(line, where)
        base = _base_family(sample.name, families)
        fam = families.setdefault(base, _Family())
        if current is not None and base != current:
            families[current].closed = True
        if fam.closed:
            raise ExpositionError(
                f"{where}: family {base} reappears after other families")
        current = base
        fam.samples.append(sample)
        samples.append(sample)

    for name, fam in families.items():
        if fam.type == "histogram" and fam.samples:
            _check_histogram(name, fam)
    return samples


def samples_by_name(samples: List[Sample]) -> Dict[str, List[Sample]]:
    """Group parsed samples: ``{sample_name: [samples...]}``."""
    out: Dict[str, List[Sample]] = {}
    for s in samples:
        out.setdefault(s.name, []).append(s)
    return out
