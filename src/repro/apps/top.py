"""``repro-top``: a live terminal dashboard over the telemetry plane.

Polls an ORB's ``/metrics`` endpoint (:meth:`ORB.enable_telemetry`),
parses the scrape with the strict exposition parser, and renders the
numbers an operator of the zero-copy ORB actually watches: invocation
throughput and latency quantiles, the deposit *tier mix* (how much of
the bulk data went over shm slots or kernel ``sendfile`` versus the
plain copy path), and arena/pool occupancy.  Rates come from the delta
between consecutive scrapes; latency quantiles are windowed the same
way (bucket deltas), so the display shows what is happening *now*, not
a lifetime average.

``repro-top --once URL`` prints a single snapshot (totals only — one
scrape has no rates) and exits; the default mode redraws every
``--interval`` seconds until interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import quantile_from_buckets
from ..obs.promexport import (ExpositionError, Sample, parse_exposition,
                              samples_by_name)
from ..obs.tables import format_table
from ..orb.connection import DEPOSIT_TIERS

__all__ = ["main", "Snapshot", "render", "fetch_snapshot"]


class Snapshot:
    """One parsed scrape, with the lookups the dashboard needs."""

    def __init__(self, samples: List[Sample], when: float):
        self.when = when
        self._by_name = samples_by_name(samples)

    def total(self, name: str, **labels: str) -> Optional[float]:
        """Sum of every sample of ``name`` whose labels include
        ``labels`` (series absent entirely -> None, not 0)."""
        rows = self._by_name.get(name)
        if rows is None:
            return None
        want = labels.items()
        vals = [s.value for s in rows
                if all(s.labels_dict.get(k) == v for k, v in want)]
        return sum(vals) if vals else None

    def label_values(self, name: str, label: str) -> List[str]:
        rows = self._by_name.get(name, [])
        return sorted({s.labels_dict[label] for s in rows
                       if label in s.labels_dict})

    def histogram(self, name: str) -> Tuple[List[float], List[int]]:
        """Merged ``(bounds, counts)`` for ``quantile_from_buckets``:
        cumulative bucket samples summed across label sets (e.g. per
        operation), then de-cumulated; +Inf count last."""
        by_le: Dict[float, float] = {}
        for s in self._by_name.get(f"{name}_bucket", []):
            le = float(s.labels_dict.get("le", "inf"))
            by_le[le] = by_le.get(le, 0.0) + s.value
        if not by_le:
            return [], []
        bounds = sorted(b for b in by_le if b != float("inf"))
        cumulative = [by_le[b] for b in bounds] + \
            [by_le.get(float("inf"), 0.0)]
        counts, prev = [], 0.0
        for c in cumulative:
            counts.append(int(c - prev))
            prev = c
        return bounds, counts


def fetch_snapshot(url: str, timeout: float = 5.0) -> Snapshot:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = resp.read().decode("utf-8")
    return Snapshot(parse_exposition(text), time.monotonic())


def _fmt(v: Optional[float], unit: str = "", per_s: bool = False) -> str:
    if v is None:
        return "-"
    suffix = f"{unit}/s" if per_s else unit
    if unit == "B":
        for scale, tag in ((1 << 30, "GiB"), (1 << 20, "MiB"),
                           (1 << 10, "KiB")):
            if abs(v) >= scale:
                return f"{v / scale:.1f} {tag}{'/s' if per_s else ''}"
        return f"{v:.0f} B{'/s' if per_s else ''}"
    tail = "" if not suffix else ("/s" if suffix == "/s"
                                  else f" {suffix}")
    if v == int(v) and not per_s:
        return f"{int(v)}{tail}"
    return f"{v:.1f}{tail}"


def _rate(cur: Snapshot, prev: Optional[Snapshot],
          name: str, **labels: str) -> Optional[float]:
    """Per-second delta of a (monotonic) series between two scrapes."""
    if prev is None:
        return None
    now_v, old_v = cur.total(name, **labels), prev.total(name, **labels)
    if now_v is None or old_v is None:
        return None
    dt = cur.when - prev.when
    return (now_v - old_v) / dt if dt > 0 else None


def _quantiles(cur: Snapshot, prev: Optional[Snapshot],
               name: str) -> List[Tuple[str, Optional[float]]]:
    """p50/p95/p99 of ``name`` — windowed between scrapes when a
    previous one exists, lifetime otherwise."""
    bounds, counts = cur.histogram(name)
    if not bounds:
        return []
    if prev is not None:
        p_bounds, p_counts = prev.histogram(name)
        if p_bounds == bounds:
            counts = [c - p for c, p in zip(counts, p_counts)]
            if any(c < 0 for c in counts) or not any(counts):
                counts = cur.histogram(name)[1]  # reset or idle window
    return [(f"p{int(q * 100)}", quantile_from_buckets(bounds, counts, q))
            for q in (0.5, 0.95, 0.99)]


def render(cur: Snapshot, prev: Optional[Snapshot] = None) -> str:
    """The dashboard text for one scrape (rates need ``prev``)."""
    out: List[str] = []
    uptime = cur.total("process_uptime_seconds")
    rss = cur.total("process_resident_memory_bytes")
    conns = cur.total("orb_connections")
    out.append(
        f"repro-top  up {_fmt(uptime, 's')}  rss {_fmt(rss, 'B')}  "
        f"threads {_fmt(cur.total('process_threads'))}  "
        f"conns {_fmt(conns)}")

    # a client ORB meters invocations_total / invocation_seconds; a
    # pure server only has the server_* equivalents — show whichever
    # side this endpoint is
    calls_series = "invocations_total" \
        if cur.total("invocations_total") is not None \
        else "server_requests_total"
    calls_label = "invocations" if calls_series == "invocations_total" \
        else "requests served"
    rows = [[label, _fmt(cur.total(series), unit),
             _fmt(_rate(cur, prev, series), unit, per_s=True)]
            for label, series, unit in (
                (calls_label, calls_series, ""),
                ("messages sent", "messages_sent", ""),
                ("bytes sent", "bytes_sent", "B"),
                ("bytes received", "bytes_received", "B"),
                ("deposit bytes sent", "deposit_bytes_sent", "B"),
                ("deposit bytes received", "deposit_bytes_received", "B"))]
    out.append("")
    out.append(format_table(["throughput", "total", "rate"], rows))

    deposits = cur.total("deposits_sent")
    tier_rows = []
    # what each tier carried (a subset indented under its parent),
    # then what each handed back to the copying path
    mix = [(f"  {t.label}" if t.subset_of else t.label, t.sent)
           for t in DEPOSIT_TIERS]
    mix += [(f"{t.label} fallback", t.fallback)
            for t in DEPOSIT_TIERS if t.fallback]
    for label, series in mix:
        v = cur.total(series)
        share = (f"{100 * v / deposits:.0f}%"
                 if v is not None and deposits else "-")
        tier_rows.append([label, _fmt(v), share,
                          _fmt(_rate(cur, prev, series), per_s=True)])
    tier_rows.append(["deposits (all tiers)", _fmt(deposits), "",
                      _fmt(_rate(cur, prev, "deposits_sent"), per_s=True)])
    out.append("")
    out.append(format_table(["deposit tier mix", "total", "share", "rate"],
                            tier_rows))

    occ_rows = []
    for direction in cur.label_values("arena_slots_total", "dir"):
        total = cur.total("arena_slots_total", dir=direction)
        free = cur.total("arena_slots_free", dir=direction)
        used = None if total is None or free is None else total - free
        occ_rows.append([f"arena slots [{direction}]",
                         f"{_fmt(used)}/{_fmt(total)} used"])
    occ_rows.append(["pool cached",
                     f"{_fmt(cur.total('pool_cached_bytes'), 'B')} in "
                     f"{_fmt(cur.total('pool_cached_buffers'))} buffers"])
    occ_rows.append(["pool hit/miss/reclaim",
                     f"{_fmt(cur.total('pool_hits'))}/"
                     f"{_fmt(cur.total('pool_misses'))}/"
                     f"{_fmt(cur.total('pool_reclaims'))}"])
    wq = cur.total("server_worker_queue")
    if wq is not None:
        occ_rows.append(["worker inflight/queued",
                         f"{_fmt(cur.total('server_worker_inflight'))}/"
                         f"{_fmt(wq)}"])
    out.append("")
    out.append(format_table(["buffers", "occupancy"], occ_rows,
                            align="ll"))

    lat_series = "invocation_seconds"
    quants = _quantiles(cur, prev, lat_series)
    if not quants:
        lat_series = "server_handle_seconds"
        quants = _quantiles(cur, prev, lat_series)
    if quants:
        window = "window" if prev is not None else "lifetime"
        line = "  ".join(
            f"{tag} {'-' if v is None else f'{v * 1e3:.3f}ms'}"
            for tag, v in quants)
        out.append("")
        name = "invocation" if lat_series == "invocation_seconds" \
            else "server handle"
        out.append(f"{name} latency ({window}): {line}")

    loop_tasks = cur.total("loop_tasks")
    if loop_tasks is not None:
        shards = cur.label_values("loop_tasks", "shard")
        lag = _quantiles(cur, prev, "loop_lag_seconds")
        window = "window" if prev is not None else "lifetime"
        lag_txt = "  ".join(
            f"{tag} {'-' if v is None else f'{v * 1e3:.3f}ms'}"
            for tag, v in lag) if lag else "-"
        out.append("")
        out.append(
            f"reactor: {len(shards) or 1} shard(s)  "
            f"{_fmt(loop_tasks)} loop tasks  "
            f"lag ({window}): {lag_txt}")

    recorded = cur.total("flightrec_recorded_total")
    if recorded is not None:
        out.append(
            f"flight recorder: {_fmt(recorded)} recorded, "
            f"{_fmt(cur.total('flightrec_slow_sampled'))} slow trees, "
            f"{_fmt(cur.total('flightrec_detail_dropped'))} "
            f"detail-dropped")
    return "\n".join(out)


def _normalize(url: str) -> str:
    if "://" not in url:
        url = f"http://{url}"
    return url if url.endswith("/metrics") \
        else url.rstrip("/") + "/metrics"


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-top",
        description="live dashboard over an ORB telemetry endpoint")
    ap.add_argument("url", help="telemetry endpoint, e.g. "
                                "127.0.0.1:9095 (path defaults to "
                                "/metrics)")
    ap.add_argument("--interval", type=float, default=2.0,
                    help="seconds between scrapes (default: %(default)s)")
    ap.add_argument("--once", action="store_true",
                    help="print one snapshot and exit")
    ap.add_argument("--timeout", type=float, default=5.0,
                    help="HTTP timeout per scrape (default: %(default)s)")
    args = ap.parse_args(argv)
    url = _normalize(args.url)

    prev: Optional[Snapshot] = None
    try:
        while True:
            try:
                cur = fetch_snapshot(url, timeout=args.timeout)
            except (urllib.error.URLError, OSError, ExpositionError) as e:
                print(f"repro-top: scrape of {url} failed: {e}",
                      file=sys.stderr)
                return 1
            text = render(cur, prev)
            if args.once:
                print(text)
                return 0
            # full-screen redraw; plain ANSI, no curses dependency
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            prev = cur
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
