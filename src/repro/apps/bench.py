"""``repro-bench``: the benchmark-trajectory pipeline in one command.

Runs the paper's headline benchmarks — the Fig. 5 and Fig. 6 TTCP
sweeps on the simulated 2003 testbed — plus a real-ORB latency probe,
and writes everything as one schema-versioned JSON document (by
convention ``BENCH_<tag>.json``).  CI runs this per PR and uploads the
file as an artifact, so the repository accumulates a throughput/latency
trajectory that future changes can be gated against.

Every section of the document is declared once, as an entry of
:data:`SECTIONS`: how it is measured and from which ``run_bench``
keywords and CLI flags, the shape the validator requires, the series
``--compare`` gates, the absolute invariants ``--section NAME`` checks,
its summary line and its gauges.  ``run_bench``, ``validate_bench``,
``compare_bench`` and ``main`` iterate that table.

The document is ``{"schema": 7, "kind": "bench", "tag": ..., "<section
name>": {...}, ...}`` with the sections in table order; README.md
("The bench document") spells out every key, and each section's
``check`` is the executable statement of the keys it must have.

A probe the host cannot run (``shm`` and ``pubsub`` without a usable
shared-memory filesystem, ``sendfile`` where ``os.sendfile`` is missing
or the kernel refuses it) *skips visibly*: it prints a notice, proves
the path it degrades to still carries traffic, and its section is
``{"skipped": true, "reason": "...", "degrade_path_ok": true, ...}``,
which the validator accepts only with both a reason and that proof.

Regression gating: ``repro-bench --compare OLD NEW [--tolerance R]``
fails (exit 1) when a gated series in NEW dropped below ``R`` times its
OLD value (:func:`compare_bench`); CI compares every PR's quick run
against the blessed ``BENCH_baseline.json`` at the repo root, and runs
``repro-bench --section NAME`` for the sections' absolute invariants.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from ..obs.metrics import Histogram, MetricsRegistry
from .ttcp import KB, MB, default_sizes, run_sim_ttcp

__all__ = ["BENCH_SCHEMA_VERSION", "Section", "SECTIONS", "run_bench",
           "measure_pipelining", "measure_shm", "measure_sgcdr",
           "measure_sendfile", "measure_pubsub", "measure_cscale",
           "validate_bench", "compare_bench", "format_compare",
           "render_figure", "main"]

BENCH_SCHEMA_VERSION = 7


# -- the declaration of one section -------------------------------------------

class Arg(NamedTuple):
    """One ``run_bench`` keyword a section's measure function takes."""

    #: the ``run_bench`` keyword (its default there is the default)
    key: str
    #: the measure function's parameter it feeds
    param: str
    #: the CLI flag that sets it (None: programmatic callers only)
    flag: Optional[str] = None
    #: flag text -> value
    parse: Callable = int
    #: value -> the value ``--quick`` runs with
    quick: Optional[Callable] = None
    help: Optional[str] = None
    choices: Optional[tuple] = None


def _none(*_recs) -> tuple:
    return ()


@dataclass(frozen=True)
class Section:
    """One section of the bench document, declared once."""

    name: str
    #: ``measure(**{arg.param: value})`` -> the section's record
    measure: Callable[..., dict]
    #: shape problems of a (non-skipped) record, as validator strings
    check: Callable[[dict], List[str]]
    args: Tuple[Arg, ...] = ()
    #: the record may be ``{"skipped": true, "reason", "degrade_path_ok"}``
    skippable: bool = False
    #: ``gate(old_rec, new_rec)`` -> ``(metric, old, new)`` per series
    #: ``--compare`` gates (never called with a skipped record)
    gate: Callable[[dict, dict], Iterable[tuple]] = _none
    #: ``--compare`` lists sections by (gate_rank, table order), which
    #: keeps the delta table's rows in the order they have always had
    gate_rank: int = 0
    #: ``(claim, holds(rec))``: the absolute invariants of a record
    #: (``--section`` exits 1 on one that does not hold)
    invariants: Tuple[Tuple[str, Callable[[dict], bool]], ...] = ()
    #: ``--section`` also fails when measuring grew the RSS this much
    rss_limit_mb: Optional[float] = None
    #: the lines ``main`` prints for a record
    summary: Callable[[dict], Iterable[str]] = _none
    #: ``(gauge name, labels, value)`` exported when a registry is given
    gauges: Callable[[dict], Iterable[tuple]] = _none


def _at_most(cap) -> Callable:
    return lambda value: min(value, cap)


def _int_list(text: str) -> tuple:
    return tuple(int(c) for c in text.split(",") if c.strip())


def _rows_lack(rows, *keys: str) -> bool:
    """True unless ``rows`` is a non-empty list of objects that each
    hold every one of ``keys``."""
    return not isinstance(rows, list) or not rows or any(
        not isinstance(r, dict) or any(k not in r for k in keys)
        for r in rows)


def _common(old_rows, new_rows, key: str,
            usable: Callable[[dict], bool] = bool) -> List[tuple]:
    """``(k, old_row, new_row)`` for every ``row[key]`` both documents
    hold (and ``usable`` accepts), ascending: all of it gates every
    common size, ``[-1:]`` the largest level both documents completed."""
    old_by, new_by = ({r[key]: r for r in rows or []
                       if isinstance(r, dict) and key in r and usable(r)}
                      for rows in (old_rows, new_rows))
    return [(k, old_by[k], new_by[k])
            for k in sorted(set(old_by) & set(new_by))]


def _ladder(name: str, headline: str, gated: str, *columns: str) -> tuple:
    """``(check, gate)`` of a section that is a ladder of ``sizes`` under
    a ``headline`` key: every row holds ``gated`` and ``columns``, and
    ``gated`` is compared at every size both documents swept."""
    def check(rec: dict) -> List[str]:
        if headline not in rec or _rows_lack(rec.get("sizes"), "size",
                                             gated, *columns):
            return [f"{name}.sizes: malformed rows"]
        return []

    def gate(old: dict, new: dict) -> List[tuple]:
        return [(f"{name}@{size}.{gated}", o.get(gated), n.get(gated))
                for size, o, n in _common(old.get("sizes"),
                                          new.get("sizes"), "size")]
    return check, gate


def _skip(probe: str, reason: str, degrade_path_ok: bool, **shape) -> dict:
    """The stanza of a probe this host cannot run: visible on stderr
    and in the document, with proof the path it degrades to works."""
    print(f"repro-bench: NOTICE: {reason}; skipping the {probe} probe",
          file=sys.stderr)
    return {**shape, "skipped": True, "reason": reason,
            "degrade_path_ok": degrade_path_ok}


def _skip_problems(name: str, rec: dict) -> List[str]:
    """A skipped probe needs a reason and a verified degrade path."""
    problems = []
    if not rec.get("reason"):
        problems.append(f"{name}: skipped without a reason")
    if rec.get("degrade_path_ok") is not True:
        problems.append(f"{name}: skipped but degrade path not verified")
    return problems


def _summary(section: Section, rec: dict) -> List[str]:
    if section.skippable and rec.get("skipped"):
        proof = "ok" if rec.get("degrade_path_ok") is True else "FAILED"
        return [f"{section.name}: SKIPPED ({rec.get('reason')}; degrade "
                f"path {proof})"]
    return list(section.summary(rec))


def _no_shm() -> Optional[str]:
    """Why this host cannot run a shared-memory probe (None: it can)."""
    from ..transport.shm import shm_available

    shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") \
        else tempfile.gettempdir()
    return None if shm_available(shm_dir) \
        else f"no usable shared memory at {shm_dir}"


@contextmanager
def _stream_pair(transport):
    """A connected ``(client, server)`` stream pair over ``transport``
    on loopback, closed with its listener on exit."""
    accepted: List = []
    ready = threading.Event()

    def on_accept(stream):
        accepted.append(stream)
        ready.set()

    listener = transport.listen("127.0.0.1", 0, on_accept)
    client = None
    try:
        client = transport.connect(listener.endpoint)
        if not ready.wait(5.0):
            raise RuntimeError("bench server did not accept")
        yield client, accepted[0]
    finally:
        for end in (client, *accepted, listener):
            if end is not None:
                end.close()


@contextmanager
def _orb_pair(servant, scheme: str, **server_config):
    """``(client ORB, stub)`` calling ``servant`` in a second ORB over
    ``scheme`` (never collocated); both ORBs shut down on exit."""
    from ..orb import ORB, ORBConfig

    server = ORB(ORBConfig(scheme=scheme, **server_config))
    client = ORB(ORBConfig(scheme=scheme, collocated_calls=False,
                           reactor=server.config.reactor))
    try:
        yield client, client.string_to_object(
            server.object_to_string(server.activate(servant)))
    finally:
        client.shutdown()
        server.shutdown()


# -- figures: the Fig. 5 / Fig. 6 sweeps on the simulated testbed -------------

#: the sim-mode curve matrix per figure: label -> (version, stack)
_FIGURES = {
    "fig5": {
        "raw/std": ("raw", "standard"),
        "corba/std": ("corba", "standard"),
    },
    "fig6_left": {
        "raw/std": ("raw", "standard"),
        "raw/zc": ("raw", "zero-copy"),
    },
    "fig6_right": {
        "corba/std": ("corba", "standard"),
        "corba/zc": ("corba", "zero-copy"),
        "zc-corba/std": ("zc-corba", "standard"),
        "zc-corba/zc": ("zc-corba", "zero-copy"),
    },
}
#: the fig6_right zc-corba curves gated by --compare, at these sizes
#: (falling back to the largest size both documents share)
_GATE_SIZES = (256 * KB, 1 * MB)
_GATE_CURVES = (("fig6_right", "zc-corba/std"), ("fig6_right", "zc-corba/zc"))


def _measure_figures(max_size: int = 16 * MB) -> dict:
    sizes = default_sizes(hi=max_size)
    return {fig: {label: [{"size": p.size,
                           "mbit_per_s": round(p.mbit_per_s, 3)}
                          for p in run_sim_ttcp(version, stack=stack,
                                                sizes=sizes).points]
                  for label, (version, stack) in curves.items()}
            for fig, curves in _FIGURES.items()}


def _check_figures(figures: dict) -> List[str]:
    problems = []
    for fig in _FIGURES:
        curves = figures.get(fig)
        if not isinstance(curves, dict) or not curves:
            problems.append(f"figures.{fig}: missing or empty")
            continue
        problems += [f"figures.{fig}.{label}: malformed points"
                     for label, rows in curves.items()
                     if _rows_lack(rows, "size", "mbit_per_s")]
    return problems


def _gate_figures(old: dict, new: dict):
    for fig, label in _GATE_CURVES:
        common = _common((old.get(fig) or {}).get(label),
                         (new.get(fig) or {}).get(label), "size",
                         usable=lambda r: "mbit_per_s" in r)
        at_gate_sizes = [c for c in common if c[0] in _GATE_SIZES]
        for size, o, n in at_gate_sizes or common[-1:]:
            # the documents store Mbit/s; the gate reports bytes/s
            yield (f"{fig}.{label}@{size}.bytes_per_s",
                   round(o["mbit_per_s"] * 1e6 / 8, 1),
                   round(n["mbit_per_s"] * 1e6 / 8, 1))


def _gauges_figures(figures: dict):
    # saturation: throughput at the largest measured size
    return [("bench_saturation_mbit", {"figure": fig, "curve": label},
             rows[-1]["mbit_per_s"])
            for fig, curves in figures.items()
            for label, rows in curves.items()]


# -- latency: per-call wall time through the real ORB -------------------------

def _measure_latency(scheme: str = "loop", size: int = 64 * KB,
                     calls: int = 50) -> dict:
    """Per-call wall-time percentiles, copying and zero-copy ORB, from
    a :class:`repro.obs.Histogram` (the bucket-interpolation estimator
    ``repro-metrics summary`` applies to exported dumps)."""
    from ..core import OctetSequence, ZCOctetSequence
    from .ttcp import _TTCPServant, _ttcp_api

    _ttcp_api()
    out = {}
    for version, wrap in (("corba", OctetSequence),
                          ("zc-corba", ZCOctetSequence.from_data)):
        hist = Histogram(f"bench_latency_{version}", {},
                         help="per-call wall seconds")
        with _orb_pair(_TTCPServant(), scheme) as (_, stub):
            send = stub.send_zc if version == "zc-corba" else stub.send
            payload_bytes = bytes(size)
            for _ in range(calls):
                payload = wrap(payload_bytes)
                t0 = time.perf_counter()
                send(payload)
                hist.observe(time.perf_counter() - t0)
        out[version] = {"size": size, "count": hist.count,
                        "mean_s": hist.sum / max(hist.count, 1),
                        **(hist.percentiles() or {})}
    return out


def _check_latency(latency: dict) -> List[str]:
    problems = []
    for version, rec in latency.items():
        for key in ("size", "count", "p50", "p95", "p99"):
            if not isinstance(rec, dict) or key not in rec:
                problems.append(f"latency.{version}: missing {key!r}")
                break
    return problems


def _summary_latency(latency: dict):
    return [f"{version}: {rec['count']} calls of {rec['size']} B  "
            f"p50={rec.get('p50', 0) * 1e3:.3f}ms  "
            f"p95={rec.get('p95', 0) * 1e3:.3f}ms  "
            f"p99={rec.get('p99', 0) * 1e3:.3f}ms"
            for version, rec in latency.items()]


# -- pipelining: 1-vs-N in flight on one connection ---------------------------

@functools.lru_cache(maxsize=None)
def _pipe_api():
    from ..idl import compile_idl
    return compile_idl(
        "interface BenchPipe { double work(in double seconds); };",
        module_name="_bench_pipe_idl")


def _pipe_servant():
    """A servant that sleeps ``seconds`` per call (releasing the GIL,
    like any real I/O- or compute-offloading upcall)."""
    class _Servant(_pipe_api().BenchPipe_skel):
        def work(self, seconds):
            if seconds:
                time.sleep(seconds)
            return seconds

    return _Servant()


def measure_pipelining(scheme: str = "loop", inflight: int = 8,
                       calls: int = 32, work_s: float = 0.01) -> dict:
    """1-vs-N in-flight throughput on ONE connection.

    The servant sleeps ``work_s`` per call, so the measurement isolates
    the multiplexing win: with serialized calls the wall time is
    ``calls * work_s``; with N in flight the server's worker pool
    overlaps the sleeps.  ``speedup`` is the N-in-flight throughput
    over serialized, the headline number of the multiplexing layer.
    """
    from concurrent.futures import ThreadPoolExecutor

    levels = []
    with _orb_pair(_pipe_servant(), scheme,
                   server_workers=inflight) as (_, stub):
        stub.work(0.0)  # connect + warm the path outside the timing
        for level in (1, inflight):
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=level) as pool:
                list(pool.map(lambda _: stub.work(work_s), range(calls)))
            seconds = time.perf_counter() - t0
            levels.append({"inflight": level, "calls": calls,
                           "seconds": round(seconds, 6),
                           "calls_per_s": round(calls / seconds, 3)})
    speedup = levels[-1]["calls_per_s"] / levels[0]["calls_per_s"]
    return {"work_s": work_s, "speedup": round(speedup, 3),
            "levels": levels}


def _measure_pipelining(inflight: int = 8, calls: int = 32) -> dict:
    return {scheme: measure_pipelining(scheme, inflight=inflight,
                                       calls=calls)
            for scheme in ("loop", "tcp")}


def _check_pipelining(pipelining: dict) -> List[str]:
    return [f"pipelining.{scheme}: malformed"
            for scheme, rec in pipelining.items()
            if not isinstance(rec, dict) or "speedup" not in rec
            or _rows_lack(rec.get("levels"), "inflight", "calls_per_s")]


def _gate_pipelining(old: dict, new: dict):
    for scheme in sorted(set(old) & set(new)):
        yield (f"pipelining.{scheme}.speedup",
               (old[scheme] or {}).get("speedup"),
               (new[scheme] or {}).get("speedup"))


def _summary_pipelining(pipelining: dict):
    return [f"pipelining/{scheme}: {rec['levels'][-1]['inflight']} in "
            f"flight {rec['levels'][-1]['calls_per_s']:.0f} calls/s "
            f"({rec['speedup']:.1f}x over serialized)"
            for scheme, rec in pipelining.items()]


# -- sgcdr: scatter/gather CDR encode vs blob mode ----------------------------

def measure_sgcdr(sizes=(64 * KB, 256 * KB, 1 * MB),
                  repeats: int = 5) -> dict:
    """Marshal throughput (MB/s): chunk-plan encoder vs blob mode.

    Marshals a ``sequence<ZC_Octet>`` payload inline (no deposit
    registry, the worst case for the encoder) and consumes the result
    the way the send path does: the blob baseline joins to one
    contiguous buffer (``sg_min_chunk`` above every payload size
    reproduces the pre-scatter/gather encoder, join included); the
    scatter/gather mode hands over the chunk plan with no join.  The
    ``improvement`` column is the PR's acceptance metric.
    """
    from ..cdr.encoder import SG_MIN_CHUNK, CDREncoder
    from ..cdr.marshal import get_marshaller
    from ..cdr.typecode import zc_octet_sequence_tc
    from ..core.sequences import ZCOctetSequence

    m = get_marshaller(zc_octet_sequence_tc())
    rows: List[dict] = []
    for size in sizes:
        payload = ZCOctetSequence.from_data(bytes(size))
        iters = max(1, (8 * MB) // size)

        def mb_per_s(sg_min: int, _p=payload, _n=iters, _size=size) -> float:
            blob_mode = sg_min > _size
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(_n):
                    enc = CDREncoder(sg_min_chunk=sg_min)
                    m.marshal(enc, _p)
                    if blob_mode:
                        enc.getvalue()  # the pre-chunking send joined
                    else:
                        enc.chunks()    # the gather send takes the plan
                best = min(best, time.perf_counter() - t0)
            return _size * _n / best / 1e6

        blob = mb_per_s(1 << 62)
        sg = mb_per_s(SG_MIN_CHUNK)
        rows.append({"size": size,
                     "blob_mb_per_s": round(blob, 1),
                     "sg_mb_per_s": round(sg, 1),
                     "improvement": round(sg / blob, 3)})
    return {"repeats": repeats, "sizes": rows,
            "min_improvement": min(r["improvement"] for r in rows)}


def _summary_sgcdr(sgcdr: dict):
    return [f"sgcdr: {row['size']} B encode "
            f"{row['sg_mb_per_s']:.0f} MB/s chunked vs "
            f"{row['blob_mb_per_s']:.0f} MB/s blob "
            f"({row['improvement']:.1f}x)" for row in sgcdr["sizes"]]


# -- sendfile: kernel disk-to-socket vs the copying fallback ------------------

def _discard(sock, n: int, _buf=bytearray(1 * MB)) -> int:
    """Consume up to ``n`` queued bytes as cheaply as the platform
    allows: Linux TCP ``MSG_TRUNC`` drops them in the kernel (no
    copy-out), so the receiver never bottlenecks the send path being
    measured; elsewhere fall back to an ordinary ``recv_into``."""
    import socket

    trunc = getattr(socket, "MSG_TRUNC", None)
    if trunc is not None and sys.platform == "linux":
        try:
            return len(sock.recv(n, trunc))
        except OSError:
            pass
    return sock.recv_into(memoryview(_buf)[:min(n, len(_buf))])


def _sendfile_run(client, server, fd, size: int, transfers: int,
                  repeats: int) -> float:
    """Best bytes/s over ``repeats`` timings of ``transfers``
    back-to-back ``send_file`` calls of ``size`` bytes each.

    One persistent drain thread serves every repeat (thread startup
    would otherwise dominate single-digit-millisecond transfers) and
    signals each repeat's boundary once its bytes are fully consumed.
    """
    import queue

    per_repeat = size * transfers
    boundaries: "queue.Queue" = queue.Queue()

    def drain():
        sock = server._sock
        for _ in range(repeats):
            remaining = per_repeat
            while remaining:
                remaining -= _discard(sock, min(remaining, 4 * MB))
            boundaries.put(None)

    rx = threading.Thread(target=drain, daemon=True)
    rx.start()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(transfers):
            client.send_file(fd, 0, size)
        boundaries.get(timeout=120.0)
        best = min(best, time.perf_counter() - t0)
    rx.join()
    return per_repeat / best


def _sendfile_degrade_check() -> bool:
    """The copying fallback must still move bytes, byte-identically."""
    from ..transport.tcp import TCPTransport

    with tempfile.NamedTemporaryFile() as tf, \
            _stream_pair(TCPTransport()) as (client, server):
        data = os.urandom(256 * KB)
        tf.write(data)
        tf.flush()
        client.sendfile_enabled = False
        got = bytearray(len(data))
        rx = threading.Thread(
            target=lambda: server.recv_into(memoryview(got)), daemon=True)
        rx.start()
        used_kernel = client.send_file(tf.fileno(), 0, len(data))
        rx.join(timeout=30.0)
        return used_kernel is False and bytes(got) == data


def measure_sendfile(sizes=(1 * MB, 4 * MB, 16 * MB),
                     repeats: int = 5, transfers: int = 4) -> dict:
    """Disk-to-socket throughput: kernel sendfile vs copying fallback.

    Streams a file over a real TCP loopback pair twice per size: once
    through ``TCPStream.send_file``'s ``os.sendfile`` tier (the file
    bytes never enter user space on the send side) and once with the
    tier disabled, forcing the chunked ``os.pread`` + ``sendall``
    fallback — the pre-PR behaviour.  Each timing covers ``transfers``
    back-to-back sends and the receiver discards in the kernel
    (``MSG_TRUNC``), so the number isolates the send path.
    Best-of-``repeats`` each; ``speedup`` per row is the acceptance
    metric, ``speedup_at_max`` the headline at the largest size.
    """
    from ..transport.tcp import TCPTransport

    def skipped(reason: str) -> dict:
        return _skip("sendfile", reason, _sendfile_degrade_check(),
                     repeats=0, sizes=[])

    if not hasattr(os, "sendfile"):
        return skipped("os.sendfile not available")

    # one pseudo-random block, tiled: content-independent timing with
    # cheap file creation even at the 64 MiB nightly sweep sizes
    block = os.urandom(1 * MB)
    rows: List[dict] = []
    with tempfile.NamedTemporaryFile() as tf:
        for _ in range(max(sizes) // len(block)):
            tf.write(block)
        tf.flush()
        fd = tf.fileno()

        # probe: does this kernel actually sendfile to a socket?
        with _stream_pair(TCPTransport()) as (client, server):
            rx = threading.Thread(
                target=lambda: server.recv_exact(4096), daemon=True)
            rx.start()
            probe = client.send_file(fd, 0, 4096)
            rx.join(timeout=10.0)
        if probe is not True:
            return skipped("kernel refused sendfile on TCP")

        for size in sizes:
            per_mode = {}
            for mode, enabled in (("sendfile", True), ("copy", False)):
                with _stream_pair(TCPTransport()) as (client, server):
                    client.sendfile_enabled = enabled
                    per_mode[mode] = _sendfile_run(
                        client, server, fd, size, transfers,
                        repeats) / 1e6
            rows.append({
                "size": size,
                "sendfile_mb_per_s": round(per_mode["sendfile"], 1),
                "copy_mb_per_s": round(per_mode["copy"], 1),
                "speedup": round(per_mode["sendfile"] / per_mode["copy"],
                                 3)})
    return {"repeats": repeats, "sizes": rows,
            "speedup_at_max": rows[-1]["speedup"]}


def _sendfile_ladder(max_size: str) -> tuple:
    """``--sendfile-max-size``: the 1-4-16-64 MiB ladder clipped to it."""
    return tuple(s for s in (1 * MB, 4 * MB, 16 * MB, 64 * MB)
                 if s <= max(int(max_size), 1 * MB))


def _summary_sendfile(sendfile: dict):
    return [f"sendfile: {row['size']} B disk-to-socket "
            f"{row['sendfile_mb_per_s']:.0f} MB/s kernel vs "
            f"{row['copy_mb_per_s']:.0f} MB/s copy "
            f"({row['speedup']:.1f}x)" for row in sendfile["sizes"]]


# -- shm: arena deposits vs tcp loopback --------------------------------------

def _shm_degrade_check() -> bool:
    """An arena-less shm connection must still pass control traffic."""
    from ..transport.shm import ShmTransport

    # a directory no arena can be created in forces the handshake's
    # symmetric degrade on both ends
    transport = ShmTransport(directory="/nonexistent/repro-shm-degrade")
    with _stream_pair(transport) as (client, server):
        if client.deposit_channel is not None \
                or server.deposit_channel is not None:
            return False
        client.send(b"degrade-probe")
        return server.recv_exact(13).tobytes() == b"degrade-probe"


def measure_shm(size: int = 1 * MB, repeats: int = 5,
                transfers: int = 16) -> dict:
    """Deposit-path throughput: shm arena vs tcp loopback (schema 3).

    Times ``transfers`` back-to-back deposits of ``size`` bytes through
    a connected stream pair — the data plane alone, no GIOP control
    round-trip — so the number isolates what the arena buys.  The shm
    path is one copy into a mapped slot and the receiver lands
    zero-copy; the tcp-loopback path pays copy-to-kernel + copy-out
    plus per-chunk syscalls.  Best-of-``repeats``; the shm stream's own
    deposit/fallback counters are recorded so the document proves the
    arena (not the inline fallback) carried the bytes.
    """
    from ..core.buffers import BufferPool
    from ..core.direct_deposit import DepositDescriptor
    from ..transport.shm import ShmTransport
    from ..transport.tcp import TCPTransport

    reason = _no_shm()
    if reason:
        return _skip("shm deposit", reason, _shm_degrade_check(),
                     size=size, repeats=0, transfers=0, schemes={})

    schemes: Dict[str, dict] = {}
    for scheme in ("shm", "tcp"):
        # a long slot wait: exhaustion must block for a free slot,
        # never fall back, or the measurement stops being zero-copy
        transport = ShmTransport(slot_size=size, slot_wait=10.0) \
            if scheme == "shm" else TCPTransport()
        pool = BufferPool()
        payload = memoryview(bytes(size))
        desc = DepositDescriptor(deposit_id=1, size=size)
        best = float("inf")
        with _stream_pair(transport) as (client, server):
            for _ in range(repeats):
                done = threading.Event()

                def drain(_s=server, _d=done):
                    for _ in range(transfers):
                        if scheme == "shm":
                            buf, _ = _s.recv_deposit(desc, pool)
                        else:
                            buf = pool.acquire(size)
                            _s.recv_into(buf.view()[:size])
                        buf.release()
                    _d.set()

                rx = threading.Thread(target=drain, daemon=True)
                rx.start()
                t0 = time.perf_counter()
                for _ in range(transfers):
                    if scheme == "shm":
                        client.send_deposit(payload)
                    else:
                        client.sendv([payload])
                if not done.wait(60.0):
                    raise RuntimeError("bench receiver stalled")
                best = min(best, time.perf_counter() - t0)
                rx.join()
            moved = transfers * size
            rec = {"seconds_best": round(best, 6),
                   "bytes_per_s": round(moved / best, 1),
                   "mbit_per_s": round(moved * 8 / best / 1e6, 3)}
            if scheme == "shm":
                rec["shm_deposits_total"] = (client.shm_deposits_sent
                                             + client.shm_references_sent)
                rec["shm_fallbacks_total"] = client.shm_fallbacks_sent
        schemes[scheme] = rec
    speedup = schemes["shm"]["bytes_per_s"] / schemes["tcp"]["bytes_per_s"]
    return {"size": size, "repeats": repeats, "transfers": transfers,
            "speedup": round(speedup, 3), "schemes": schemes}


def _check_shm(shm: dict) -> List[str]:
    if "speedup" not in shm:
        return ["'shm' missing or malformed"]
    schemes = shm.get("schemes")
    if not isinstance(schemes, dict):
        return ["shm.schemes: missing"]
    problems = [f"shm.schemes.{scheme}: malformed"
                for scheme in ("shm", "tcp")
                if not isinstance(schemes.get(scheme), dict)
                or "bytes_per_s" not in schemes[scheme]]
    if isinstance(schemes.get("shm"), dict) \
            and "shm_deposits_total" not in schemes["shm"]:
        problems.append("shm.schemes.shm: missing shm_deposits_total")
    return problems


def _summary_shm(shm: dict):
    rec = shm["schemes"]["shm"]
    return [f"shm: {shm['size']} B deposit {rec['mbit_per_s']:.0f} Mbit/s "
            f"({shm['speedup']:.1f}x over tcp loopback, "
            f"{rec['shm_deposits_total']} arena deposits, "
            f"{rec['shm_fallbacks_total']} fallbacks)"]


# -- pubsub: single-copy fan-out vs one deposit per link ----------------------

def _pubsub_round(mode: str, subs: int, size: int, events: int) -> dict:
    """One fan-out measurement: a TopicHub publishing ``events``
    payloads of ``size`` bytes to ``subs`` subscribers whose callback
    ORBs listen on ``mode`` ("shm" = the single-copy shared-arena
    cohort, "tcp" = one deposit per subscriber link)."""
    from ..orb import ORB, ORBConfig
    from ..services import CountingSubscriber, TopicHubImpl

    page = 4096
    slot = max(page, (size + page - 1) // page * page)
    hub = TopicHubImpl(slot_size=slot, slot_count=16, slot_wait=5.0)
    orbs, impls = [], []
    try:
        for _ in range(subs):
            orb = ORB(ORBConfig(scheme=mode))
            orbs.append(orb)
            impl = CountingSubscriber()
            impls.append(impl)
            hub.subscribe("bench", orb.activate(impl))
        payload = bytes(size)
        want = events * subs
        t0 = time.perf_counter()
        delivered = 0
        for _ in range(events):
            delivered += hub.publish("bench", payload)
        # deliver is oneway: the publish loop returns as soon as the
        # records are on the wire — the clock stops when the last
        # subscriber has actually counted its event
        deadline = time.monotonic() + 60.0
        while sum(i.received for i in impls) < want:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"pubsub bench stalled: "
                    f"{sum(i.received for i in impls)}/{want} delivered")
            time.sleep(0.0005)
        elapsed = time.perf_counter() - t0
        if delivered != want:
            raise RuntimeError(
                f"pubsub bench lost deliveries: {delivered}/{want}")
        rec = {"seconds": round(elapsed, 6),
               "events_per_s": round(events / elapsed, 1),
               "delivered_bytes_per_s": round(want * size / elapsed, 1)}
        if mode == "shm":
            rec["fanout_posts"] = hub.fanout_posts
            rec["fanout_fallbacks"] = hub.fanout_fallbacks
            rec["shared_refs"] = sum(
                s["shm_shared_refs"]
                for s in hub.delivery_orb.connections_snapshot())
        return rec
    finally:
        hub.destroy()
        for orb in orbs:
            orb.shutdown()


def measure_pubsub(size: int = 1 * MB, events: int = 20,
                   subs_counts=(1, 2, 4, 8)) -> dict:
    """TopicHub fan-out throughput: shared-arena vs per-link (schema 7).

    For each subscriber count the same publish loop runs twice: once
    with every subscriber colocated on the shm cohort (one refcounted
    arena post per event, a 24-byte record per link) and once with
    tcp-only subscribers (one full deposit per link — copies scale with
    fan-out, the pre-hub behaviour).  ``speedup`` is the shm/tcp
    events-per-second ratio at each level; the shm stanza also records
    ``fanout_posts`` and ``shared_refs`` so the document *proves* the
    payload crossed once per event, not once per subscriber.
    """
    reason = _no_shm()
    if reason:
        tcp = _pubsub_round("tcp", 2, min(size, 64 * KB), 2)
        return _skip("pubsub fan-out", reason, tcp["events_per_s"] > 0,
                     size=size, events=0, levels=[])

    levels = []
    for subs in subs_counts:
        shm = _pubsub_round("shm", subs, size, events)
        tcp = _pubsub_round("tcp", subs, size, events)
        speedup = shm["events_per_s"] / tcp["events_per_s"] \
            if tcp["events_per_s"] else float("inf")
        levels.append({"subs": subs, "shm": shm, "tcp": tcp,
                       "speedup": round(speedup, 3)})
    return {"size": size, "events": events, "levels": levels,
            "speedup_at_max": levels[-1]["speedup"]}


def _check_pubsub(pubsub: dict) -> List[str]:
    levels = pubsub.get("levels")
    if "speedup_at_max" not in pubsub \
            or not isinstance(levels, list) or not levels:
        return ["'pubsub' missing or malformed"]
    problems = []
    for lv in levels:
        if _rows_lack([lv], "subs", "speedup") or any(
                not isinstance(lv.get(m), dict)
                or "events_per_s" not in lv[m] for m in ("shm", "tcp")):
            subs = lv.get("subs", "?") if isinstance(lv, dict) else "?"
            problems.append(f"pubsub.levels@{subs}: malformed")
        elif "fanout_posts" not in lv["shm"] \
                or "shared_refs" not in lv["shm"]:
            problems.append(f"pubsub.levels@{lv['subs']}: shm stanza "
                            "missing single-copy accounting")
    return problems


def _gate_pubsub(old: dict, new: dict):
    # quick runs sweep fewer levels: the largest fan-out both swept
    for subs, o, n in _common(old.get("levels"), new.get("levels"),
                              "subs")[-1:]:
        yield (f"pubsub@{subs}.shm_events_per_s",
               (o.get("shm") or {}).get("events_per_s"),
               (n.get("shm") or {}).get("events_per_s"))
        yield f"pubsub@{subs}.speedup", o.get("speedup"), n.get("speedup")


def _summary_pubsub(pubsub: dict):
    return [f"pubsub: {lv['subs']} subs "
            f"{lv['shm']['events_per_s']:.0f} ev/s shm "
            f"({lv['shm']['fanout_posts']} posts, "
            f"{lv['shm']['shared_refs']} shared refs) vs "
            f"{lv['tcp']['events_per_s']:.0f} ev/s tcp "
            f"({lv['speedup']:.2f}x)" for lv in pubsub["levels"]]


# -- cscale: reactor vs thread-per-connection --------------------------------

#: an echo round-trip slower than this at the p99 counts as a degraded
#: mode in the cscale sweep (the "baseline fails the SLO" acceptance arm)
CSCALE_P99_SLO_S = 0.5


def _quantile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1,
                           int(q * len(sorted_vals)))]


def _nofile_headroom(need: int) -> Optional[str]:
    """Raise RLIMIT_NOFILE toward the hard limit; a reason string when
    even that leaves fewer than ``need`` descriptors (the caller skips
    that sweep level visibly instead of drowning in EMFILE)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        want = need if hard == resource.RLIM_INFINITY \
            else min(need, hard)
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
        except (ValueError, OSError):
            pass
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        return (f"RLIMIT_NOFILE {soft} (hard {hard}) below the "
                f"~{need} descriptors this level needs")
    return None


@contextmanager
def _cscale_rig(reactor_on: bool, conns: int, work_s: float):
    """``(proxies, call)`` for one cscale mode: ``conns`` fresh
    single-connection proxies (never the ORB's shared one: the sweep
    needs C *distinct* sockets) to an echo servant, and the
    ``(args, kwargs)`` of one ``invoke`` / ``invoke_async`` on them.
    Both ORBs live in this process; ``reactor_on`` selects event-loop
    adoption on *both* sides versus thread-per-connection."""
    from ..orb import InvocationPolicy

    with _orb_pair(_pipe_servant(), "tcp", reactor=reactor_on,
                   server_workers=16) as (client, stub):
        profile = client.select_profile(stub._ior)
        proxies = [client._new_proxy(profile.endpoint) for _ in range(conns)]
        try:
            yield proxies, (
                (profile.object_key, stub._signature("work"), [work_s]),
                {"policy": InvocationPolicy(timeout=120.0, max_retries=0,
                                            jitter=0.0)})
        finally:
            for proxy in proxies:
                try:
                    proxy.close(timeout=0.05)
                except Exception:
                    pass


def _cscale_record(lat_lists: List[List[float]], wall: float,
                   expected: int, errors: List) -> dict:
    lats = sorted(x for lst in lat_lists for x in lst)
    completed = len(lats)
    p50 = _quantile(lats, 0.50)
    p99 = _quantile(lats, 0.99)
    rec = {"ok": not errors and completed == expected,
           "completed": completed, "expected": expected,
           "goodput_calls_per_s": round(completed / wall, 1)
           if wall > 0 else 0.0,
           "p50_s": round(p50, 6), "p99_s": round(p99, 6),
           "slo_ok": bool(completed) and p99 <= CSCALE_P99_SLO_S}
    if errors:
        rec["reason"] = (f"{len(errors)} calls failed "
                         f"(first: {errors[0]!r:.120})")
    elif completed < expected:
        rec["reason"] = (f"only {completed}/{expected} replies "
                         f"arrived before the join deadline")
    return rec


def _cscale_threaded(conns: int, calls_per_conn: int,
                     work_s: float) -> dict:
    """The baseline: C sockets, each with a sync driver thread and a
    demux reader thread client-side plus a reader thread server-side —
    ~3C threads total, the cost the reactor removes."""
    lat_lists: List[List[float]] = [[] for _ in range(conns)]
    errors: List = []
    start = threading.Event()
    warmed = threading.Semaphore(0)
    abort = False

    def drive(proxy, lats):
        # one untimed call dials the socket and warms the GIOP path,
        # so the timed window below measures steady-state concurrency,
        # not connection-establishment queuing
        try:
            proxy.invoke(*args, **kwargs)
        except Exception as e:
            errors.append(e)
            warmed.release()
            return
        warmed.release()
        start.wait()
        if abort:
            return
        for _ in range(calls_per_conn):
            t0 = time.perf_counter()
            try:
                proxy.invoke(*args, **kwargs)
            except Exception as e:
                errors.append(e)
                return
            lats.append(time.perf_counter() - t0)

    threads: List[threading.Thread] = []
    with _cscale_rig(False, conns, work_s) as (proxies, (args, kwargs)):
        try:
            for proxy, lats in zip(proxies, lat_lists):
                t = threading.Thread(target=drive, args=(proxy, lats),
                                     daemon=True)
                t.start()
                threads.append(t)
        except (RuntimeError, MemoryError, OSError) as e:
            # the honest baseline failure mode at high C: the host
            # cannot stack that many driver threads
            abort = True
            start.set()
            return {"ok": False, "completed": 0,
                    "expected": conns * calls_per_conn,
                    "reason": (f"thread creation failed after "
                               f"{len(threads)} of {conns} "
                               f"connections: {e}")}
        deadline = time.monotonic() + 300.0
        for _ in threads:
            warmed.acquire(timeout=max(0.0,
                                       deadline - time.monotonic()))
        t0 = time.perf_counter()
        start.set()
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        wall = time.perf_counter() - t0
    return _cscale_record(lat_lists, wall, conns * calls_per_conn,
                          errors)


def _cscale_reactor(conns: int, calls_per_conn: int,
                    work_s: float) -> dict:
    """The reactor mode: C sockets adopted by the event loop on both
    sides, driven by C coroutines on one ``asyncio.run`` loop — no
    per-connection thread anywhere."""
    import asyncio

    lat_lists: List[List[float]] = [[] for _ in range(conns)]
    errors: List = []

    async def warm(proxy):
        # untimed: dial + GIOP warmup, mirroring the threaded driver
        try:
            await proxy.invoke_async(*args, **kwargs)
        except Exception as e:
            errors.append(e)

    async def drive(proxy, lats):
        for _ in range(calls_per_conn):
            t0 = time.perf_counter()
            try:
                await proxy.invoke_async(*args, **kwargs)
            except Exception as e:
                errors.append(e)
                return
            lats.append(time.perf_counter() - t0)

    async def run_all():
        await asyncio.gather(*(warm(p) for p in proxies))
        t0 = time.perf_counter()
        await asyncio.gather(*(drive(p, lst)
                               for p, lst in zip(proxies, lat_lists)))
        return time.perf_counter() - t0

    with _cscale_rig(True, conns, work_s) as (proxies, (args, kwargs)):
        wall = asyncio.run(run_all())
    return _cscale_record(lat_lists, wall, conns * calls_per_conn,
                          errors)


def measure_cscale(conn_counts=(100, 1000), calls_per_conn: int = 5,
                   work_s: float = 0.0,
                   threaded_conn_cap: int = 2000) -> dict:
    """Concurrent-connection scaling: reactor vs thread-per-connection.

    For each level C the probe opens C distinct GIOP connections to an
    echo servant and drives ``calls_per_conn`` pipelined calls on each,
    once per mode (``_cscale_threaded``, ``_cscale_reactor``), after
    one *untimed* warm-up call per connection.
    ``goodput_calls_per_s`` is total completed calls over the wall
    time, p50/p99 the per-call round-trip quantiles, and ``speedup``
    the reactor/threaded goodput ratio — the tentpole acceptance
    metric at 1k+ connections.

    Above ``threaded_conn_cap`` the baseline is recorded as not
    attempted (its ~3C threads would destabilise the host rather than
    produce a number); the reactor side still runs, which is itself
    the claim: it completes where the baseline cannot.  Levels the
    file-descriptor budget cannot cover (even after raising the soft
    RLIMIT_NOFILE to the hard limit) are skipped visibly per level.
    """
    levels: List[dict] = []
    for conns in conn_counts:
        reason = _nofile_headroom(2 * conns + 64)
        if reason:
            print(f"repro-bench: NOTICE: cscale@{conns}: {reason}; "
                  f"skipping this level", file=sys.stderr)
            levels.append({"conns": conns, "skipped": True,
                           "reason": reason})
            continue
        if conns <= threaded_conn_cap:
            threaded = _cscale_threaded(conns, calls_per_conn, work_s)
        else:
            threaded = {"ok": False, "completed": 0,
                        "expected": conns * calls_per_conn,
                        "reason": (f"not attempted: {conns} connections "
                                   f"need ~{3 * conns} threads, past the "
                                   f"{threaded_conn_cap}-connection "
                                   f"threaded cap")}
        reactor = _cscale_reactor(conns, calls_per_conn, work_s)
        speedup = None
        if threaded.get("ok") and reactor.get("ok"):
            denom = threaded["goodput_calls_per_s"]
            if denom:
                speedup = round(
                    reactor["goodput_calls_per_s"] / denom, 3)
        levels.append({"conns": conns, "threaded": threaded,
                       "reactor": reactor, "speedup": speedup})
    return {"calls_per_conn": calls_per_conn, "work_s": work_s,
            "p99_slo_s": CSCALE_P99_SLO_S, "levels": levels}


def _check_cscale(cscale: dict) -> List[str]:
    levels = cscale.get("levels")
    if not isinstance(levels, list) or not levels:
        return ["'cscale' missing or malformed"]
    problems = []
    for lv in levels:
        if not isinstance(lv, dict) or "conns" not in lv:
            problems.append("cscale.levels: malformed row")
            continue
        at = f"cscale@{lv['conns']}"
        if lv.get("skipped"):
            if not lv.get("reason"):
                problems.append(f"{at}: skipped without a reason")
            continue
        for mode in ("threaded", "reactor"):
            rec = lv.get(mode)
            if not isinstance(rec, dict) or "ok" not in rec:
                problems.append(f"{at}.{mode}: malformed")
            elif rec["ok"] and any(
                    k not in rec for k in ("goodput_calls_per_s",
                                           "p50_s", "p99_s")):
                problems.append(f"{at}.{mode}: missing quantiles")
        if "speedup" not in lv:
            problems.append(f"{at}: missing speedup")
    return problems


def _gate_cscale(old: dict, new: dict):
    # the LARGEST level both documents completed: that is the scale
    # claim, and the small levels' sub-second timed windows are too
    # noisy to gate on
    for conns, o, n in _common(
            old.get("levels"), new.get("levels"), "conns",
            usable=lambda lv: not lv.get("skipped")
            and (lv.get("reactor") or {}).get("ok"))[-1:]:
        yield (f"cscale@{conns}.reactor_goodput_calls_per_s",
               o["reactor"].get("goodput_calls_per_s"),
               n["reactor"].get("goodput_calls_per_s"))


def _summary_cscale(cscale: dict):
    def side(rec):
        if not rec.get("ok"):
            return f"FAILED ({rec.get('reason', 'unknown')})"
        return (f"{rec['goodput_calls_per_s']:.0f} calls/s "
                f"p99={rec['p99_s'] * 1e3:.1f}ms")

    for lv in cscale["levels"]:
        if lv.get("skipped"):
            yield f"cscale: {lv['conns']} conns SKIPPED ({lv['reason']})"
            continue
        ratio = f"{lv['speedup']:.1f}x" if lv["speedup"] else "n/a"
        yield (f"cscale: {lv['conns']} conns reactor "
               f"{side(lv['reactor'])} vs threaded "
               f"{side(lv['threaded'])} ({ratio})")


def _gauges_cscale(cscale: dict):
    return [("bench_cscale_goodput",
             {"mode": mode, "conns": str(lv["conns"])},
             lv[mode]["goodput_calls_per_s"])
            for lv in cscale["levels"] if not lv.get("skipped")
            for mode in ("threaded", "reactor") if lv[mode].get("ok")]


# -- the table ----------------------------------------------------------------

def _quick_cscale_conns(conns: tuple) -> tuple:
    # the per-PR gate sweeps 100 and 500 connections; the full 1k/10k
    # levels are the nightly's job
    return tuple(c for c in (100, 500) if c <= max(conns, default=0)) \
        or conns


_SGCDR = _ladder("sgcdr", "min_improvement", "sg_mb_per_s",
                 "blob_mb_per_s", "improvement")
_SENDFILE = _ladder("sendfile", "speedup_at_max", "sendfile_mb_per_s",
                    "copy_mb_per_s", "speedup")

#: every section of the document, in document order.  Adding, removing
#: or reordering a section is an edit here and nowhere else.
SECTIONS: List[Section] = [
    Section(
        "figures", _measure_figures, _check_figures,
        args=(Arg("max_size", "max_size", "--max-size",
                  quick=_at_most(16 * KB),
                  help="largest TTCP block in the sim sweeps"),),
        gate=_gate_figures, gate_rank=1, gauges=_gauges_figures),
    Section(
        "latency", _measure_latency, _check_latency,
        args=(Arg("scheme", "scheme", "--scheme", parse=str,
                  choices=("loop", "tcp", "shm"),
                  help="transport for the real-ORB latency probe"),
              Arg("latency_size", "size", "--latency-size",
                  quick=_at_most(16 * KB)),
              Arg("latency_calls", "calls", "--latency-calls",
                  quick=_at_most(10))),
        summary=_summary_latency),
    Section(
        "pipelining", _measure_pipelining, _check_pipelining,
        args=(Arg("pipeline_inflight", "inflight", "--pipeline-inflight",
                  help="concurrent callers in the pipelining probe"),
              Arg("pipeline_calls", "calls", "--pipeline-calls",
                  quick=_at_most(16))),
        gate=_gate_pipelining,
        invariants=(("N in flight > 1.5x serialized on every transport",
                     lambda p: all(r["speedup"] > 1.5 for r in p.values())),),
        summary=_summary_pipelining,
        gauges=lambda p: [("bench_pipelining_speedup", {"scheme": scheme},
                           rec["speedup"]) for scheme, rec in p.items()]),
    Section(
        "shm", measure_shm, _check_shm, skippable=True,
        args=(Arg("shm_size", "size", "--shm-size",
                  quick=_at_most(256 * KB),
                  help="payload bytes in the shm-vs-tcp deposit probe"),
              Arg("shm_repeats", "repeats", "--shm-repeats",
                  quick=_at_most(3))),
        gate=lambda old, new: [("shm.speedup", old.get("speedup"),
                                new.get("speedup"))],
        summary=_summary_shm,
        invariants=(
            ("the arena carried deposits",
             lambda r: r["schemes"]["shm"]["shm_deposits_total"] > 0),
            ("no deposit fell back inline",
             lambda r: r["schemes"]["shm"]["shm_fallbacks_total"] == 0),
            ("faster than tcp loopback", lambda r: r["speedup"] > 1.0)),
        gauges=lambda shm: [("bench_shm_speedup", {}, shm["speedup"])]),
    Section(
        "pubsub", measure_pubsub, _check_pubsub, skippable=True,
        # the subscriber ladder keeps its 8-way top even in quick mode
        # (the acceptance claim lives at 8 colocated subscribers, and
        # --compare anchors at the largest common level); only the
        # payload and event count shrink
        args=(Arg("pubsub_size", "size", "--pubsub-size",
                  quick=_at_most(256 * KB),
                  help="payload bytes in the pub/sub fan-out probe"),
              Arg("pubsub_events", "events", "--pubsub-events",
                  quick=_at_most(10),
                  help="events published per fan-out level"),
              Arg("pubsub_subs", "subs_counts", "--pubsub-subs",
                  parse=_int_list,
                  help="comma-separated subscriber counts for the "
                       "fan-out sweep (default: %(default)s)")),
        gate=_gate_pubsub, summary=_summary_pubsub,
        invariants=(
            ("one arena post and `subs` shared refs per event",
             lambda r: all(
                 lv["shm"]["fanout_posts"] == r["events"] and
                 lv["shm"]["shared_refs"] == r["events"] * lv["subs"]
                 for lv in r["levels"])),
            ("faster than per-link tcp at every fan-out",
             lambda r: all(lv["shm"]["events_per_s"]
                           > lv["tcp"]["events_per_s"]
                           for lv in r["levels"]))),
        gauges=lambda ps: [("bench_pubsub_speedup_at_max", {},
                            ps["speedup_at_max"])]),
    Section(
        "sgcdr", measure_sgcdr, _SGCDR[0],
        # the 64 KiB..1 MiB ladder stays even in quick mode (encode-only
        # and fast) so --compare always has the same sizes on both
        # sides; only the repeats shrink
        args=(Arg("sgcdr_sizes", "sizes"),
              Arg("sgcdr_repeats", "repeats", quick=_at_most(3))),
        gate=_SGCDR[1], gate_rank=1, summary=_summary_sgcdr,
        invariants=(("chunk-plan encoder >= 1.3x blob mode at every size",
                     lambda r: r["min_improvement"] >= 1.3),),
        gauges=lambda sg: [("bench_sgcdr_min_improvement", {},
                            sg["min_improvement"])]),
    Section(
        "sendfile", measure_sendfile, _SENDFILE[0], skippable=True,
        # quick mode keeps the 1-4-16 MiB ladder (the acceptance size
        # is always present) and the full repeat count: each repeat is
        # sub-second, and best-of-5 is what keeps the speedup stable on
        # noisy single-core runners
        args=(Arg("sendfile_sizes", "sizes", "--sendfile-max-size",
                  parse=_sendfile_ladder,
                  help="largest file in the sendfile-vs-copy sweep "
                       "(the 1-4-16-64 MiB ladder is clipped to it)"),
              Arg("sendfile_repeats", "repeats")),
        gate=_SENDFILE[1], gate_rank=1, summary=_summary_sendfile,
        invariants=(
            ("faster than the copy loop at the largest size",
             lambda r: r["speedup_at_max"] > 1.0),
            (">= 1.5x the copy loop from 16 MiB up",
             lambda r: all(row["speedup"] >= 1.5 for row in r["sizes"]
                           if row["size"] >= 16 * MB))),
        gauges=lambda sf: [("bench_sendfile_speedup", {},
                            sf["speedup_at_max"])]),
    Section(
        "cscale", measure_cscale, _check_cscale,
        # six calls per conn keeps the 500-level timed window over a
        # second: that level is the gate's anchor (largest common with
        # the committed baseline), so it needs the steadiest number
        args=(Arg("cscale_conns", "conn_counts", "--cscale-conns",
                  parse=_int_list, quick=_quick_cscale_conns,
                  help="comma-separated connection counts for the "
                       "reactor-vs-threaded scaling sweep (default: "
                       "%(default)s; nightly passes 100,1000,10000)"),
              Arg("cscale_calls", "calls_per_conn", "--cscale-calls",
                  quick=_at_most(6),
                  help="pipelined calls per connection in the cscale "
                       "sweep")),
        gate=_gate_cscale, gate_rank=1, summary=_summary_cscale,
        invariants=(("zero dropped replies on the reactor",
                     lambda r: all(lv["reactor"]["ok"] for lv in r["levels"]
                                   if not lv.get("skipped"))),),
        rss_limit_mb=512.0, gauges=_gauges_cscale),
]


def _measure(section: Section, values: dict) -> dict:
    return section.measure(**{a.param: values[a.key]
                              for a in section.args})


def run_bench(max_size: int = 16 * MB, scheme: str = "loop",
              latency_size: int = 64 * KB, latency_calls: int = 50,
              pipeline_inflight: int = 8, pipeline_calls: int = 32,
              shm_size: int = 1 * MB, shm_repeats: int = 5,
              pubsub_size: int = 1 * MB, pubsub_events: int = 20,
              pubsub_subs=(1, 2, 4, 8),
              sgcdr_sizes=(64 * KB, 256 * KB, 1 * MB),
              sgcdr_repeats: int = 5,
              sendfile_sizes=(1 * MB, 4 * MB, 16 * MB),
              sendfile_repeats: int = 5,
              cscale_conns=(100, 1000), cscale_calls: int = 5,
              tag: str = "", registry: Optional[MetricsRegistry] = None
              ) -> dict:
    """The full trajectory document (see module docstring).  Each
    keyword but the last two feeds the section whose :class:`Arg`
    names it."""
    given = locals()
    doc = {"schema": BENCH_SCHEMA_VERSION, "kind": "bench", "tag": tag}
    for section in SECTIONS:
        rec = doc[section.name] = _measure(section, given)
        if registry is not None and not rec.get("skipped"):
            for name, labels, value in section.gauges(rec):
                registry.gauge(name, **labels).set(value)
    return doc


def validate_bench(doc: dict) -> List[str]:
    """Schema problems in a parsed bench document (empty = valid)."""
    problems = []
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        problems.append(f"schema is {doc.get('schema')!r}, expected "
                        f"{BENCH_SCHEMA_VERSION}")
    if doc.get("kind") != "bench":
        problems.append(f"kind is {doc.get('kind')!r}, expected 'bench'")
    for section in SECTIONS:
        rec = doc.get(section.name)
        if not isinstance(rec, dict) or not rec:
            problems.append(f"'{section.name}' missing or malformed")
        elif section.skippable and rec.get("skipped"):
            problems += _skip_problems(section.name, rec)
        else:
            problems += section.check(rec)
    return problems


def compare_bench(old: dict, new: dict,
                  tolerance: float = 0.75) -> List[dict]:
    """Per-metric regression rows for two bench documents.

    The gated series are the ones each section's ``gate`` declares.
    Each row is ``{"metric", "old", "new", "ratio", "ok"}``; a row
    fails (``ok=False``) when ``new < old * tolerance``.  Metrics
    present in only one document (probe skipped, different sweep) are
    left out or reported with ``ratio=None`` and never fail — a gate
    must not punish a platform for honestly skipping a probe.
    """
    rows: List[dict] = []
    for section in sorted(SECTIONS, key=lambda s: s.gate_rank):
        old_rec, new_rec = old.get(section.name), new.get(section.name)
        if not isinstance(old_rec, dict) or not isinstance(new_rec, dict) \
                or old_rec.get("skipped") or new_rec.get("skipped"):
            continue
        for metric, old_v, new_v in section.gate(old_rec, new_rec):
            ratio, ok = None, True
            if isinstance(old_v, (int, float)) \
                    and isinstance(new_v, (int, float)):
                ratio = new_v / old_v if old_v else float("inf")
                ratio, ok = round(ratio, 3), ratio >= tolerance
            rows.append({"metric": metric, "old": old_v, "new": new_v,
                         "ratio": ratio, "ok": ok})
    return rows


def format_compare(rows: List[dict], tolerance: float) -> str:
    """The per-metric delta table the bench-regression CI job prints."""
    from ..obs.tables import format_table

    def num(v) -> str:
        return f"{v:,.1f}" if isinstance(v, (int, float)) else "-"

    return format_table(
        ["metric", "old", "new", "ratio", f"gate>={tolerance:g}"],
        [[r["metric"], num(r["old"]), num(r["new"]),
          "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}",
          "OK" if r["ok"] else "FAIL"] for r in rows], align="lrrrl")


def render_figure(doc: dict, figure: str = "fig5") -> str:
    """A Fig. 5/6-style text table from a bench document's curves."""
    from ..obs.tables import format_table

    curves = (doc.get("figures") or {}).get(figure)
    if not curves:
        return f"(no {figure} data in document)"
    by_label = {label: {r["size"]: r["mbit_per_s"] for r in rows}
                for label, rows in curves.items()}
    sizes = sorted({size for rows in by_label.values() for size in rows})
    return format_table(
        ["size", *by_label],
        [[size, *(f"{rows[size]:.1f} Mb/s" if size in rows else ""
                  for rows in by_label.values())] for size in sizes],
        align="r" * (1 + len(by_label)))


def _load(path: str) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"repro-bench: cannot read {path}: {e}", file=sys.stderr)
        return None


def _run_section(section: Section, values: dict) -> int:
    """``--section NAME``: measure it alone, print its record, hold it
    to its invariants."""
    from ..obs.httpexport import _rss_bytes

    rss_before = _rss_bytes() or 0
    rec = _measure(section, values)
    rss_growth = round(((_rss_bytes() or 0) - rss_before) / MB, 1)
    print(json.dumps(rec, indent=2))
    skipped = section.skippable and rec.get("skipped")
    problems = _skip_problems(section.name, rec) if skipped \
        else section.check(rec)
    if not problems:
        print("\n".join(_summary(section, rec)))
        if not skipped:
            problems = [f"{section.name}: does not hold: {claim}"
                        for claim, holds in section.invariants
                        if not holds(rec)]
    if section.rss_limit_mb is not None \
            and rss_growth >= section.rss_limit_mb:
        problems.append(f"{section.name}: RSS grew {rss_growth} MiB "
                        f"(limit {section.rss_limit_mb:g})")
    for p in problems:
        print(f"repro-bench: FAILED: {p}", file=sys.stderr)
    if not problems:
        print(f"repro-bench: section {section.name} "
              f"{'SKIPPED' if skipped else 'OK'} (RSS +{rss_growth} MiB)")
    return 1 if problems else 0


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="run the Fig. 5/6 benchmarks + a latency probe and "
                    "write one schema-validated trajectory document")
    ap.add_argument("--out", metavar="PATH", default="BENCH.json",
                    help="output document (default: %(default)s)")
    ap.add_argument("--tag", default="",
                    help="free-form label stored in the document "
                         "(e.g. the PR number)")
    defaults = {name: p.default for name, p in
                inspect.signature(run_bench).parameters.items()}
    sections = {s.name: s for s in SECTIONS}
    for a in (a for s in SECTIONS for a in s.args if a.flag):
        default = defaults[a.key]
        if a.parse is _int_list:
            # in flag syntax, so --help reads 1,2,4,8 (argparse runs a
            # string default through ``type`` itself)
            default = ",".join(map(str, default))
        ap.add_argument(a.flag, dest=a.key, type=a.parse, default=default,
                        choices=a.choices, help=a.help)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sweep for CI smoke (16 KiB max, 10 calls)")
    ap.add_argument("--section", choices=sorted(sections),
                    help="run ONLY this section under its flags above, "
                         "print its record and check its absolute "
                         "invariants: exit 1 on a violation, 0 with a "
                         "notice when the host cannot run the probe")
    ap.add_argument("--check", metavar="PATH",
                    help="validate an existing document instead of "
                         "running the benchmarks")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="regression-gate NEW against OLD: print the "
                         "per-metric delta table, exit 1 when any gated "
                         "series fell below OLD * tolerance")
    ap.add_argument("--tolerance", type=float, default=0.75,
                    help="minimum new/old ratio --compare accepts "
                         "(default: %(default)s)")
    ap.add_argument("--render", metavar="PATH",
                    help="print the fig5 table of an existing document "
                         "instead of running the benchmarks")
    args = ap.parse_args(argv)

    if args.compare:
        docs = [_load(path) for path in args.compare]
        if None in docs:
            return 1
        rows = compare_bench(docs[0], docs[1], tolerance=args.tolerance)
        if not rows:
            print("repro-bench: no comparable series in the two documents",
                  file=sys.stderr)
            return 1
        print(format_compare(rows, args.tolerance))
        failed = [r for r in rows if not r["ok"]]
        if failed:
            print(f"repro-bench: REGRESSION: {len(failed)} of {len(rows)} "
                  f"gated series below tolerance {args.tolerance:g}",
                  file=sys.stderr)
            return 1
        print(f"repro-bench: all {len(rows)} gated series within "
              f"tolerance {args.tolerance:g}")
        return 0

    if args.render:
        doc = _load(args.render)
        if doc is None:
            return 1
        print(render_figure(doc, "fig5"))
        return 0

    if args.check:
        doc = _load(args.check)
        if doc is None:
            return 1
        problems = validate_bench(doc)
        for p in problems:
            print(f"repro-bench: {p}", file=sys.stderr)
        if not problems:
            print(f"{args.check}: schema {doc['schema']}, OK")
        return 1 if problems else 0

    values = {a.key: getattr(args, a.key) if a.flag else defaults[a.key]
              for s in SECTIONS for a in s.args}
    if args.quick:
        values.update({a.key: a.quick(values[a.key])
                       for s in SECTIONS for a in s.args if a.quick})
    if args.section:
        return _run_section(sections[args.section], values)

    doc = run_bench(tag=args.tag, **values)
    problems = validate_bench(doc)
    if problems:  # a bug in this module, not in the caller's input
        for p in problems:
            print(f"repro-bench: internal: {p}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for section in SECTIONS:
        for line in _summary(section, doc[section.name]):
            print(line)
    print(f"bench document written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
