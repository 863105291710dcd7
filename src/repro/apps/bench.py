"""``repro-bench``: what the cross-process benchmark cannot answer.

Four sections, written as one schema-versioned JSON document (by
convention ``BENCH_<tag>.json``):

* ``figures``: the paper's Fig. 5 and Fig. 6 TTCP sweeps on the
  simulated 2003 testbed (deterministic model curves);
* ``pipelining``: 1-vs-N calls in flight on one connection;
* ``sgcdr``: the chunk-plan CDR encoder against blob mode;
* ``cscale``: C concurrent connections, reactor against a thread each.

Every section is declared once, as an entry of :data:`SECTIONS`: how it
is measured and from which ``run_bench`` keywords and CLI flags, the
shape the validator requires, the invariants ``--section NAME`` holds it
to and its summary line.  ``run_bench``, ``validate_bench`` and ``main``
iterate that table.

The document is ``{"schema": 8, "kind": "bench", "tag": ..., "<section
name>": {...}, ...}`` with the sections in table order; README.md
("The bench document") spells out every key, and each section's
``check`` is the executable statement of the keys it must have.

An invariant is a ratio taken inside one run or a count, never a number
from another host or another run: this module compares no two
documents.  How fast the ORB is, against a raw socket and with a
spread, is the business of ``benchmarks/e2e`` and its ``compare.py``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from .ttcp import KB, MB, default_sizes, run_sim_ttcp

__all__ = ["BENCH_SCHEMA_VERSION", "Section", "SECTIONS", "run_bench",
           "measure_pipelining", "measure_sgcdr", "measure_cscale",
           "validate_bench", "render_figure", "main"]

BENCH_SCHEMA_VERSION = 8


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


def _none(*_recs) -> tuple:
    return ()


@dataclass(frozen=True)
class Section:
    """One section of the bench document, declared once."""

    name: str
    #: ``measure(**{arg.param: value})`` -> the section's record
    measure: Callable[..., dict]
    #: shape problems of a record, as validator strings
    check: Callable[[dict], List[str]]
    args: Tuple[Arg, ...] = ()
    #: ``(claim, holds(rec))``: the invariants of a record, each a ratio
    #: or a count taken inside the one run (``--section`` exits 1 on one
    #: that does not hold)
    invariants: Tuple[Tuple[str, Callable[[dict], bool]], ...] = ()
    #: ``--section`` also fails when measuring grew the RSS this much
    rss_limit_mb: Optional[float] = None
    #: the lines ``main`` prints for a record
    summary: Callable[[dict], Iterable[str]] = _none


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


def _check_sgcdr(sgcdr: dict) -> List[str]:
    if "min_improvement" not in sgcdr or _rows_lack(
            sgcdr.get("sizes"), "size", "sg_mb_per_s", "blob_mb_per_s",
            "improvement"):
        return ["sgcdr.sizes: malformed rows"]
    return []


def _summary_sgcdr(sgcdr: dict):
    return [f"sgcdr: {row['size']} B encode "
            f"{row['sg_mb_per_s']:.0f} MB/s chunked vs "
            f"{row['blob_mb_per_s']:.0f} MB/s blob "
            f"({row['improvement']:.1f}x)" for row in sgcdr["sizes"]]


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
    """The baseline: C sockets, each with a sync driver thread that
    reads its own replies client-side plus a reader thread server-side
    — ~2C threads total, the cost the reactor removes."""
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
    attempted (its ~2C threads would destabilise the host rather than
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
                                   f"need ~{2 * conns} threads, past the "
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


# -- the table ----------------------------------------------------------------

def _quick_cscale_conns(conns: tuple) -> tuple:
    # a per-PR run sweeps 100 and 500 connections; the full 1k/10k
    # levels are the nightly's job
    return tuple(c for c in (100, 500) if c <= max(conns, default=0)) \
        or conns


#: every section of the document, in document order.  Adding, removing
#: or reordering a section is an edit here and nowhere else.
SECTIONS: List[Section] = [
    Section(
        "figures", _measure_figures, _check_figures,
        args=(Arg("max_size", "max_size", "--max-size",
                  quick=_at_most(16 * KB),
                  help="largest TTCP block in the sim sweeps"),)),
    Section(
        "pipelining", _measure_pipelining, _check_pipelining,
        args=(Arg("pipeline_inflight", "inflight", "--pipeline-inflight",
                  help="concurrent callers in the pipelining probe"),
              Arg("pipeline_calls", "calls", "--pipeline-calls",
                  quick=_at_most(16))),
        invariants=(("N in flight > 1.5x serialized on every transport",
                     lambda p: all(r["speedup"] > 1.5 for r in p.values())),),
        summary=_summary_pipelining),
    Section(
        "sgcdr", measure_sgcdr, _check_sgcdr,
        # the 64 KiB..1 MiB ladder stays even in quick mode (encode-only
        # and fast); only the repeats shrink
        args=(Arg("sgcdr_sizes", "sizes"),
              Arg("sgcdr_repeats", "repeats", quick=_at_most(3))),
        invariants=(("chunk-plan encoder >= 1.3x blob mode at every size",
                     lambda r: r["min_improvement"] >= 1.3),),
        summary=_summary_sgcdr),
    Section(
        "cscale", measure_cscale, _check_cscale,
        args=(Arg("cscale_conns", "conn_counts", "--cscale-conns",
                  parse=_int_list, quick=_quick_cscale_conns,
                  help="comma-separated connection counts for the "
                       "reactor-vs-threaded scaling sweep (default: "
                       "%(default)s; nightly passes 100,1000,10000)"),
              Arg("cscale_calls", "calls_per_conn", "--cscale-calls",
                  quick=_at_most(6),
                  help="pipelined calls per connection in the cscale "
                       "sweep")),
        invariants=(("zero dropped replies on the reactor",
                     lambda r: all(lv["reactor"]["ok"] for lv in r["levels"]
                                   if not lv.get("skipped"))),),
        rss_limit_mb=512.0, summary=_summary_cscale),
]


def _measure(section: Section, values: dict) -> dict:
    return section.measure(**{a.param: values[a.key]
                              for a in section.args})


def run_bench(max_size: int = 16 * MB,
              pipeline_inflight: int = 8, pipeline_calls: int = 32,
              sgcdr_sizes=(64 * KB, 256 * KB, 1 * MB),
              sgcdr_repeats: int = 5,
              cscale_conns=(100, 1000), cscale_calls: int = 5,
              tag: str = "") -> dict:
    """The full document (see module docstring).  Each keyword but the
    last feeds the section whose :class:`Arg` names it."""
    given = locals()
    doc = {"schema": BENCH_SCHEMA_VERSION, "kind": "bench", "tag": tag}
    for section in SECTIONS:
        doc[section.name] = _measure(section, given)
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
        else:
            problems += section.check(rec)
    return problems


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
    problems = section.check(rec)
    if not problems:
        print("\n".join(section.summary(rec)))
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
        print(f"repro-bench: section {section.name} OK "
              f"(RSS +{rss_growth} MiB)")
    return 1 if problems else 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="run the Fig. 5/6 sim sweeps and the pipelining, "
                    "sgcdr and cscale probes and write one "
                    "schema-validated document")
    ap.add_argument("--out", metavar="PATH", default="BENCH.json",
                    help="output document (default: %(default)s)")
    ap.add_argument("--tag", default="",
                    help="free-form label stored in the document "
                         "(e.g. the PR number)")
    defaults = inspect.signature(run_bench).parameters
    for a in (a for s in SECTIONS for a in s.args):
        default = defaults[a.key].default
        if not a.flag:  # programmatic only: parsed args still carry it
            ap.set_defaults(**{a.key: default})
            continue
        if a.parse is _int_list:
            # in flag syntax, so --help reads 100,1000 (argparse runs a
            # string default through ``type`` itself)
            default = ",".join(map(str, default))
        ap.add_argument(a.flag, dest=a.key, type=a.parse, default=default,
                        help=a.help)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sweep for CI smoke (16 KiB max, 16 calls)")
    ap.add_argument("--section", choices=sorted(s.name for s in SECTIONS),
                    help="run ONLY this section under its flags above, "
                         "print its record and check its invariants: "
                         "exit 1 on a violation")
    ap.add_argument("--check", metavar="PATH",
                    help="validate an existing document instead of "
                         "running the benchmarks")
    ap.add_argument("--render", metavar="PATH",
                    help="print the fig5 table of an existing document "
                         "instead of running the benchmarks")
    return ap


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)

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

    values = {a.key: getattr(args, a.key)
              for s in SECTIONS for a in s.args}
    if args.quick:
        values.update({a.key: a.quick(values[a.key])
                       for s in SECTIONS for a in s.args if a.quick})
    if args.section:
        return _run_section({s.name: s for s in SECTIONS}[args.section],
                            values)

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
        for line in section.summary(doc[section.name]):
            print(line)
    print(f"bench document written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
