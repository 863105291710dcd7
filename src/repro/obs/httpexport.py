"""The ``/metrics`` scrape endpoint and the runtime gauge sampler.

:class:`TelemetryServer` is a stdlib ``http.server`` running on a
daemon thread — deliberately boring: it serves three read-only paths
and holds no state beyond references to the objects it exposes:

* ``/metrics`` — the attached :class:`MetricsRegistry` in Prometheus
  text format 0.0.4 (:mod:`repro.obs.promexport`);
* ``/healthz`` — a tiny JSON liveness document;
* ``/spans``   — the flight recorder's current contents as a
  span-schema-v2 JSON dump (loadable by ``repro-metrics tree``).

:class:`RuntimeSampler` refreshes the gauges that have no natural
update site in the hot path — process RSS, GC tallies, thread count,
buffer-pool occupancy, shm-arena slot occupancy, worker-pool depth,
per-connection tier counters — by polling a list of *probe* callables
on its own thread at a fixed cadence, and once more synchronously on
every scrape so the numbers are never staler than the request.

``ORB.enable_telemetry()`` composes the two around the ORB's registry
and flight recorder; :func:`orb_probes` is the ORB-shaped probe set.
"""

from __future__ import annotations

import gc
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional
from urllib.parse import parse_qs, urlparse

from .export import spans_to_dict
from .metrics import MetricsRegistry
from .promexport import CONTENT_TYPE, render

__all__ = ["TelemetryServer", "RuntimeSampler", "orb_probes",
           "start_telemetry"]

#: a probe mutates gauges on the registry it is handed
Probe = Callable[[MetricsRegistry], None]


# ---------------------------------------------------------------------------
# process-level probes
# ---------------------------------------------------------------------------

def _rss_bytes() -> Optional[int]:
    """Resident set size: /proc on Linux, peak-RSS rusage elsewhere."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; both are close enough for a
        # fallback gauge and Linux rarely reaches this path at all
        return rss * 1024 if rss < 1 << 32 else rss
    except Exception:
        return None


def process_probe(registry: MetricsRegistry) -> None:
    """RSS, GC collection tallies, live thread count."""
    rss = _rss_bytes()
    if rss is not None:
        registry.gauge("process_resident_memory_bytes",
                       help="resident set size").set(rss)
    registry.gauge("process_threads",
                   help="live Python threads").set(threading.active_count())
    for gen, stats in enumerate(gc.get_stats()):
        registry.gauge("python_gc_collections", generation=str(gen),
                       help="GC runs per generation").set(
                           stats.get("collections", 0))


# ---------------------------------------------------------------------------
# ORB-shaped probes
# ---------------------------------------------------------------------------

def _pool_probe(orb) -> Probe:
    def probe(registry: MetricsRegistry) -> None:
        stats = orb.pool.stats()
        registry.gauge("pool_cached_bytes",
                       help="BufferPool bytes parked").set(
                           stats["cached_bytes"])
        registry.gauge("pool_cached_buffers",
                       help="BufferPool buffers parked").set(
                           stats["cached_count"])
        for key in ("hits", "misses", "reclaims"):
            registry.gauge(f"pool_{key}",
                           help=f"BufferPool {key} so far").set(stats[key])
    return probe


def _conn_probe(orb) -> Probe:
    """Every ConnStats counter, summed across connections onto a gauge
    of the same name: the tier mix a scrape sees (shm_deposits,
    sendfile_sends, ...) is nameable without enable_tracing."""
    from ..orb.connection import ConnStats
    fields = ConnStats._COUNTER_FIELDS

    def probe(registry: MetricsRegistry) -> None:
        totals = dict.fromkeys(fields, 0)
        count = {"client": 0, "server": 0}
        for snap in orb.connections_snapshot():
            count[snap["role"]] = count.get(snap["role"], 0) + 1
            for f in fields:
                totals[f] += snap.get(f, 0)
        for role, n in count.items():
            registry.gauge("orb_connections", role=role,
                           help="live GIOP connections").set(n)
        for f in fields:
            registry.gauge(f, help=f"ConnStats.{f} over all "
                                   f"connections").set(totals[f])
    return probe


def _arena_probe(orb) -> Probe:
    def probe(registry: MetricsRegistry) -> None:
        free = {"send": 0, "recv": 0}
        total = {"send": 0, "recv": 0}
        for stream in orb._iter_streams():
            for direction in ("send", "recv"):
                arena = getattr(stream, f"{direction}_arena", None)
                if arena is None or arena.closed:
                    continue
                free[direction] += arena.free_slots
                total[direction] += arena.slot_count
        for direction in ("send", "recv"):
            registry.gauge("arena_slots_free", dir=direction,
                           help="FREE shm arena slots").set(free[direction])
            registry.gauge("arena_slots_total", dir=direction,
                           help="shm arena slots").set(total[direction])
    return probe


def _server_probe(orb) -> Probe:
    def probe(registry: MetricsRegistry) -> None:
        server = orb._server
        pool = getattr(server, "workers", None) if server is not None \
            else None
        if pool is None:
            return
        registry.gauge("server_worker_inflight",
                       help="requests queued or executing").set(
                           pool.inflight)
        registry.gauge("server_worker_queue",
                       help="requests waiting in the queue").set(
                           pool.queue_size)
    return probe


def _flightrec_probe(orb) -> Probe:
    def probe(registry: MetricsRegistry) -> None:
        rec = orb.flightrec
        if rec is None:
            return
        for key, value in rec.counters().items():
            registry.gauge(f"flightrec_{key}",
                           help=f"flight recorder {key}").set(value)
    return probe


def _uptime_probe(orb) -> Probe:
    def probe(registry: MetricsRegistry) -> None:
        registry.gauge("process_uptime_seconds",
                       help="seconds since the ORB was created").set(
                           orb.uptime())
    return probe


def orb_probes(orb) -> List[Probe]:
    """The standard probe set for one ORB."""
    return [process_probe, _uptime_probe(orb), _pool_probe(orb),
            _conn_probe(orb), _arena_probe(orb), _server_probe(orb),
            _flightrec_probe(orb)]


# ---------------------------------------------------------------------------
# the sampler thread
# ---------------------------------------------------------------------------

class RuntimeSampler:
    """Runs every probe against ``registry`` at ``interval`` seconds.

    A failing probe is disabled for the sampler's lifetime (and counted
    on the ``sampler_probe_errors`` gauge) instead of killing the
    thread — telemetry must never take the ORB down with it.
    """

    def __init__(self, registry: MetricsRegistry, probes: List[Probe],
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.registry = registry
        self.interval = interval
        self._probes = list(probes)
        self._dead: List[Probe] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples = 0

    def sample(self) -> None:
        """Run every live probe once, synchronously."""
        with self._lock:
            probes = list(self._probes)
        for probe in probes:
            try:
                probe(self.registry)
            except Exception:
                with self._lock:
                    if probe in self._probes:
                        self._probes.remove(probe)
                        self._dead.append(probe)
                self.registry.gauge(
                    "sampler_probe_errors",
                    help="probes disabled after raising").set(
                        len(self._dead))
        self.samples += 1

    def start(self) -> "RuntimeSampler":
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="repro-sampler",
                                            daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None


# ---------------------------------------------------------------------------
# the HTTP endpoint
# ---------------------------------------------------------------------------

class TelemetryServer:
    """Serves ``/metrics``, ``/healthz`` and ``/spans`` on a thread.

    ``port=0`` picks a free port (see :attr:`port` / :attr:`url`).
    ``health`` is a zero-arg callable returning the ``/healthz`` JSON
    document; ``recorder`` (a :class:`~repro.obs.flightrec
    .FlightRecorder`) backs ``/spans``; ``sampler`` (if any) is run
    synchronously before each ``/metrics`` render and closed with the
    server.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 recorder=None, sampler: Optional[RuntimeSampler] = None,
                 health: Optional[Callable[[], dict]] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.registry = registry
        self.recorder = recorder
        self.sampler = sampler
        self._health = health or (lambda: {"status": "ok"})
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib handler API)
                outer._handle(self)

            def log_message(self, *args):  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.scrapes = 0
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-telemetry",
                                        daemon=True)
        self._thread.start()

    # -- addressing ----------------------------------------------------------
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------------
    def _handle(self, req: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(req.path)
        try:
            if parsed.path == "/metrics":
                if self.sampler is not None:
                    self.sampler.sample()
                body = render(self.registry).encode("utf-8")
                ctype = CONTENT_TYPE
                self.scrapes += 1
            elif parsed.path == "/healthz":
                body = (json.dumps(self._health()) + "\n").encode("utf-8")
                ctype = "application/json"
            elif parsed.path == "/spans":
                body = self._spans_body(parsed)
                ctype = "application/json"
            else:
                req.send_error(404, "unknown path")
                return
        except Exception as e:  # pragma: no cover - defensive
            req.send_error(500, f"{type(e).__name__}: {e}")
            return
        req.send_response(200)
        req.send_header("Content-Type", ctype)
        req.send_header("Content-Length", str(len(body)))
        req.end_headers()
        req.wfile.write(body)

    def _spans_body(self, parsed) -> bytes:
        n = 0
        qs = parse_qs(parsed.query)
        if "n" in qs:
            try:
                n = max(0, int(qs["n"][0]))
            except ValueError:
                n = 0
        spans = self.recorder.spans(n) if self.recorder is not None else []
        doc = spans_to_dict(spans)
        return (json.dumps(doc) + "\n").encode("utf-8")

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)
        if self.sampler is not None:
            self.sampler.close()

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_telemetry(orb, *, port: int = 0, host: str = "127.0.0.1",
                    interval: float = 1.0) -> TelemetryServer:
    """Build the ORB-shaped telemetry plane: sampler + HTTP endpoint.

    Called by :meth:`repro.orb.ORB.enable_telemetry`; requires the ORB
    to have a metrics registry already (enable_telemetry installs one).
    """
    sampler = RuntimeSampler(orb.metrics, orb_probes(orb),
                             interval=interval)
    sampler.sample()  # gauges exist before the first scrape
    sampler.start()

    def health() -> dict:
        return {
            "status": "ok",
            "orb": f"orb{orb.orb_id}",
            "uptime_s": round(orb.uptime(), 3),
            "scheme": orb.config.scheme,
            "pid": os.getpid(),
        }

    return TelemetryServer(orb.metrics, recorder=orb.flightrec,
                           sampler=sampler, health=health,
                           host=host, port=port)
