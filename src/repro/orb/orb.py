"""The ORB: object activation, reference resolution, invocation routing.

One :class:`ORB` per logical node.  It owns a POA, an IIOP server
(created lazily on first activation), a cache of client connections,
and the configuration switches the paper's experiments flip:

* ``zero_copy`` — enable the ``TCSeqZCOctet`` direct-deposit path
  (§4.4/4.5); off = every sequence is marshaled by copy;
* ``generic_loop`` — marshal plain octet sequences with MICO's
  authentic per-element loop instead of a bulk copy (the unoptimized
  behaviour profiled in §5.2);
* ``collocated_calls`` — bypass marshaling for same-process objects
  (§2.1).

Instrumentation: assign :attr:`ORB.on_bytes` before creating
connections to observe every byte-touching event (used by the overhead
-breakdown benchmark and the simulated transport).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Type

from ..cdr import NATIVE_LITTLE
from ..core.buffers import BufferPool, default_pool
from ..giop import IOR, IIOPProfile
from ..obs.events import CompositeSink
from ..obs.flightrec import DEFAULT_SLOW_THRESHOLD, FlightRecorder
from ..transport.base import Endpoint, TransportRegistry
from ..transport.base import registry as default_registry
from .connection import GIOPConn
from .exceptions import (INV_OBJREF, OBJECT_NOT_EXIST, TRANSIENT,
                         CompletionStatus)
from .object_adapter import POA, Servant
from .policy import InvocationPolicy
from .proxy import _LOCATE, IIOPProxy
from .server import IIOPServer
from .signatures import OperationSignature
from .stubs import ObjectStub, lookup_stub_class

__all__ = ["ORB", "ORBConfig"]

_orb_ids = itertools.count(1)


@dataclass
class ORBConfig:
    """Per-ORB behaviour switches (see module docstring)."""

    scheme: str = "loop"
    host: str = ""  #: '' = auto (loopback token / 127.0.0.1)
    port: int = 0  #: 0 = auto-assign
    #: additional schemes to listen on (each on an auto-assigned port);
    #: every activated object's IOR then carries one profile per
    #: endpoint, primary scheme first — a multi-homed server
    extra_schemes: tuple = ()
    zero_copy: bool = True
    generic_loop: bool = False
    collocated_calls: bool = True
    #: GIOP 1.1 fragmentation threshold for control messages (0 = off)
    fragment_size: int = 0
    #: dial deadline (seconds) for outgoing connections; expiry maps to
    #: TRANSIENT with COMPLETED_NO — the request was never sent
    connect_timeout: float = 30.0
    #: file-backed payloads at or above this size take the kernel
    #: sendfile tier on TCP (below it, or on transports without a real
    #: socket, they travel as mapped views / arena deposits)
    sendfile_min_size: int = 256 * 1024
    #: dispatch threads of the server's bounded worker pool; 0 restores
    #: inline (in-reader) dispatch, serializing upcalls per connection
    server_workers: int = 4
    #: wire byte order; flip to emulate a foreign-endian peer (the
    #: receiver-makes-right path of §2.1's architecture negotiation)
    wire_little_endian: bool | None = None
    #: always-on flight recorder (repro.obs.flightrec): bounded span
    #: history + slow-call trees on every ORB; False (and no sink
    #: attached) leaves a call with no observation code to run at all
    flight_recorder: bool = True
    #: calls at or above this duration (seconds) keep their full span
    #: tree in the recorder's slow ring
    slow_call_threshold: float = DEFAULT_SLOW_THRESHOLD
    #: auto-register the IDL-defined ORBMonitor servant (initial
    #: reference "ORBMonitor") on every server ORB
    monitor: bool = True
    #: asyncio reactor (repro.orb.reactor): adoptable TCP connections
    #: are read on a shared event loop instead of a thread each — the
    #: C10K path (a client's once it is awaited on; its blocking callers
    #: read it before that).  False: a thread per connection instead.
    reactor: bool = True


class ORB:
    """A CORBA Object Request Broker."""

    def __init__(self, config: Optional[ORBConfig] = None,
                 transports: Optional[TransportRegistry] = None,
                 pool: Optional[BufferPool] = None,
                 on_bytes: Optional[Callable[[str, int], None]] = None,
                 policy: Optional[InvocationPolicy] = None,
                 sink=None):
        self.config = config or ORBConfig()
        self.transports = transports or default_registry()
        self.pool = pool or default_pool()
        self.on_bytes = on_bytes
        #: always-on flight recorder; None when disabled by config.
        #: Joins the sink chain below, so stage events reach it from
        #: day one without enable_tracing.
        self.flightrec: Optional[FlightRecorder] = None
        if self.config.flight_recorder:
            self.flightrec = FlightRecorder(
                slow_threshold=self.config.slow_call_threshold)
        #: the span producer (DESIGN.md §8): the one object that opens,
        #: stamps and closes a call's record, which proxy and dispatcher
        #: drive and every tracer reads.  The flight recorder where
        #: there is one; :meth:`enable_tracing` gives an ORB without a
        #: ringless one.  None = this ORB produces no spans.
        self.span_producer: Optional[FlightRecorder] = self.flightrec
        #: structured event sink (repro.obs.EventSink): stage spans,
        #: wire events and byte events from every connection this ORB
        #: creates.  Assign (or call :meth:`enable_tracing`) before the
        #: first connection exists, like :attr:`on_bytes`.
        self.sink = sink
        if self.flightrec is not None:
            self.sink = self.flightrec if sink is None \
                else CompositeSink([sink, self.flightrec])
        #: ORB-wide invocation policy (deadline/retry/backoff); a
        #: per-proxy or per-call policy overrides it.  None = one
        #: attempt, no deadline.
        self.policy = policy
        self.orb_id = next(_orb_ids)
        if self.flightrec is not None:
            self.flightrec.node = f"orb{self.orb_id}"
        self._started = time.monotonic()
        #: telemetry endpoint (repro.obs.httpexport.TelemetryServer);
        #: installed by :meth:`enable_telemetry`, closed on shutdown
        self.telemetry = None
        #: distributed tracer (repro.obs.dtrace.DistributedTracer);
        #: installed by ``enable_tracing(distributed=True)`` and attached
        #: to the span producer, whose spans then carry its ids and
        #: travel as trace contexts.
        self.dtracer = None
        #: metrics registry (repro.obs.MetricsRegistry); installed by
        #: :meth:`enable_tracing`.  The server worker pool reports its
        #: in-flight gauge and queue-depth histogram here when present.
        self.metrics = None
        self.poa = POA(name=f"POA{self.orb_id}")
        self._server: Optional[IIOPServer] = None
        self._endpoint: Optional[Endpoint] = None
        self._endpoints: list[Endpoint] = []
        self._proxies: Dict[Endpoint, IIOPProxy] = {}
        self._initial_refs: Dict[str, ObjectStub] = {}
        from .interceptors import InterceptorRegistry
        self.interceptors = InterceptorRegistry()
        self._lock = threading.Lock()
        self._shutdown = False
        #: monitor auto-registration state: RLock because registering
        #: the servant re-enters _ensure_server on the same thread
        self._monitor_lock = threading.RLock()
        self._monitor_ref = None
        self._monitor_registering = False

    @property
    def reactor(self):
        """The process-wide event-loop reactor (lazily started), or
        None when ``config.reactor`` is off.  Attaching registers this
        ORB for loop-health metrics (``loop_lag_seconds`` /
        ``loop_tasks``) once it has a metrics registry.  A client asks
        at its first awaited call: one that never awaits runs no loop."""
        if not self.config.reactor:
            return None
        from .reactor import get_reactor
        reactor = get_reactor()
        reactor.attach_orb(self)
        return reactor

    # -- observability -----------------------------------------------------------
    def enable_tracing(self, registry=None, *, wire: bool = False,
                       keep: int = 128, distributed: bool = False,
                       collector=None, sample_rate: float = 1.0,
                       trace_seed: Optional[int] = None):
        """Install the built-in :class:`repro.obs.TracingInterceptor`.

        Registers the interceptor, makes it a reader of this ORB's
        span producer (every finished span is handed to it; sends are
        timed split at the control/deposit boundary from here on) and
        returns the tracer — ``tracer.last`` is the most recent
        per-invocation stage breakdown, ``tracer.registry`` the metrics.
        With ``wire=True`` a :class:`repro.obs.WireTracer` also logs
        every GIOP message (``tracer.wire``).

        With ``distributed=True`` a
        :class:`repro.obs.dtrace.DistributedTracer` is attached to the
        producer: spans draw their ids from it, every Request this ORB
        sends carries its span's trace context in a service context,
        and finished spans land in ``tracer.spans`` (a
        :class:`~repro.obs.dtrace.SpanCollector` — pass ``collector=``
        to share one across the ORBs of a process so cross-ORB traces
        assemble in memory).  ``sample_rate`` decides per-trace at the
        root; ``trace_seed`` makes id generation reproducible.

        Call before the first connection exists (like
        :attr:`on_bytes`); existing connections keep their old sink.
        """
        from ..obs import TracingInterceptor, WireTracer
        tracer = TracingInterceptor(registry=registry, keep=keep)
        self.interceptors.register(tracer)
        self.metrics = tracer.registry
        sinks = []
        producer = self.span_producer
        if producer is None:
            # flight_recorder=False: the same spans, no ring kept
            producer = self.span_producer = FlightRecorder(
                keep=0, slow_keep=0, node=f"orb{self.orb_id}")
            sinks.append(producer)
        producer.wire_stages = True
        producer.consumers.append(tracer.consume)
        if wire:
            tracer.wire = WireTracer(keep=max(keep * 4, 256))
            sinks.append(tracer.wire)
        if distributed:
            from ..obs.dtrace import DistributedTracer
            self.dtracer = DistributedTracer(
                registry=tracer.registry, collector=collector,
                sample_rate=sample_rate, seed=trace_seed)
            tracer.spans = self.dtracer.collector
            producer.attach(self.dtracer)
        if self.sink is not None:
            sinks.append(self.sink)
        self.sink = sinks[0] if len(sinks) == 1 else CompositeSink(sinks)
        return tracer

    def enable_telemetry(self, port: int = 0, host: str = "127.0.0.1",
                         interval: float = 1.0):
        """Start the live telemetry plane: ``/metrics`` (Prometheus
        text 0.0.4), ``/healthz`` and ``/spans`` on an HTTP thread,
        plus a :class:`~repro.obs.httpexport.RuntimeSampler` refreshing
        process/pool/arena/connection gauges every ``interval``
        seconds.  ``port=0`` auto-assigns; the returned
        :class:`~repro.obs.httpexport.TelemetryServer` has ``.url``.

        Installs :meth:`enable_tracing` first when no metrics registry
        exists yet (the latency histograms a dashboard needs), so call
        this — like any sink wiring — before the first connection.
        Idempotent; closed automatically by :meth:`shutdown`.
        """
        if self.telemetry is not None:
            return self.telemetry
        if self.metrics is None:
            self.enable_tracing()
        from ..obs.httpexport import start_telemetry
        self.telemetry = start_telemetry(self, port=port, host=host,
                                         interval=interval)
        return self.telemetry

    def uptime(self) -> float:
        """Seconds since this ORB was constructed."""
        return time.monotonic() - self._started

    # -- server side ------------------------------------------------------------
    def _default_host(self, scheme: str) -> str:
        """Socket-backed schemes bind a real loopback address; the
        in-process schemes use the ORB's symbolic rendezvous token."""
        if scheme in ("tcp", "shm"):
            return "127.0.0.1"
        return f"orb{self.orb_id}"

    def _ensure_server(self) -> IIOPServer:
        server = self._ensure_server_locked()
        if self.config.monitor:
            self._register_monitor()
        return server

    def _register_monitor(self) -> None:
        """Activate the ORBMonitor servant once per server ORB.

        Runs *after* ``_lock`` is released — activating the servant
        re-enters :meth:`_ensure_server` — and under its own RLock with
        a same-thread reentrancy flag, so the recursive call is a
        no-op instead of a deadlock or a second registration.
        """
        with self._monitor_lock:
            if self._monitor_ref is not None or self._monitor_registering:
                return
            self._monitor_registering = True
            try:
                from ..services.monitor import register_monitor
                self._monitor_ref = register_monitor(self)
            finally:
                self._monitor_registering = False

    def _ensure_server_locked(self) -> IIOPServer:
        with self._lock:
            if self._server is not None:
                return self._server
            cfg = self.config
            server = IIOPServer(self.poa, self._new_conn, orb=self,
                                on_bytes=self.on_bytes,
                                workers=cfg.server_workers,
                                reactor=self.reactor)
            schemes = [cfg.scheme] + [s for s in cfg.extra_schemes
                                      if s != cfg.scheme]
            endpoints = []
            for scheme in schemes:
                transport = self.transports.get(scheme)
                host = cfg.host or self._default_host(scheme)
                # the configured port binds the primary scheme only;
                # extra listeners always auto-assign
                port = cfg.port if scheme == cfg.scheme else 0
                listener = server.listen_on(transport, host, port)
                endpoints.append(listener.endpoint)
            self._server = server
            self._endpoint = endpoints[0]
            self._endpoints = endpoints
            return server

    @property
    def endpoint(self) -> Optional[Endpoint]:
        return self._endpoint

    @property
    def endpoints(self) -> Sequence[Endpoint]:
        """Every endpoint this ORB's server listens on (primary first)."""
        return tuple(self._endpoints)

    def activate(self, servant: Servant,
                 stub_cls: Optional[Type[ObjectStub]] = None) -> ObjectStub:
        """Activate ``servant`` and return a client stub for it."""
        self._ensure_server()
        key = self.poa.activate_object(servant)
        ior = self._make_ior(servant, key)
        return self._stub_for(ior, stub_cls)

    def deactivate(self, ref: ObjectStub) -> None:
        profile = ref.ior.iiop_profile()
        self.poa.deactivate_object(profile.object_key)

    def _make_ior(self, servant: Servant, key: bytes) -> IOR:
        assert self._endpoints
        profiles = []
        for scheme, host, port in self._endpoints:
            wire_host = host if scheme == "tcp" else f"{scheme}!{host}"
            profiles.append(IIOPProfile(host=wire_host, port=port,
                                        object_key=key))
        return IOR.for_object(servant._interface().repo_id, *profiles)

    # -- initial references (CORBA::ORB bootstrapping) --------------------
    def register_initial_reference(self, name: str,
                                   ref: ObjectStub) -> None:
        """Expose ``ref`` under ``resolve_initial_references(name)`` —
        the standard bootstrap hook (e.g. "NameService")."""
        with self._lock:
            self._initial_refs[name] = ref

    def resolve_initial_references(self, name: str) -> ObjectStub:
        with self._lock:
            ref = self._initial_refs.get(name)
        if ref is None:
            known = ", ".join(sorted(self._initial_refs)) or "(none)"
            raise INV_OBJREF(message=(
                f"no initial reference {name!r} (known: {known})"))
        return ref

    # -- stringified references ------------------------------------------------
    def object_to_string(self, ref: ObjectStub) -> str:
        return ref.ior.to_string()

    def string_to_object(self, s: str,
                         stub_cls: Optional[Type[ObjectStub]] = None
                         ) -> ObjectStub:
        ior = IOR.from_string(s)
        return self._stub_for(ior, stub_cls)

    def _stub_for(self, ior: IOR,
                  stub_cls: Optional[Type[ObjectStub]]) -> ObjectStub:
        if stub_cls is None:
            stub_cls = lookup_stub_class(ior.type_id)
        if stub_cls is None:
            raise INV_OBJREF(message=(
                f"no stub class registered for {ior.type_id!r}; pass "
                f"stub_cls or import the generated module first"))
        return stub_cls(self, ior)

    # -- invocation routing ----------------------------------------------------
    def _route(self, ior: IOR):
        """Where a call on ``ior`` goes — decided here once for
        :meth:`invoke`, :meth:`invoke_async` and :meth:`locate`:
        ``(servant, None, None)`` for the collocated bypass, else
        ``(None, proxy, object_key)`` for the best reachable profile."""
        if self.config.collocated_calls:
            servant = self.find_local_servant(ior)
            if servant is not None:
                return servant, None, None
        profile = self.select_profile(ior)
        return None, self._proxy_for(profile.endpoint), profile.object_key

    @staticmethod
    def _upcall(servant: Servant, sig: OperationSignature,
                args: Sequence[Any]) -> Any:
        """The collocated call: no marshaling, no wire, no retry."""
        method = getattr(servant, sig.name, None)
        if method is None:
            raise OBJECT_NOT_EXIST(message=(
                f"local servant lacks operation {sig.name!r}"))
        return method(*args)

    def invoke(self, ior: IOR, sig: OperationSignature,
               args: Sequence[Any],
               policy: Optional[InvocationPolicy] = None) -> Any:
        """Route one call: collocated bypass or remote via IIOPProxy.

        ``policy`` (per-call) overrides the ORB-wide :attr:`policy`;
        collocated calls never retry — there is no wire to fail.
        """
        servant, proxy, key = self._route(ior)
        if servant is not None:
            return self._upcall(servant, sig, args)
        return proxy.invoke(key, sig, args, policy=policy or self.policy)

    async def invoke_async(self, ior: IOR, sig: OperationSignature,
                           args: Sequence[Any],
                           policy: Optional[InvocationPolicy] = None
                           ) -> Any:
        """:meth:`invoke` with an awaitable reply."""
        servant, proxy, key = self._route(ior)
        if servant is not None:
            return self._upcall(servant, sig, args)
        return await proxy.invoke_async(key, sig, args,
                                        policy=policy or self.policy)

    def locate(self, ref: ObjectStub) -> bool:
        """GIOP LocateRequest: is the referenced object reachable and
        known to its server?  (OBJECT_HERE -> True.)  Runs under
        :attr:`policy` like any call: a deadline surfaces as TIMEOUT,
        a failed dial is retried within budget."""
        servant, proxy, key = self._route(ref.ior)
        if servant is not None:
            return True
        try:
            return proxy.invoke(key, _LOCATE, (), policy=self.policy)
        except TRANSIENT as exc:
            if exc.completed is CompletionStatus.COMPLETED_NO:
                raise  # never reached the server: not an answer
            # the server closed the connection instead of answering
            return False

    #: lower = preferred when a multi-profile IOR offers a choice:
    #: in-process first, then the shared-memory data plane, then the
    #: modelled testbed, plain tcp last; unknown schemes after all
    _SCHEME_PREFERENCE = {"loop": 0, "shm": 1, "sim": 2, "tcp": 3}

    def select_profile(self, ior: IOR) -> IIOPProfile:
        """The IIOP profile this ORB likes best among those it can
        reach: a colocated client prefers ``shm`` over ``tcp`` when
        the server advertises both.  Falls back to the primary profile
        when none of the advertised schemes is registered (preserving
        the single-profile error behaviour)."""
        best: Optional[IIOPProfile] = None
        best_rank = None
        for profile in ior.iiop_profiles():
            if profile.scheme not in self.transports:
                continue
            rank = self._SCHEME_PREFERENCE.get(profile.scheme, 99)
            if best_rank is None or rank < best_rank:
                best, best_rank = profile, rank
        return best if best is not None else ior.iiop_profile()

    def find_local_servant(self, ior: IOR) -> Optional[Servant]:
        local = self._endpoints  # one or two tuples: no set needed
        if not local:
            return None
        for profile in ior.iiop_profiles():
            if profile.endpoint in local:
                return self.poa.find_servant(profile.object_key)
        return None

    def _proxy_for(self, endpoint: Endpoint) -> IIOPProxy:
        """One persistent proxy per endpoint.  The proxy dials lazily
        through its connector and reconnects itself after failures, so
        a dead connection no longer discards the proxy (or its stats)."""
        with self._lock:
            proxy = self._proxies.get(endpoint)
            if proxy is None:
                proxy = self._proxies[endpoint] = self._new_proxy(endpoint)
            return proxy

    def _new_proxy(self, endpoint: Endpoint) -> IIOPProxy:
        """A proxy with a connection of its own to ``endpoint``."""
        transport = self.transports.get(endpoint[0])
        return IIOPProxy(
            lambda: self._new_conn(transport.connect(
                endpoint, timeout=self.config.connect_timeout)),
            orb=self)

    def _new_conn(self, stream) -> GIOPConn:
        """Every connection of this ORB, dialed or accepted, is built
        here: from the config, :attr:`sink` and :attr:`on_bytes` as
        they are when the stream arrives."""
        cfg = self.config
        little = NATIVE_LITTLE if cfg.wire_little_endian is None \
            else cfg.wire_little_endian
        return GIOPConn(stream, pool=self.pool, zero_copy=cfg.zero_copy,
                        generic_loop=cfg.generic_loop, little_endian=little,
                        on_bytes=self.on_bytes, orb=self,
                        fragment_size=cfg.fragment_size,
                        sendfile_min_size=cfg.sendfile_min_size,
                        sink=self.sink)

    # -- introspection -----------------------------------------------------------
    def connections_snapshot(self) -> list:
        """Per-connection stats dicts, copied under the owning locks.

        One dict per live server connection and per client proxy
        (proxies aggregate stats across reconnects): ``role``,
        ``peer``, and every :class:`~repro.orb.connection.ConnStats`
        counter.  This is what ``ORBMonitor.connections()`` and the
        telemetry sampler read.
        """
        out = []
        server = self._server
        if server is not None:
            for conn in server.connections():
                out.append({"role": "server",
                            "peer": str(getattr(conn.stream, "peer", "?")),
                            **conn.stats.snapshot()})
        with self._lock:
            proxies = list(self._proxies.items())
        for endpoint, proxy in proxies:
            scheme, host, port = endpoint
            out.append({"role": "client",
                        "peer": f"{scheme}://{host}:{port}",
                        **proxy.stats.snapshot()})
        return out

    def _iter_streams(self):
        """Every live connection's transport stream (both roles)."""
        server = self._server
        if server is not None:
            for conn in server.connections():
                yield conn.stream
        with self._lock:
            proxies = list(self._proxies.values())
        for proxy in proxies:
            conn = proxy._conn  # never dial just to introspect
            if conn is not None and not conn.closed:
                yield conn.stream

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            proxies = list(self._proxies.values())
            self._proxies.clear()
            server = self._server
        if self.telemetry is not None:
            try:
                self.telemetry.close()
            except Exception:
                pass
            self.telemetry = None
        for proxy in proxies:
            # polite close + bounded join of the demux reader thread,
            # so threading.active_count() returns to baseline
            try:
                proxy.close()
            except Exception:
                pass
        if server is not None:
            server.shutdown()

    def __enter__(self) -> "ORB":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
