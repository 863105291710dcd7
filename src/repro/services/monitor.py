"""ORBMonitor: in-band introspection of a running ORB, over GIOP.

The telemetry plane's HTTP endpoint (:mod:`repro.obs.httpexport`)
speaks Prometheus; this service speaks CORBA — the ORB eats its own
dogfood.  Every server ORB creates one ``ORBMonitor`` servant the
first time its initial reference ``"ORBMonitor"`` is resolved, so any
client handed that reference — over tcp, shm, sim or loopback — can
ask the ORB what it is doing right now:

* ``snapshot()`` — the metrics registry as a schema-v1 JSON dump
  (validate/render with ``repro-metrics``);
* ``connections()`` — one ``ConnStatsRec`` per live connection,
  copied under the owning send locks (:meth:`ConnStats.snapshot`),
  including the shm/sendfile tier counters;
* ``recent_spans(n)`` — the flight recorder's contents as a schema-v2
  JSON span dump: recent roots plus the full trees of slow calls,
  captured without tracing ever having been enabled;
* ``uptime()`` / ``slow_threshold()`` — liveness and configuration.

The monitor's own invocations go through the ordinary dispatch path,
so they are themselves metered and recorded — the observer is part of
the observed system, which is exactly how a long-running deployment
sees it.
"""

from __future__ import annotations

import json

from ..idl import compile_idl

__all__ = ["MONITOR_IDL", "monitor_api", "ORBMonitorImpl",
           "register_monitor"]

MONITOR_IDL = """
module Monitor {
    // one live GIOP connection's counters, copied consistently
    struct ConnStatsRec {
        string peer;                // endpoint or stream peer name
        string role;                // "client" or "server"
        unsigned long long messages_sent;
        unsigned long long messages_received;
        unsigned long long bytes_sent;
        unsigned long long bytes_received;
        unsigned long long deposits_sent;
        unsigned long long deposits_received;
        unsigned long long deposit_bytes_sent;
        unsigned long long deposit_bytes_received;
        unsigned long reconnects;
        unsigned long retries;
        unsigned long deposit_fallbacks;
        unsigned long timeouts;
        unsigned long shm_deposits;
        unsigned long shm_fallbacks;
        unsigned long shm_shared_refs;
        unsigned long shm_references;
        unsigned long sendfile_sends;
        unsigned long sendfile_fallbacks;
    };

    typedef sequence<ConnStatsRec> ConnStatsSeq;

    interface ORBMonitor {
        // metrics registry as a schema-v1 JSON metrics dump
        string snapshot();
        // per-connection counters (shm/sendfile tiers included)
        ConnStatsSeq connections();
        // flight-recorder contents (last n roots + slow trees) as a
        // schema-v2 JSON span dump; n = 0 returns everything retained
        string recent_spans(in unsigned long n);
        // seconds since the monitored ORB was constructed
        double uptime();
        // the flight recorder's slow-call threshold (seconds; < 0
        // when the recorder is disabled)
        double slow_threshold();
    };
};
"""

_api = None


def monitor_api():
    global _api
    if _api is None:
        _api = compile_idl(MONITOR_IDL, module_name="_repro_monitor_idl")
    return _api


def _conn_records(orb):
    api = monitor_api()
    out = []
    for snap in orb.connections_snapshot():
        fields = {k: v for k, v in snap.items()
                  if k in api.Monitor_ConnStatsRec._FIELDS}
        out.append(api.Monitor_ConnStatsRec(**fields))
    return out


class ORBMonitorImpl:
    """Servant factory: an ``ORBMonitor`` bound to one ORB."""

    def __new__(cls, orb):
        api = monitor_api()

        class Impl(api.Monitor_ORBMonitor_skel):
            def __init__(self):
                self._orb = orb

            def snapshot(self):
                from ..obs.export import to_dict
                from ..obs.metrics import MetricsRegistry
                registry = self._orb.metrics
                if registry is None:
                    registry = MetricsRegistry()  # valid, empty dump
                return json.dumps(to_dict(registry))

            def connections(self):
                return _conn_records(self._orb)

            def recent_spans(self, n):
                from ..obs.export import spans_to_dict
                rec = self._orb.flightrec
                spans = rec.spans(n) if rec is not None else []
                return json.dumps(spans_to_dict(spans))

            def uptime(self):
                return self._orb.uptime()

            def slow_threshold(self):
                rec = self._orb.flightrec
                return rec.slow_threshold if rec is not None else -1.0

        return Impl()


def register_monitor(orb):
    """Activate an ORBMonitor for ``orb`` and expose it as the
    ``"ORBMonitor"`` initial reference.  Returns the stub.

    A server ORB does the same itself the first time the reference is
    resolved; this registers one explicitly (and activates the server
    of an ORB that has none yet).
    """
    ref = orb.activate(ORBMonitorImpl(orb))
    orb.register_initial_reference("ORBMonitor", ref)
    return ref
