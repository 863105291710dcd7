"""Layer spans recorded from outside ``src/``: a fixed table of entry
points, each wrapped with a timing shim while a traced run is on.

``LAYER_ENTRY_POINTS`` maps a per-layer metric to the module attributes
whose *self time* it sums.  A name that no longer resolves is listed
in the report's ``missing`` and contributes nothing; it never raises,
so a refactor of ``src/`` cannot break the benchmark, only blind it.

A span is ``(id, parent id, metric, start, end, request id)`` on the
``perf_counter`` clock, which driver and peers share on one host.
Self time is a span's duration minus the part its child spans cover,
taken on two clocks: the wall clock, and the thread's CPU clock
(``time.thread_time``).  On one shared CPU a ``send`` that wakes the
peer does not return until the peer has run, so its wall time holds
the other side's work; CPU self time is what the layer itself burned,
and only that can be summed along a call.  Waiting (``WAIT_METRICS``)
is the opposite case and is read off the wall clock.  Both are
accumulated as the spans close, per thread, so the totals cover every
call while the span list kept for ``trace_<workload>.json`` is capped.
Coroutines are timed step by step (from each resume to the next
suspension), so their self time is time on the loop thread and never
time spent suspended.

A shim costs about a microsecond, most of it the two CPU-clock reads,
and a parent's self time includes the part of its children's shims
that runs outside their own clock reads.  ``trace.overhead_frac``
reports what that does to the op time; the ``*_us`` values are for
ranking layers and for following one layer from commit to commit,
not for adding up to the untraced op time.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from time import perf_counter, thread_time

__all__ = ["LAYER_ENTRY_POINTS", "EXTRA_METRICS", "WAIT_METRICS",
           "EMIT_ENTRY", "QUEUE_WAIT", "RECV_IDLE", "Tracer"]

#: (metric, module, attribute path, hook).  Hooks: "rid:<how>" reads the
#: GIOP request id off the arguments; "submit"/"dispatch" pair up to
#: time the worker-pool queue; "factory" wraps the coroutine function a
#: ``__getattr__`` returns; "count" only counts calls (the body is
#: cheaper than a timing shim, its time stays with the caller); "idle"
#: books a blocking read for a message header as waiting.
LAYER_ENTRY_POINTS = (
    ("orb.orb.self_us", "repro.orb.orb", "ORB.invoke", None),
    ("orb.orb.self_us", "repro.orb.orb", "ORB.invoke_async", None),
    ("orb.orb.self_us", "repro.orb.orb", "ORB.select_profile", None),
    ("orb.orb.self_us", "repro.orb.orb", "ORB.find_local_servant", None),
    ("orb.proxy.self_us", "repro.orb.proxy", "IIOPProxy.invoke", None),
    ("orb.proxy.self_us", "repro.orb.proxy", "IIOPProxy.invoke_async", None),
    ("orb.aio.self_us", "repro.orb.aio", "AsyncStub.__getattr__", "factory"),
    ("giop.encode_us", "repro.giop.messages", "GIOPHeader.encode", None),
    ("giop.encode_us", "repro.giop.messages", "RequestHeader.encode", None),
    ("giop.encode_us", "repro.giop.messages", "ReplyHeader.encode", None),
    # the connection binds these two by name, so that binding is wrapped
    ("giop.decode_us", "repro.orb.connection", "decode_header", None),
    ("giop.decode_us", "repro.orb.connection", "decode_body", None),
    ("giop.ior_decode_us", "repro.giop.ior", "IOR.iiop_profiles", None),
    ("cdr.marshal_us", "repro.orb.signatures",
     "OperationSignature.marshal_request", None),
    ("cdr.marshal_us", "repro.orb.signatures",
     "OperationSignature.marshal_reply", None),
    ("cdr.demarshal_us", "repro.orb.signatures",
     "OperationSignature.demarshal_request", None),
    ("cdr.demarshal_us", "repro.orb.signatures",
     "OperationSignature.demarshal_reply", None),
    ("orb.connection.send_us", "repro.orb.connection",
     "GIOPConn.send_message", "rid:header"),
    ("orb.connection.read_us", "repro.orb.connection",
     "GIOPConn.read_message", None),
    # reactor-driven reads never pass through read_message; this is the
    # one private name in the table, and the read side is dark without it
    ("orb.connection.read_us", "repro.orb.reactor",
     "_ConnDriver._on_readable", None),
    ("transport.send_us", "repro.transport.tcp", "TCPStream.send", None),
    ("transport.send_us", "repro.transport.tcp", "TCPStream.sendv", None),
    ("transport.send_us", "repro.transport.tcp", "TCPStream.send_file", None),
    ("transport.recv_us", "repro.transport.tcp", "TCPStream.recv_exact",
     "idle"),
    ("transport.recv_us", "repro.transport.tcp", "TCPStream.recv_into", None),
    ("transport.recv_us", "repro.transport.tcp", "TCPStream.recv_into_nb",
     None),
    ("transport.recv_us", "repro.transport.shm", "ShmStream.recv_deposit",
     None),
    ("transport.shm.stage_us", "repro.transport.shm",
     "ShmStream.send_deposit", None),
    ("transport.shm.stage_us", "repro.cdr.marshal",
     "MarshalContext.stage_in_arena", None),
    ("core.buffers.acquire_us", "repro.core.buffers", "BufferPool.acquire",
     None),
    ("core.direct_deposit.us", "repro.core.direct_deposit",
     "DepositRegistry.register", None),
    ("core.direct_deposit.us", "repro.core.direct_deposit",
     "DepositRegistry.drain", None),
    ("core.direct_deposit.us", "repro.core.direct_deposit",
     "DepositReceiver.prepare", None),
    ("core.direct_deposit.us", "repro.core.direct_deposit",
     "DepositReceiver.land", None),
    ("core.direct_deposit.us", "repro.core.direct_deposit",
     "DepositReceiver.complete", None),
    ("orb.demux.register_us", "repro.orb.demux", "ReplyDemux.register",
     "rid:arg"),
    ("orb.demux.wait_us", "repro.orb.demux", "ReplyFuture.wait", "rid:self"),
    ("orb.server.submit_us", "repro.orb.server", "RequestWorkerPool.submit",
     "submit"),
    ("orb.server.submit_us", "repro.orb.server",
     "RequestWorkerPool.submit_nowait", "submit"),
    ("orb.dispatcher.self_us", "repro.orb.dispatcher",
     "MethodDispatcher.dispatch", "dispatch"),
    ("obs.emit_us", "repro.obs.flightrec", "FlightRecorder.emit", "count"),
    ("obs.emit_us", "repro.obs.flightrec", "FlightRecorder.begin_invocation",
     None),
    ("obs.emit_us", "repro.obs.flightrec", "FlightRecorder.start_client_span",
     None),
    ("obs.emit_us", "repro.obs.flightrec", "FlightRecorder.start_server_span",
     None),
    ("obs.emit_us", "repro.obs.flightrec", "FlightRecorder.finish", None),
    # a stage span's exit takes the clock and emits: the per-stage cost
    ("obs.emit_us", "repro.obs.events", "StageSpan.__exit__", None),
)

#: the entry whose call count is ``obs.emits_per_op``
EMIT_ENTRY = "FlightRecorder.emit"

#: submit -> dispatch-entry interval, accumulated like a self time
QUEUE_WAIT = "orb.server.queue_wait_us"

#: a reader thread blocked for the next message's header (connections
#: the reactor does not own): the other side's time, not transport work
RECV_IDLE = "transport.recv_idle_us"

#: metrics of objects only the benchmark can name (generated stubs,
#: servant implementations, the hub); wrapped through Tracer.wrap
EXTRA_METRICS = ("orb.stubs.self_us", "servant.upcall_us",
                 "servant.blocked_us", "services.pubsub.publish_self_us",
                 "services.blobstore.read_range_us")

#: metrics that time someone blocked on the other side; they are the
#: window the other rows fill, so the residual leaves them out
WAIT_METRICS = ("orb.demux.wait_us", "servant.blocked_us", RECV_IDLE)

#: spans kept per thread for the trace file (the totals cover all)
SPAN_CAP = 2000


class _ThreadState:
    """One thread's open-span stack, totals and kept spans."""

    __slots__ = ("index", "stack", "next_sid", "rid", "redirect", "self_s",
                 "cpu_s", "count", "spans")

    def __init__(self, index: int, n_metrics: int):
        self.index = index
        #: open spans, innermost last: [id, seconds covered by children
        #: on the wall clock, the same on the thread's CPU clock]
        self.stack = []
        self.next_sid = 0
        self.rid = None
        self.redirect = None  # metric id that takes all self time, if set
        self.self_s = [0.0] * n_metrics
        self.cpu_s = [0.0] * n_metrics
        self.count = [0] * n_metrics
        self.spans = []


def _request_id_of(message):
    header = getattr(getattr(message, "msg", None), "body_header", None)
    return getattr(header, "request_id", None)


class Tracer:
    """Installs the shims, owns what they record, restores on demand."""

    def __init__(self):
        self.metrics: list = []          # metric name per id
        self._ids: dict = {}
        self.missing: list = []
        self._patched: list = []         # (owner, attr, original)
        self._tls = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._submitted: dict = {}       # id(message) -> submit time
        self.inflight_max = 0
        self.queue_depth_max = 0
        self._call_ids: dict = {}        # attribute path -> counter id
        # every metric gets its id here, because a thread sizes its
        # totals when it records its first span
        self._queue_id = self._metric_id(QUEUE_WAIT)
        self._idle_id = self._metric_id(RECV_IDLE)
        for metric, _, path, hook in LAYER_ENTRY_POINTS:
            self._metric_id(metric)
            if hook == "count":
                self._call_ids[path] = self._metric_id(f"calls:{path}")
        for metric in EXTRA_METRICS:
            self._metric_id(metric)
        try:
            self._header_size = importlib.import_module(
                "repro.giop").GIOP_HEADER_SIZE
        except (ImportError, AttributeError):
            self._header_size = 12

    # -- bookkeeping ---------------------------------------------------------
    def _metric_id(self, metric: str) -> int:
        mid = self._ids.get(metric)
        if mid is None:
            mid = self._ids[metric] = len(self.metrics)
            self.metrics.append(metric)
        return mid

    def _state(self) -> _ThreadState:
        """The calling thread's state, made on its first shim call."""
        try:
            return self._tls.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._states), len(self.metrics))
                self._states.append(st)
            self._tls.state = st
            return st

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry of the table that still resolves."""
        for metric, module, path, hook in LAYER_ENTRY_POINTS:
            label = f"{module}:{path}"
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            if not inspect.isfunction(original):
                # a descriptor this shim does not understand: report it
                # rather than guess at how to rebind it
                self.missing.append(label)
                continue
            self._patch(owner, attr, original, self._ids[metric], hook, path)

    def wrap(self, metric: str, cls: type, attr: str) -> None:
        """Wrap one method of a class only the caller can name; the
        metric is one of ``EXTRA_METRICS``."""
        original = cls.__dict__.get(attr)
        if metric not in EXTRA_METRICS or not inspect.isfunction(original):
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patch(cls, attr, original, self._ids[metric], None, attr)

    def _patch(self, owner, attr, original, mid, hook, path) -> None:
        if hook == "factory":
            shim = self._wrap_factory(original, mid)
        elif hook == "count":
            shim = self._wrap_count(original, self._call_ids[path])
        elif inspect.iscoroutinefunction(original):
            shim = self._wrap_async(original, mid)
        else:
            shim = self._wrap_sync(original, mid, self._pre_hook(hook))
        shim.__name__ = getattr(original, "__name__", attr)
        shim.__wrapped__ = original
        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- hooks: run before the wrapped call, with the thread state and
    # -- the call's positional arguments; a true result asks the shim to
    # -- clear st.redirect when the span closes
    def _pre_hook(self, hook):
        if hook is None:
            return None
        if hook == "rid:header":      # send_message(self, body_header, ...)
            return lambda st, a: setattr(
                st, "rid", getattr(a[1], "request_id", None))
        if hook == "rid:arg":         # register(self, request_id)
            return lambda st, a: setattr(st, "rid", a[1])
        if hook == "rid:self":        # ReplyFuture.wait(self, ...)
            return lambda st, a: setattr(
                st, "rid", getattr(a[0], "request_id", None))
        if hook == "idle":            # recv_exact(self, n)
            return self._on_recv_exact
        if hook == "submit":
            return self._on_submit
        if hook == "dispatch":
            return self._on_dispatch
        raise ValueError(f"unknown hook {hook!r}")

    def _on_recv_exact(self, st, args) -> bool:
        """A blocking read of exactly one GIOP header is a reader
        waiting for its next message: book the span, and the reads
        under it, as idle."""
        if args[1] == self._header_size and st.redirect is None:
            st.redirect = self._idle_id
            return True
        return False

    def _on_submit(self, st, args) -> None:
        pool, message = args[0], args[2]
        st.rid = _request_id_of(message)
        self._submitted[id(message)] = perf_counter()
        # the request being submitted is not counted by the pool yet
        self.inflight_max = max(self.inflight_max, pool.inflight + 1)
        self.queue_depth_max = max(self.queue_depth_max,
                                   pool.queue_size + 1)

    def _on_dispatch(self, st, args) -> None:
        message = args[2]
        st.rid = _request_id_of(message)
        submitted = self._submitted.pop(id(message), None)
        if submitted is not None:
            # an interval between two threads: wall clock only
            st.self_s[self._queue_id] += perf_counter() - submitted
            st.count[self._queue_id] += 1

    # -- the shims -----------------------------------------------------------
    def _open(self) -> _ThreadState:
        """Push a span on the calling thread's stack."""
        st = self._state()
        if not st.stack:
            st.rid = None
        st.stack.append([st.next_sid, 0.0, 0.0])
        st.next_sid += 1
        return st

    def _close(self, st, mid, t0, c0, ends_call: bool) -> None:
        """Pop the innermost span, opened at wall ``t0`` and thread CPU
        ``c0``, and book its self time."""
        cpu = thread_time() - c0
        t1 = perf_counter()
        duration = t1 - t0
        sid, covered, covered_cpu = st.stack.pop()
        if st.redirect is not None:
            mid = st.redirect
        st.self_s[mid] += duration - covered
        st.cpu_s[mid] += cpu - covered_cpu
        if ends_call:
            st.count[mid] += 1
        parent = -1
        if st.stack:
            frame = st.stack[-1]
            parent = frame[0]
            frame[1] += duration
            frame[2] += cpu
        if len(st.spans) < SPAN_CAP:
            st.spans.append((sid, parent, mid, t0, t1, st.rid))

    def _wrap_sync(self, fn, mid, pre):
        open_span, close_span = self._open, self._close

        def shim(*args, **kwargs):
            st = open_span()
            redirects = pre(st, args) if pre is not None else False
            t0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(st, mid, t0, c0, True)
                if redirects:
                    st.redirect = None
        return shim

    def _wrap_count(self, fn, cid):
        state = self._state

        def shim(*args, **kwargs):
            state().count[cid] += 1
            return fn(*args, **kwargs)
        return shim

    def _wrap_async(self, fn, mid):
        tracer = self

        async def shim(*args, **kwargs):
            return await _TimedSteps(tracer, fn(*args, **kwargs), mid)
        return shim

    def _wrap_factory(self, fn, mid):
        wrap_async = self._wrap_async

        def shim(*args, **kwargs):
            made = fn(*args, **kwargs)
            if inspect.iscoroutinefunction(made):
                return wrap_async(made, mid)
            return made
        return shim

    # -- reporting -----------------------------------------------------------
    def reset(self) -> None:
        """Forget what was recorded so far.  Spans still open (a reader
        blocked for its next message) stay open and are booked when
        they close."""
        for st in self._states:
            st.self_s = [0.0] * len(st.self_s)
            st.cpu_s = [0.0] * len(st.cpu_s)
            st.count = [0] * len(st.count)
            st.spans = []
        self._submitted.clear()
        self.inflight_max = self.queue_depth_max = 0

    def report(self) -> dict:
        """Totals per metric over every thread, plus the kept spans."""
        totals = {}
        for mid, metric in enumerate(self.metrics):
            if metric.startswith("calls:"):
                continue
            totals[metric] = {
                "self_s": sum(st.self_s[mid] for st in self._states),
                "cpu_s": sum(st.cpu_s[mid] for st in self._states),
                "count": sum(st.count[mid] for st in self._states),
            }
        calls = {path: sum(st.count[cid] for st in self._states)
                 for path, cid in self._call_ids.items()}
        spans = []
        for st in self._states:
            rid_of = {}
            # children close before their parents, so walking backwards
            # meets a parent first and can hand its request id down
            for sid, parent, mid, t0, t1, rid in reversed(st.spans):
                if rid is None:
                    rid = rid_of.get(parent)
                rid_of[sid] = rid
                spans.append({"thread": st.index, "id": sid,
                              "parent": parent, "name": self.metrics[mid],
                              "start": t0, "end": t1, "rid": rid})
        return {"totals": totals, "missing": list(self.missing),
                "calls": calls, "inflight_max": self.inflight_max,
                "queue_depth_max": self.queue_depth_max, "spans": spans,
                "spans_capped_per_thread": SPAN_CAP}


class _TimedSteps:
    """Awaitable that drives a coroutine and times each of its steps.

    A step runs uninterrupted on one thread, so the thread's span stack
    nests correctly inside it however many tasks interleave between
    steps."""

    __slots__ = ("_tracer", "_coro", "_mid")

    def __init__(self, tracer: Tracer, coro, mid: int):
        self._tracer = tracer
        self._coro = coro
        self._mid = mid

    def __await__(self):
        tracer, coro, mid = self._tracer, self._coro, self._mid
        value = None
        error = None
        while True:
            st = tracer._open()
            t0 = perf_counter()
            c0 = thread_time()
            try:
                if error is not None:
                    pending, error = error, None
                    yielded = coro.throw(pending)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                tracer._close(st, mid, t0, c0, True)
                return stop.value
            except BaseException:
                tracer._close(st, mid, t0, c0, True)
                raise
            tracer._close(st, mid, t0, c0, False)
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:
                value, error = None, exc
