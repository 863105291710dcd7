"""GIOPConn: GIOP message framing and direct-deposit choreography.

The class mirrors MICO's ``GIOPConn`` (§4.2).  Its send side implements
§4.4 (the direct-deposit sender): the control message — GIOP header,
request/reply header with deposit descriptors in the service context,
and the marshaled non-bulk parameters — is gather-written together with
the registered zero-copy payloads, which never pass through any staging
buffer.  Its receive side implements §4.5 (the direct-deposit
receiver): after parsing the control message it allocates page-aligned
buffers from the pool and reads each payload *directly into* its final
buffer, then hands the landed buffers to demarshaling, which only sets
references.

Framing note: like GIOP 1.2, the parameter body is aligned to 8 bytes
after the message header so in- and out-of-band parts compose; this is
a self-consistent deviation from 1.0/1.1 padding (DESIGN.md §6), stated
once, in :func:`repro.giop.messages.frame_message`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import select
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from time import monotonic
from typing import Callable, Dict, NamedTuple, Optional

from ..cdr import NATIVE_LITTLE, CDRDecoder, CDREncoder, MarshalContext
from ..core.buffers import (BufferPool, FileBackedBuffer, ZCBuffer,
                            default_pool)
from ..core.direct_deposit import (DepositError, DepositReceiver,
                                   DepositRegistry)
from ..giop import (GIOP_HEADER_SIZE, GIOPError, MsgType, ServiceContext,
                    decode_body, decode_header, encode_giop_header,
                    frame_message)
from ..giop.messages import MAX_DEPOSIT_NBYTES, MAX_MESSAGE_SIZE
from ..obs.events import WireEvent
from ..obs.flightrec import FlightRecorder
from ..obs.stages import STAGE_CONTROL_SEND, STAGE_DEPOSIT_SEND
from ..transport.base import Stream, TransportError, TransportTimeout
from ..transport.shm import SEND_REFERENCE, SEND_SHARED
from .exceptions import (COMM_FAILURE, MARSHAL, TIMEOUT, CompletionStatus,
                         SystemException)

__all__ = ["GIOPConn", "ReceivedMessage", "ConnStats"]


@dataclass
class ConnStats:
    """One connection's counters.  These fields are their one
    declaration: ``snapshot()``, the ``/metrics`` gauges
    (obs.httpexport) and the ``repro-top`` rows are derived from them,
    and ``Monitor::ConnStatsRec`` (services.monitor), a wire contract,
    is held to the same names in the same order by a drift test."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    deposits_sent: int = 0
    deposits_received: int = 0
    deposit_bytes_sent: int = 0
    deposit_bytes_received: int = 0
    #: resilience-layer counters (repro.orb.policy).  A proxy carries
    #: one ConnStats across reconnects, so these survive conn turnover.
    reconnects: int = 0
    retries: int = 0
    deposit_fallbacks: int = 0
    timeouts: int = 0
    #: the deposit tiers' counters, see :data:`DEPOSIT_TIERS`
    shm_deposits: int = 0
    shm_fallbacks: int = 0
    shm_shared_refs: int = 0
    shm_references: int = 0
    sendfile_sends: int = 0
    sendfile_fallbacks: int = 0
    #: the lock the owning connection mutates these counters under
    #: (its ``_send_lock``); :meth:`snapshot` copies while holding it.
    #: None (a stats object not yet adopted by a conn) copies bare.
    owner_lock: Optional[threading.Lock] = \
        dataclasses.field(default=None, repr=False, compare=False)

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter.

        The counters are written under the owning connection's send
        lock but historically read lock-free by dump paths; taking
        :attr:`owner_lock` here makes one scrape see one coherent
        point in time (no torn messages/bytes pairs mid-send).
        """
        with self.owner_lock or nullcontext():
            return {f: getattr(self, f) for f in self._COUNTER_FIELDS}


ConnStats._COUNTER_FIELDS = tuple(
    f.name for f in dataclasses.fields(ConnStats) if f.name != "owner_lock")


class DepositTier(NamedTuple):
    """How one deposit tier is counted and shown: the ConnStats counter
    of the payloads it carried (``sent``) and of those it handed back
    to the copying path (``fallback``; None: it never refuses), its
    ``repro-top`` row ``label``, and whether the registry mirror of its
    counters, ``<counter>_total``, carries ``op="send"|"recv"``.
    ``subset_of`` names the counter that already includes this tier's
    payloads.  The tier's *behaviour* stays code
    (``_send_carrying``, ``_land_deposits``): one gather write carries
    control and memory payloads of several tiers, which a per-payload
    dispatch would have to split."""

    sent: str
    fallback: Optional[str]
    label: str
    by_op: bool
    subset_of: Optional[str] = None


DEPOSIT_TIERS = (
    # repro.transport.shm: through an arena slot, or the channel's
    # per-deposit inline fallback; counted on the send and receive side
    DepositTier("shm_deposits", "shm_fallbacks", "shm slots", by_op=True),
    # a record naming a slot another connection's payload write already
    # filled (pub/sub single-copy delivery)
    DepositTier("shm_shared_refs", None, "shm shared refs", by_op=True,
                subset_of="shm_deposits"),
    # a slot the payload was marshaled into, posted with no copy: the
    # zero-copy send (encode-into-arena, ``ZCOctetSequence.in_arena``)
    DepositTier("shm_references", None, "shm references", by_op=False,
                subset_of="shm_deposits"),
    # FileBackedBuffer at or above the sendfile threshold: kernel-path
    # sends vs copying fallbacks (syscall missing, not a real socket,
    # or the platform refused)
    DepositTier("sendfile_sends", "sendfile_fallbacks", "sendfile",
                by_op=False),
)
#: every tier counter -> whether its registry series is labelled by op
_TIER_COUNTERS = {c: t.by_op for t in DEPOSIT_TIERS
                  for c in (t.sent, t.fallback) if c is not None}


@dataclass
class ReceivedMessage:
    """A fully received GIOP message with its landed deposits, and the
    plain numbers of its read (clock readings only under a sink), for
    the span that owns it to stamp."""

    msg_type: MsgType
    little_endian: bool
    #: RequestHeader / ReplyHeader / ..., None for a type without one
    body_header: Optional[object]
    #: the body's decoder, at the parameters (None with no body header)
    body: Optional[CDRDecoder]
    deposits: Dict[int, ZCBuffer] = field(default_factory=dict)
    deposit_flags: Dict[int, int] = field(default_factory=dict)
    #: the sink's clock when the GIOP header was in and when the
    #: control message was, its GIOP headers + bodies as read (each
    #: fragment once), and their count
    began: float = 0.0
    arrived: float = 0.0
    wire_nbytes: int = 0
    fragments: int = 1
    #: time and bytes of landing the deposits (0 when there were none)
    landing_s: float = 0.0
    landed_nbytes: int = 0

    @property
    def msg(self) -> "ReceivedMessage":
        """This record: ``benchmarks/e2e/trace.py`` (``_request_id_of``)
        still reads ``rm.msg.body_header``; nothing else may."""
        return self

    def wire_event(self) -> WireEvent:
        """This message as the wire log shows it."""
        body_header = self.body_header
        descs = body_header.deposit_descriptors() \
            if getattr(body_header, "service_contexts", None) else ()
        return WireEvent(
            direction="recv", msg_type=self.msg_type.name,
            size=self.wire_nbytes - GIOP_HEADER_SIZE * self.fragments,
            request_id=getattr(body_header, "request_id", None),
            fragments=self.fragments,
            deposits=tuple((d.deposit_id, d.size) for d in descs))

    def release(self) -> None:
        """Nobody will ever demarshal this message: its landed deposit
        buffers go back to the pool."""
        for buf in self.deposits.values():
            try:
                buf.release()
            except Exception:  # noqa: BLE001 - already released is fine
                pass


def _emitted_after(send, sink: FlightRecorder, event: WireEvent):
    """Run the rest of a send, then log the message it wrote
    (:meth:`GIOPConn.send_message`)."""
    out = send()
    sink.emit(event)
    return out


def _released_after(send, ctx: MarshalContext):
    """Run the rest of a send, then give back the arena slots its
    marshaling leased (:meth:`GIOPConn.send_message`)."""
    try:
        return send()
    finally:
        ctx.release_staged()


class GIOPConn:
    """One GIOP connection over a transport stream."""

    def __init__(self, stream: Stream, *, pool: Optional[BufferPool] = None,
                 zero_copy: bool = True, generic_loop: bool = False,
                 little_endian: bool = NATIVE_LITTLE,
                 on_bytes: Optional[Callable[[str, int], None]] = None,
                 orb=None, fragment_size: int = 0,
                 stats: Optional[ConnStats] = None,
                 sink: Optional[FlightRecorder] = None,
                 sendfile_min_size: int = 256 * 1024):
        self.stream = stream
        self.pool = pool or default_pool()
        self.zero_copy = zero_copy
        self.generic_loop = generic_loop
        self.little_endian = little_endian
        self.on_bytes = on_bytes
        #: the ORB's span producer (repro.obs.FlightRecorder): stages
        #: are stamped into it, and GIOP messages handed to it while it
        #: has a wire log; None keeps the data path free of
        #: instrumentation
        self.sink = sink
        self.orb = orb
        #: GIOP 1.1 fragmentation: split control messages whose body
        #: exceeds this many bytes (0 = never fragment).  Deposit
        #: payloads are never fragmented — they are the data path.
        self.fragment_size = fragment_size
        #: file-backed payloads at or above this size take the sendfile
        #: tier (when the stream has one); below it they travel as
        #: mapped views through the ordinary gather write
        self.sendfile_min_size = sendfile_min_size
        self._req_ids = itertools.count(1)
        self._send_lock = threading.Lock()
        #: True once the connection can carry no further message.  Every
        #: layer reads it on every message, hence a plain attribute;
        #: only this class and the loop's drive of its reads
        #: (reactor._ConnDriver, see start_reading) write it.
        self.closed = False
        #: callbacks run exactly once when close() fires — the reactor
        #: registers one to detach its fd reader before the fd dies.
        #: Guarded by a dedicated lock, NOT _send_lock: close() can be
        #: re-entered from *inside* a send (a fault mid-sendv closes a
        #: synchronous-delivery stream, whose peer pump then closes the
        #: conn on the same thread, with _send_lock already held)
        self._close_hooks: list = []
        self._hooks_lock = threading.Lock()
        self._hooks_fired = False
        #: the message being read, whoever reads it: its parse, the read
        #: it asked for and how much of that is in (a reader that stops
        #: inside a message leaves it for the next), and a poll object
        self._gen = self._want = self._poll = None
        self._exact = False
        self._filled = 0
        #: a caller-supplied ConnStats survives reconnects (the proxy
        #: hands the same object to each replacement connection)
        self.adopt_stats(stats if stats is not None else ConnStats())

    def adopt_stats(self, stats: ConnStats) -> None:
        """Make ``stats`` this connection's counters; its
        :meth:`ConnStats.snapshot` copies under our send lock from
        here on."""
        self.stats = stats
        stats.owner_lock = self._send_lock

    # -- request ids ------------------------------------------------------------
    def next_request_id(self) -> int:
        return next(self._req_ids)

    # -- marshaling contexts ------------------------------------------------------
    def make_marshal_context(self, force_copy: bool = False
                             ) -> MarshalContext:
        """Context for marshaling one outgoing message's parameters.

        ``force_copy`` suppresses the deposit registry for this one
        message, so zero-copy sequences travel inline by copy — the
        graceful-degradation path a retry takes after a deposit payload
        was interrupted mid-stream.
        """
        registry = DepositRegistry() \
            if (self.zero_copy and not force_copy) else None
        arena = None
        if registry is not None:
            # encode-into-arena (DESIGN.md §12): when the transport has a
            # shared-memory deposit channel, marshaling stages zero-copy
            # payloads straight into leased slots so the send is a pure
            # slot reference
            channel = getattr(self.stream, "deposit_channel", None)
            if channel is not None:
                arena = getattr(channel, "send_arena", None)
        return MarshalContext(registry=registry, on_bytes=self.on_bytes,
                              generic_loop=self.generic_loop, orb=self.orb,
                              arena=arena)

    def body_encoder(self) -> CDREncoder:
        """Parameter encoder; offset 0 is 8-aligned by framing."""
        return CDREncoder(little_endian=self.little_endian, offset=0)

    # -- sending ---------------------------------------------------------------
    def send_message(self, body_header, params=b"",
                     ctx: Optional[MarshalContext] = None,
                     block: bool = True):
        """Encode and write one message plus its deposit payloads.

        ``params`` is the marshaled parameter body: a bytes-like blob,
        or a :class:`CDREncoder` whose chunk plan is gather-written
        as-is — header chunks and parameter chunks go to one
        ``sendv`` with no join, so a large inline payload travels
        from the application buffer to the socket with zero
        middleware copies.  ``block=False`` (an event loop) never
        waits: what would have comes back as a callable for a thread
        that may block.
        """
        rest = None
        try:
            # The trunk here and in _send_locked is the message that
            # carries nothing but itself — no deposit, no fragmentation:
            # encode, one sendv, count.  What a message does not carry
            # it does not pay for; the deposit channel and the sendfile
            # tier branch off into _send_carrying.
            payloads: list = []
            if ctx is not None and ctx.descriptors:
                if ctx.registry is None:
                    raise MARSHAL(
                        message="deposit descriptors without registry")
                contexts = getattr(body_header, "service_contexts", None)
                if contexts is None:
                    raise MARSHAL(message=(f"{type(body_header).__name__} "
                                           f"cannot carry deposits"))
                for desc in ctx.descriptors:
                    contexts.append(ServiceContext.for_deposit(desc))
                payloads = [view for _, view in ctx.registry.drain()]

            if isinstance(params, CDREncoder):
                params_nbytes = params.nbytes
                param_chunks = params.chunks() if params_nbytes else []
            else:
                params_nbytes = len(params)
                param_chunks = [params] if params_nbytes else []

            chunks, n_fragments, body_nbytes = frame_message(
                body_header, param_chunks, params_nbytes, self.little_endian,
                self.fragment_size)
            # GIOP headers plus body pieces: the true control-path wire
            # bytes, however many fragment headers went out
            control_nbytes = GIOP_HEADER_SIZE * n_fragments + body_nbytes
            rest = self._send_locked(chunks, control_nbytes, payloads, block)
            sink = self.sink
            if sink is not None and sink.wire is not None:
                # the wire log's record of what was written, built after
                # the write: observing it changes nothing the write does
                descs = ctx.descriptors if ctx is not None else ()
                event = WireEvent(
                    direction="send", msg_type=body_header.MSG_TYPE.name,
                    size=body_nbytes,
                    request_id=getattr(body_header, "request_id", None),
                    fragments=n_fragments,
                    deposits=tuple((d.deposit_id, d.size) for d in descs))
                if rest is None:
                    sink.emit(event)
                else:
                    rest = partial(_emitted_after, rest, sink, event)
            if rest is not None and ctx is not None and ctx.staged:
                rest = partial(_released_after, rest, ctx)
            return rest
        finally:
            if ctx is not None and ctx.staged and rest is None:
                # arena slots leased by encode-into-arena staging: a
                # posted slot's release is a no-op, an unsent one goes
                # back to the arena even when the send failed (a send
                # left for later gives them back when it is done)
                ctx.release_staged()

    def _send_locked(self, chunks: list, control_nbytes: int, payloads: list,
                     block: bool = True, tail=None):
        """The half of a send under the send lock: write, stamp, count,
        map transport errors.  With ``block=False`` nothing here waits;
        what would have is returned for a thread that may block: all of
        it, the send lock free, when the lock is contended or a payload
        takes a tier (a deposit channel or sendfile may wait); or the
        wait for ``tail``, a half-written message, the send lock still
        held so that nothing interleaves.

        The writes depend on the payloads alone, never on who observes
        them: memory payloads ride the control message's gather write,
        whose time, with a sink, is stamped as ``control-send`` and
        ``deposit-send`` split by their bytes (a copy-path message
        stamps a zero-byte ``deposit-send``), failed or not."""
        # one gather write of the chunks and the memory payloads: no
        # deposit channel, no sendfile tier
        gathered = not (payloads and (
            getattr(self.stream, "deposit_channel", None) is not None
            or any(isinstance(p, FileBackedBuffer) for p in payloads)))
        deposit_nbytes = sum(v.nbytes for v in payloads) if payloads else 0
        out = None
        try:
            if tail is None and not ((block or gathered)
                                     and self._send_lock.acquire(block)):
                return partial(self._send_locked, chunks, control_nbytes,
                               payloads)
            try:
                if tail is not None:
                    out = tail()
                elif not gathered:
                    out = self._send_carrying(chunks, control_nbytes,
                                              payloads, deposit_nbytes)
                else:
                    if payloads:
                        chunks = chunks + payloads
                    sink = self.sink
                    t0 = sink.clock() if sink is not None else 0.0
                    try:
                        out = self.stream.sendv(chunks) if block \
                            else self.stream.sendv(chunks, False)
                    finally:
                        if sink is not None:
                            # one write: its time is split by bytes
                            per_byte = (sink.clock() - t0) \
                                / (control_nbytes + deposit_nbytes)
                            sink.stamp(STAGE_CONTROL_SEND,
                                       per_byte * control_nbytes,
                                       control_nbytes)
                            sink.stamp(STAGE_DEPOSIT_SEND,
                                       per_byte * deposit_nbytes,
                                       deposit_nbytes)
                if callable(out):
                    # on a thread of its own, now: queued on a pool it
                    # could sit behind the jobs waiting for this lock
                    own = ThreadPoolExecutor(1, "giop-send-tail")
                    job = own.submit(self._send_locked, chunks, control_nbytes,
                                     payloads, tail=out)
                    own.shutdown(wait=False)
                    return job.result
                # still under the send lock: pipelined calls send
                # concurrently, and unserialized += on the shared
                # counters would lose updates
                stats = self.stats
                stats.messages_sent += 1
                stats.bytes_sent += control_nbytes
                if payloads:
                    stats.deposits_sent += len(payloads)
                    stats.deposit_bytes_sent += deposit_nbytes
                    if out is not None:
                        self._fold(out[0])
            finally:
                if not callable(out):  # else the lock goes with the tail
                    self._send_lock.release()
        except TransportTimeout as e:
            # an incompletely sent GIOP message can never execute
            self.closed = True
            self.stats.timeouts += 1
            raise TIMEOUT(completed=CompletionStatus.COMPLETED_NO,
                          message=str(e)) from e
        except TransportError as e:
            self.closed = True
            raise COMM_FAILURE(message=str(e)) from e
        if payloads:
            if out is not None:
                self._mirror_tiers("send", *out)
            if self.on_bytes is not None:
                for view in payloads:
                    self.on_bytes("deposit-send", view.nbytes)

    def _send_carrying(self, chunks: list, control_nbytes: int,
                       payloads: list, deposit_nbytes: int):
        """Send a control message whose payloads take a tier: a deposit
        channel or sendfile; runs under the send lock and may wait.
        Returns what the payloads did, one tally per tier counter (named
        as in :class:`ConnStats`), and their shm slot waits.

        On a stream with a deposit channel (shared memory) the message
        is one gather write: each payload is staged first (an arena
        slot, or its view for the per-deposit inline fallback), then
        control chunks and deposit records leave together, and a write
        that fails gives the staged slots back; ``deposit-send`` times
        the staging.  Otherwise a file payload is on board, and the send
        is two steps — control, then each payload through its tier
        (sendfile, gather write) — with the same byte order on the wire;
        the peer's parse waits for payload bytes a later write brings.
        """
        stream, sink = self.stream, self.sink
        channel = getattr(stream, "deposit_channel", None)
        carried, slot_waits = dict.fromkeys(_TIER_COUNTERS, 0), []
        t0 = sink.clock() if sink is not None else 0.0
        if channel is not None:
            records, slots = [], []
            for p in payloads:
                tier, waited, record, slot = channel.send_deposit(
                    p.view() if isinstance(p, FileBackedBuffer) else p)
                records += record
                slots.append(slot)
                slot_waits.append(waited)
                carried["shm_deposits" if tier else "shm_fallbacks"] += 1
                carried["shm_shared_refs"] += tier == SEND_SHARED
                carried["shm_references"] += tier == SEND_REFERENCE
            t1 = sink.clock() if sink is not None else 0.0
            try:
                stream.sendv(chunks + records)
            except BaseException:
                # no reader will map what was posted or claimed above
                for slot in slots:
                    if slot >= 0:
                        channel.send_arena.free(slot)
                raise
            finally:
                if sink is not None:  # deposit-send times the staging
                    sink.stamp(STAGE_CONTROL_SEND, sink.clock() - t1,
                               control_nbytes)
                    sink.stamp(STAGE_DEPOSIT_SEND, t1 - t0, deposit_nbytes)
            return carried, slot_waits
        t1 = None
        try:
            stream.sendv(chunks)
            t1 = sink.clock() if sink is not None else 0.0
            # memory payloads batch into gather writes; file-backed ones
            # break the run to take their own tier
            run: list = []
            for p in payloads:
                if isinstance(p, FileBackedBuffer):
                    if run:
                        stream.sendv(run)
                        run = []
                    self._send_file_payload(p, carried)
                else:
                    run.append(p)
            if run:
                stream.sendv(run)
        finally:
            if sink is not None:
                t2 = sink.clock()
                if t1 is None:  # the control write itself failed
                    t1 = t2
                sink.stamp(STAGE_CONTROL_SEND, t1 - t0, control_nbytes)
                sink.stamp(STAGE_DEPOSIT_SEND, t2 - t1, deposit_nbytes)
        return carried, slot_waits

    def _send_file_payload(self, fbb: FileBackedBuffer,
                           carried: dict) -> None:
        """The sendfile tier: at or above the threshold a stream with
        ``send_file`` pushes the range fd-to-socket (True) or runs its
        byte-identical copying fallback (False); a stream without one —
        loopback, sim, faulty — counts as a fallback too.  Below the
        threshold the payload is an ordinary mapped-view gather write,
        no sendfile accounting."""
        if fbb.nbytes >= self.sendfile_min_size:
            send_file = getattr(self.stream, "send_file", None)
            if send_file is not None:
                if send_file(fbb.fd, fbb.offset, fbb.nbytes):
                    carried["sendfile_sends"] += 1
                else:
                    carried["sendfile_fallbacks"] += 1
                return
            carried["sendfile_fallbacks"] += 1
        self.stream.sendv([fbb.view()])

    def _fold(self, carried: dict) -> None:
        """Add one message's tier tallies to the counters (the caller
        holds whatever guards them)."""
        stats = self.stats
        for counter, n in carried.items():
            if n:
                setattr(stats, counter, getattr(stats, counter) + n)

    def _mirror_tiers(self, op: str, carried: dict, slot_waits=()) -> None:
        """Mirror one message's tier tallies into the ORB's metrics
        registry (present once ``enable_tracing`` ran)."""
        registry = getattr(self.orb, "metrics", None)
        if registry is None:
            return
        for counter, n in carried.items():
            if n:
                labels = {"op": op} if _TIER_COUNTERS[counter] else {}
                registry.counter(f"{counter}_total", **labels).inc(n)
        if slot_waits:
            hist = registry.histogram("shm_slot_wait_seconds")
            for waited in slot_waits:
                hist.observe(waited)

    def send_close(self) -> None:
        header = encode_giop_header(MsgType.CloseConnection, 0,
                                    self.little_endian)
        try:
            with self._send_lock:
                self.stream.send(header)
        except TransportError:
            pass
        self.closed = True

    def send_error(self, block: bool = True) -> None:
        """Tell the peer it sent garbage (the caller closes next).
        ``block=False`` (the loop) waits for nothing: the courtesy goes
        out if the send lock is free and the socket takes it at once,
        and is dropped if not."""
        header = encode_giop_header(MsgType.MessageError, 0,
                                    self.little_endian)
        if not self._send_lock.acquire(block):
            return
        try:
            if block:
                self.stream.send(header)
            else:  # the rest of a write the socket did not take: dropped
                self.stream.sendv([header], False)
        finally:
            self._send_lock.release()

    # -- receiving ---------------------------------------------------------------
    def start_reading(self, on_message: Callable, on_error: Callable, *,
                      reactor=None, name: str = "giop-reader"
                      ) -> Optional[threading.Thread]:
        """Read this connection until it ends.  The one place a read
        drive is chosen, and the one statement of what a drive owes the
        code above it:

        ======  ==============================  =========================
        drive   chosen when                     ``on_message`` may block
        ======  ==============================  =========================
        pump    the stream delivers in the      yes: it runs on the
                sender's thread (it has         sender's thread, under
                ``set_data_handler``:           :class:`_PumpGuard`
                loopback, sim)
        loop    the owner offers a ``reactor``  no: it runs on the
                (a client's hand-over; a        reactor's loop thread
                server's with a pool)
        thread  anything else (only a           yes: a daemon thread of
                ``workers=0`` server)           its own, named ``name``
        ======  ==============================  =========================

        Returns the reader thread for the owner to join after
        :meth:`close`, None for the other two drives (DESIGN.md §10).
        Each drive reads with :meth:`_read_nb`, the thread after a
        ``poll`` (:meth:`read_message`).

        Every message goes to ``on_message(rm)``; the loop also passes
        its driver, ``on_message(rm, driver)``, whose presence means
        *nothing here may wait* and whose ``pause()`` / ``resume()`` are
        the back-pressure a blocked reader thread gives for free.  Every
        other way reading can end reaches ``on_error(exc)`` (from the
        loop ``on_error(exc, driver)``) exactly once, with the
        connection already marked closed: a transport error a read
        meets, a closed loopback stream's included (mapped by the parser
        to ``COMM_FAILURE``), a :class:`GIOPError` or ``MARSHAL`` the
        parser raises by itself over what a peer sent.  The owner's own
        :meth:`close`, seen between two messages, ends reading silently.
        Routing, failure mapping and the stages of a message's read
        (stamped by the span that owns it, from the numbers on the
        :class:`ReceivedMessage`) belong to the callbacks and do not
        depend on the drive.
        """
        stream = self.stream
        set_handler = getattr(stream, "set_data_handler", None)
        if set_handler is not None:
            # several threads deliver (callers pipelining, workers
            # replying, a peer closing): the guard lets one pump at a
            # time and turns a delivery meanwhile into a re-run
            set_handler(_PumpGuard(partial(
                self._read_messages, on_message, on_error, True)))
        elif reactor is not None:
            reactor.adopt(self, on_message, on_error)
        else:
            thread = threading.Thread(
                target=self._read_messages, name=name, daemon=True,
                args=(on_message, on_error, False))
            thread.start()
            return thread
        return None

    def _read_messages(self, on_message, on_error, pumped: bool) -> None:
        """The pump and the reader thread: the next message until the
        connection ends (``pumped``: or what was delivered is read)."""
        read = self._read_nb if pumped else self.read_message
        while not self.closed:
            try:
                rm = read()
            except (GIOPError, SystemException) as exc:
                on_error(exc)
                return
            if rm is None:
                return  # drained; the next delivery pumps again
            on_message(rm)

    def read_message(self, timeout: float = math.inf
                     ) -> Optional[ReceivedMessage]:
        """The next message, its deposits landed (the MICO ``do_read``
        path with the direct-deposit callback of §4.5), read on this
        thread: ``poll``, then :meth:`_read_nb`, until it is in; None
        once ``timeout`` passed, leaving the parse to the next reader.
        A stream with nothing to poll (loopback, sim) holds all that was
        sent to it, and a closed connection gets no more: there, what is
        missing fails the read."""
        poll = self._poll
        if poll is None and not self.closed:
            fileno = getattr(self.stream, "fileno", None)
            if fileno is not None:
                poll = self._poll = select.poll()
                poll.register(fileno(), select.POLLIN)
        end = monotonic() + timeout
        while True:
            ms = -1 if end == math.inf else \
                max(0, math.ceil((end - monotonic()) * 1e3))
            # a closed connection goes straight to the read, to fail
            if not (self.closed or poll is None or poll.poll(ms)):
                return None
            rm = self._read_nb()
            if rm is not None or not ms:
                return rm
            if poll is None or self.closed:
                return self._read_nb(TransportError(
                    f"{self.stream.peer}: the message is cut short"))

    def _read_nb(self, error: Optional[BaseException] = None
                 ) -> Optional[ReceivedMessage]:
        """Feed the parse what the stream has now: the next message, or
        None once a read would wait.  Every drive's read: the pump's and
        the loop's directly, a reader thread's and a caller's after each
        ``poll``.  A failed read is thrown in for the parse to map
        (``error``: the staged read fails with it); what the parse
        raises closes."""
        if self._gen is None:
            self._gen, self._want = self._read_message_gen(), None
        gen, value, exc = self._gen, None, error
        if error is not None:
            self._want = None
        while True:
            want = self._want
            if want is None:  # resume the parse, stage the read it asks
                try:
                    req = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    self._gen = None
                    return stop.value
                except BaseException:
                    self._gen = None
                    self.closed = True
                    raise
                want, self._exact = req[1], req[0] == "exact"
                if self._exact:
                    want = memoryview(bytearray(want))
                elif want.format != "B" or want.ndim != 1:
                    want = want.cast("B")
                if not want.nbytes:  # an empty body or payload: no I/O
                    value, exc = (want if self._exact else None), None
                    continue
                self._want, self._filled = want, 0
            try:
                n = self.stream.recv_into_nb(want[self._filled:])
            except BaseException as failed:
                self._want, value, exc = None, None, failed
                continue
            if n is None:
                return None
            self._filled += n
            if self._filled == want.nbytes:
                self._want, value, exc = None, (want if self._exact else None), None

    def _read_message_gen(self):
        """Resumable GIOP parse: yields read requests, returns the
        :class:`ReceivedMessage` (via ``StopIteration.value``).

        Yielded requests (:meth:`_read_nb` performs the I/O):

        * ``("exact", n)`` — read exactly ``n`` bytes, send back the
          ``memoryview``;
        * ``("into", view)`` — fill ``view`` completely (direct-deposit
          landing, §4.5), send back None.

        Transport errors the read meets are ``throw()``-n into the
        generator at the yield point, so the except clauses below map
        them to CORBA exceptions identically for every drive.

        The read stamps nothing, on any drive: the thread that reads a
        message cannot know whose span it belongs to.  With a sink, its
        numbers ride on the message (header in, control message in,
        wire bytes, landing time and bytes), for the span that owns it
        to stamp; the wire log, if any, hears it here, once.
        """
        fragments = 1
        sink = self.sink
        began = arrived = 0.0
        wire_nbytes = 0
        try:
            raw_header = (yield ("exact", GIOP_HEADER_SIZE))
            # the parse of the next message is begun before its bytes
            # come: the idle before them is not its read
            if sink is not None:
                began = sink.clock()
            # a size over MAX_MESSAGE_SIZE is refused by the decode
            header = decode_header(raw_header)
            body = (yield ("exact", header.size)) if header.size \
                else memoryview(b"")
            # wire accounting: headers + bodies actually read, NOT
            # the reassembled size (each fragment counts exactly once)
            wire_nbytes = GIOP_HEADER_SIZE + header.size
            # GIOP 1.1 reassembly: Fragment messages continue the
            # body.  One growing bytearray takes each fragment in
            # amortized O(1), so a 256-fragment message costs
            # linear copy work — rebuilding the accumulator per
            # fragment would be O(n^2) in the total size.  The first
            # header, its more-fragments flag set, frames the whole.
            assembled: Optional[bytearray] = None
            more_fragments = header.more_fragments
            while more_fragments:
                frag_header = decode_header(
                    (yield ("exact", GIOP_HEADER_SIZE)))
                if frag_header.msg_type is not MsgType.Fragment:
                    raise GIOPError(
                        f"expected Fragment continuation, got "
                        f"{frag_header.msg_type.name}")
                # the body bytes read so far, and this fragment's
                if wire_nbytes - GIOP_HEADER_SIZE * fragments \
                        + frag_header.size > MAX_MESSAGE_SIZE:
                    raise GIOPError(
                        f"fragment chain over the {MAX_MESSAGE_SIZE}-byte "
                        f"bound")
                if assembled is None:
                    assembled = bytearray(body)
                assembled += (yield ("exact", frag_header.size))
                wire_nbytes += GIOP_HEADER_SIZE + frag_header.size
                fragments += 1
                more_fragments = frag_header.more_fragments
            if assembled is not None:
                body = memoryview(assembled)
        except GIOPError:
            # the stream position is undefined after a framing error:
            # this connection can never resynchronize
            self.closed = True
            raise
        except TransportError as e:
            self.closed = True
            raise COMM_FAILURE(message=str(e)) from e
        if sink is not None:
            arrived = sink.clock()
        self.stats.messages_received += 1
        self.stats.bytes_received += wire_nbytes
        body_header, dec = decode_body(header, body)
        rm = ReceivedMessage(header.msg_type, header.little_endian,
                             body_header, dec, began=began, arrived=arrived,
                             wire_nbytes=wire_nbytes, fragments=fragments)
        # only Request and Reply headers have a service-context list,
        # and only a non-empty one can name deposits
        if getattr(body_header, "service_contexts", None):
            descriptors = body_header.deposit_descriptors()
            if descriptors:
                yield from self._land_deposits(descriptors, rm)
        if sink is not None and sink.wire is not None:
            sink.emit(rm.wire_event())
        return rm

    def _land_deposits(self, descriptors, rm: ReceivedMessage):
        """The direct-deposit receiver (§4.5) as a sub-generator of
        :meth:`_read_message_gen`: entered only by a message whose
        header names deposits.  Yields the same read requests and fills
        ``rm.deposits`` / ``rm.deposit_flags`` by deposit id."""
        channel = getattr(self.stream, "deposit_channel", None)
        receiver = DepositReceiver(self.pool, channel=channel)
        landed = {"shm_deposits": 0, "shm_fallbacks": 0}
        sink = self.sink
        t0 = sink.clock() if sink is not None else 0.0
        deposits = rm.deposits
        try:
            # every descriptor is accepted before a byte behind them is
            # read: a refused message must not wait for bytes never sent
            if sum(d.size for d in descriptors) > MAX_DEPOSIT_NBYTES:
                raise DepositError(f"deposits over the {MAX_DEPOSIT_NBYTES}"
                                   f"-byte bound")
            if channel is None:
                landings = [receiver.prepare(desc) for desc in descriptors]
            elif len({d.deposit_id for d in descriptors}) < len(descriptors):
                raise DepositError("duplicate deposit id")
            for i, desc in enumerate(descriptors):
                # the payload lands in its final buffer; in shared memory
                # a record maps it (an arena slot) or names it (inline)
                buf = landings[i] if channel is None else receiver.land(
                    desc, (yield ("exact", channel.RECORD_SIZE)))
                if channel is not None:
                    landed["shm_deposits" if buf is None
                           else "shm_fallbacks"] += 1
                if buf is not None:
                    yield ("into", buf.view())
                rm.landed_nbytes += desc.size
                if self.on_bytes is not None:
                    self.on_bytes("deposit-recv", desc.size)
            for desc in descriptors:
                deposits[desc.deposit_id] = receiver.complete(
                    desc.deposit_id)
                rm.deposit_flags[desc.deposit_id] = desc.flags
        except DepositError as e:
            # malformed descriptors (duplicate id, unsatisfiable
            # alignment) or a record that lies: the stream is
            # desynchronized — return every landed buffer to the pool
            # (and slot to its arena) and drop the connection
            receiver.abort()
            self.close()
            raise MARSHAL(completed=CompletionStatus.COMPLETED_MAYBE,
                          message=f"deposit protocol violation: {e}"
                          ) from e
        except TransportError as e:
            # interrupted mid-landing: the page-aligned buffers go
            # straight back to the pool — zero-copy never leaks
            receiver.abort()
            self.closed = True
            raise COMM_FAILURE(message=str(e)) from e
        finally:
            if sink is not None:
                rm.landing_s = sink.clock() - t0
        self.stats.deposits_received += len(deposits)
        self.stats.deposit_bytes_received += sum(
            b.length for b in deposits.values())
        if channel is not None:
            self._fold(landed)
            self._mirror_tiers("recv", landed)

    # -- lifecycle ---------------------------------------------------------------
    def add_close_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once when this connection closes (idempotent
        across repeated close() calls).  If the connection is already
        closed the hook runs immediately."""
        run_now = False
        with self._hooks_lock:
            if self._hooks_fired:
                run_now = True
            else:
                self._close_hooks.append(fn)
        if run_now:
            fn()

    def close(self) -> None:
        self.closed = True
        with self._hooks_lock:
            hooks, self._close_hooks = self._close_hooks, []
            self._hooks_fired = True
        for fn in hooks:
            try:
                fn()
            except Exception:
                pass
        self.stream.close()


class _PumpGuard:
    """Callable wrapper serializing a pump across threads.

    A notification during an active drain flags a re-run; the active
    drainer loops, so no wakeup is lost and the pump never runs
    re-entrantly (a nested close-notification would otherwise recurse
    into a half-consumed stream)."""

    __slots__ = ("_fn", "_lock", "_pending")

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn
        self._lock = threading.Lock()
        self._pending = False

    def __call__(self) -> None:
        self._pending = True
        while self._pending:
            if not self._lock.acquire(blocking=False):
                return
            try:
                self._pending = False
                self._fn()
            finally:
                self._lock.release()
