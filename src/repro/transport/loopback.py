"""In-process loopback transport with synchronous delivery.

Connects client and server ORBs living in the same process: a
``send()`` on one end synchronously invokes the peer's data handler, so
a complete request/reply cycle runs to completion inside the client's
call — no threads, deterministic, ideal for tests and single-process
examples.

The "wire" of this transport is one ``memoryview`` copy per direction
(standing in for the NIC's DMA); everything above it — the ORB layers —
still moves references only, so end-to-end byte identity plus a single
transport-level copy is the loopback analog of the paper's zero-copy
regime.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from typing import Callable, Optional

from .base import AcceptHandler, Endpoint, TransportError

__all__ = ["LoopbackTransport", "LoopbackStream", "LoopbackListener"]


class LoopbackStream:
    """One end of an in-process stream pair."""

    def __init__(self, name: str):
        self.name = name
        self.peer_stream: Optional["LoopbackStream"] = None
        self._rx: deque = deque()
        self._rx_bytes = 0
        self._closed = False
        self._suppress_notify = 0
        self._on_data: Optional[Callable[[], None]] = None
        self._lock = threading.RLock()
        #: transport-level bytes copied into receive buffers (the "DMA")
        self.bytes_received = 0
        self.bytes_sent = 0

    # -- wiring ---------------------------------------------------------------
    def set_data_handler(self, handler: Optional[Callable[[], None]]) -> None:
        """Register a callback invoked after new data is queued.

        The server side of a connection uses this to pump its GIOP
        read loop synchronously from the sender's thread.
        """
        self._on_data = handler
        if handler is not None and self._rx_bytes:
            handler()

    # -- sending ---------------------------------------------------------------
    def send(self, data) -> None:
        self.sendv([data])

    def sendv(self, chunks) -> None:
        peer = self.peer_stream
        if self._closed or peer is None or peer._closed:
            raise TransportError(f"loopback stream {self.name} is closed")
        total = 0
        with peer._lock:
            for chunk in chunks:
                view = chunk if isinstance(chunk, memoryview) \
                    else memoryview(chunk)
                if view.format != "B" or view.ndim != 1:
                    view = view.cast("B")
                if view.nbytes == 0:
                    continue
                # keep a private copy: the sender may reuse its buffer
                # after send() returns (socket semantics)
                peer._rx.append(bytes(view))
                peer._rx_bytes += view.nbytes
                total += view.nbytes
        self.bytes_sent += total
        if peer._on_data is not None and not peer._suppress_notify:
            peer._on_data()

    @contextmanager
    def send_batch(self):
        """Defer the peer's synchronous data-handler notification until
        the batch completes.

        Loopback delivery is synchronous: every ``sendv`` pumps the
        peer's GIOP read loop before returning.  A traced connection
        writes the control message and the deposit payloads as two
        timed ``sendv`` calls; batching them keeps the peer from
        reading a control message whose payloads are not queued yet —
        the loopback equivalent of one gather write.
        """
        peer = self.peer_stream
        if peer is None:
            yield
            return
        peer._suppress_notify += 1
        try:
            yield
        finally:
            peer._suppress_notify -= 1
            if not peer._suppress_notify and peer._on_data is not None \
                    and peer._rx_bytes:
                peer._on_data()

    # -- receiving ---------------------------------------------------------------
    @property
    def available(self) -> int:
        return self._rx_bytes

    def recv_exact(self, n: int) -> memoryview:
        out = bytearray(n)
        self.recv_into(memoryview(out))
        return memoryview(out)

    def recv_into(self, view: memoryview) -> None:
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        with self._lock:
            if view.nbytes > self._rx_bytes:
                raise TransportError(
                    f"loopback stream {self.name}: need {view.nbytes} "
                    f"bytes, only {self._rx_bytes} queued (peer closed or "
                    f"protocol error)")
            if view.nbytes:
                self.recv_into_nb(view)

    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        """What is queued, up to ``view.nbytes``: the count landed, None
        while nothing is (the next delivery pumps again), and
        :class:`TransportError` once nothing is and the stream is
        closed."""
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        with self._lock:
            need = min(view.nbytes, self._rx_bytes)
            if not need:
                if self._closed:
                    raise TransportError(
                        f"loopback stream {self.name} is closed")
                return None
            pos = 0
            while pos < need:
                chunk = self._rx[0]
                take = min(len(chunk), need - pos)
                view[pos:pos + take] = chunk[:take]
                pos += take
                if take == len(chunk):
                    self._rx.popleft()
                else:
                    self._rx[0] = chunk[take:]
                self._rx_bytes -= take
                # per-chunk counting, mirroring TCPStream.recv_into:
                # partial progress is never lost from the counter
                self.bytes_received += take
        return need

    def set_timeout(self, seconds) -> None:
        """Interface parity with TCP: loopback reads never block (they
        raise immediately when short of bytes), so this is a no-op."""

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        already = self._closed
        self._closed = True
        peer = self.peer_stream
        peer_was_open = peer is not None and not peer._closed
        if peer_was_open:
            peer._closed = True
        if already:
            return
        # wake both ends' data handlers: a reply demultiplexer pumped by
        # data arrival would otherwise never learn the stream died (a
        # loopback read never blocks, so there is no blocked read to
        # raise from) and its in-flight futures would hang forever
        if peer_was_open and peer._on_data is not None \
                and not peer._suppress_notify:
            peer._on_data()
        if self._on_data is not None and not self._suppress_notify:
            self._on_data()

    @property
    def peer(self) -> str:
        return self.peer_stream.name if self.peer_stream else "(unconnected)"


class LoopbackListener:
    def __init__(self, transport: "LoopbackTransport", endpoint: Endpoint,
                 on_accept: AcceptHandler):
        self._transport = transport
        self._endpoint = endpoint
        self.on_accept = on_accept

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def close(self) -> None:
        self._transport._listeners.pop(self._endpoint[1:], None)


#: every LoopbackTransport instance shares this map, so ORBs created
#: with independent transport registries can still reach each other
_GLOBAL_LISTENERS: dict = {}


class LoopbackTransport:
    """Process-wide loopback: listeners keyed by (host, port)."""

    scheme = "loop"

    _AUTO_PORT = itertools.count(9000)

    def __init__(self):
        self._listeners = _GLOBAL_LISTENERS
        self._conn_ids = itertools.count(1)

    def listen(self, host: str, port: int,
               on_accept: AcceptHandler) -> LoopbackListener:
        if port == 0:
            port = next(self._AUTO_PORT)
        key = (host, port)
        if key in self._listeners:
            raise TransportError(f"loopback endpoint {key} already bound")
        listener = LoopbackListener(self, (self.scheme, host, port), on_accept)
        self._listeners[key] = listener
        return listener

    def connect(self, endpoint: Endpoint,
                timeout: Optional[float] = None) -> LoopbackStream:
        # in-process rendezvous: the dial is instantaneous, so the
        # connect timeout is accepted for interface parity and ignored
        scheme, host, port = endpoint
        if scheme != self.scheme:
            raise TransportError(f"loopback cannot dial scheme {scheme!r}")
        listener = self._listeners.get((host, port))
        if listener is None:
            raise TransportError(f"nothing listening on loop!{host}:{port}")
        cid = next(self._conn_ids)
        client = LoopbackStream(f"loop-client-{cid}")
        server = LoopbackStream(f"loop-server-{cid}")
        client.peer_stream = server
        server.peer_stream = client
        listener.on_accept(server)
        return client
