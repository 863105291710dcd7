"""Transport abstraction: byte streams under the GIOP connection layer.

The ORB's ``GIOPConn`` (the MICO class of the same name, §4.2) talks to
one of these.  The interface is deliberately shaped for the zero-copy
regime:

* :meth:`Stream.sendv` is a gather-send, so a control message and the
  direct-deposit payloads that follow it are written without first
  being concatenated into a staging buffer;
* reads land payload bytes *directly into* a caller-supplied buffer —
  on real sockets this is ``socket.recv_into`` on the page-aligned
  landing buffer, the Python equivalent of the paper's
  speculative-defragmentation landing (§4.5).

Three implementations exist: in-process loopback, real TCP, and the
simulated-testbed transport.  They register under a scheme name; IORs
carry the scheme so one ORB can talk over all of them.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple

__all__ = ["Stream", "Listener", "Transport", "Endpoint", "TransportError",
           "TransportTimeout", "TransportRegistry", "registry"]

#: (scheme, host, port)
Endpoint = Tuple[str, str, int]


class TransportError(OSError):
    """Connection failures, resets, and protocol-level stream errors."""


class TransportTimeout(TransportError):
    """A stream deadline expired mid-operation (see ``set_timeout``).

    Distinct from :class:`TransportError` so the ORB can map it to the
    CORBA ``TIMEOUT`` system exception instead of ``COMM_FAILURE``.
    """


class Stream(Protocol):
    """A reliable, ordered byte stream.  It moves bytes: its owner
    serializes the writes (``GIOPConn._send_lock``) and counts what
    moved (``ConnStats``); a deposit channel stages and maps."""

    def send(self, data) -> None:
        """Write all of ``data`` (bytes-like)."""
        ...

    def sendv(self, chunks: Sequence) -> None:
        """Gather-write every chunk, in order, without staging copies."""
        ...

    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        """Read what is there now into ``view``, up to ``view.nbytes``:
        the count, None when a read would wait, TransportError at the
        end.  The ORB's one read (``GIOPConn._read_nb``), every drive's."""
        ...

    def close(self) -> None: ...

    @property
    def peer(self) -> str: ...

    # Optional capabilities (not part of the structural protocol),
    # feature-tested with ``getattr(stream, name, None)``:
    #
    # * the blocking ``recv_exact(n)`` / ``recv_into(view)``, which a
    #   stream's own protocol (the shm handshake) and tests read with;
    # * streams that can block indefinitely (TCP) expose
    #   ``set_timeout(seconds | None)``; a blocking operation that
    #   exceeds the timeout raises TransportTimeout;
    # * streams over a real socket expose
    #   ``send_file(fd, offset, count) -> bool``: send a file range
    #   without reading it into user space (``os.sendfile``), returning
    #   True on the kernel path or False after the byte-identical
    #   copying fallback ran.  Streams without it get file payloads as
    #   mapped views through ``sendv`` — the copy tier;
    # * a stream a thread may wait on in ``poll`` (a socket: tcp, shm,
    #   a fault-injected one) exposes ``fileno()``, and a client's is
    #   read by its waiting callers, then by the reactor's loop; one
    #   without (loopback, sim) delivers on the sender's thread
    #   (``set_data_handler``).  A socket stream's ``sendv(chunks,
    #   False)`` never waits: it returns None, or a callable writing
    #   the rest on a thread that may block.


class Listener(Protocol):
    """Accepts inbound streams and announces its bound endpoint."""

    @property
    def endpoint(self) -> Endpoint: ...

    def close(self) -> None: ...


#: server callback invoked with each accepted stream
AcceptHandler = Callable[[Stream], None]


class Transport(Protocol):
    """Factory for streams and listeners under one scheme.

    ``connect`` takes an optional ``timeout`` (seconds) bounding the
    dial; in-process transports ignore it, socket transports map expiry
    to :class:`TransportTimeout`.
    """

    scheme: str

    def connect(self, endpoint: Endpoint,
                timeout: Optional[float] = None) -> Stream: ...

    def listen(self, host: str, port: int,
               on_accept: AcceptHandler) -> Listener: ...


class TransportRegistry:
    """scheme -> transport instance, used by the ORB to resolve IORs."""

    def __init__(self):
        self._by_scheme: dict[str, Transport] = {}

    def register(self, transport: Transport) -> None:
        self._by_scheme[transport.scheme] = transport

    def get(self, scheme: str) -> Transport:
        try:
            return self._by_scheme[scheme]
        except KeyError:
            known = ", ".join(sorted(self._by_scheme)) or "(none)"
            raise TransportError(
                f"no transport registered for scheme {scheme!r} "
                f"(known: {known})") from None

    def __contains__(self, scheme: str) -> bool:
        return scheme in self._by_scheme


def registry() -> TransportRegistry:
    """A fresh registry pre-loaded with the built-in transports."""
    from .loopback import LoopbackTransport
    from .shm import ShmTransport
    from .tcp import TCPTransport

    reg = TransportRegistry()
    reg.register(LoopbackTransport())
    reg.register(TCPTransport())
    reg.register(ShmTransport())
    return reg
