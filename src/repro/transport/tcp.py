"""Real TCP sockets transport.

The genuine-article transport: ``sendmsg`` gather-writes push the
control message and deposit payloads with no staging concatenation, and
``recv_into`` lands payload bytes directly in the page-aligned deposit
buffer — as close to the paper's zero-copy receive as user-space Python
gets.

Each listener runs an accept thread and hands every accepted stream
to the handler passed to :meth:`TCPTransport.listen`; how the stream
is then read is the handler's business (the ORB's server, with a
worker pool, offers it the reactor's loop; without one, a reader
thread reads it).
"""

from __future__ import annotations

import errno
import itertools
import logging
import os
import select
import socket
import threading
from functools import partial
from typing import Optional

from .base import AcceptHandler, Endpoint, TransportError, TransportTimeout

__all__ = ["TCPTransport", "TCPStream", "TCPListener",
           "DEFAULT_CONNECT_TIMEOUT"]

_log = logging.getLogger("repro.transport.tcp")

_SENDMSG_LIMIT = 64  # IOV_MAX is >=1024 everywhere; stay far below

#: dial deadline when the caller supplies none (ORBConfig overrides it)
DEFAULT_CONNECT_TIMEOUT = 30.0

#: kernel zero-copy file send; absent on some platforms (Windows),
#: send_file then takes the chunked copying fallback
_HAVE_SENDFILE = hasattr(os, "sendfile")

#: errnos meaning "sendfile cannot work on this fd pair" — fall back to
#: the copying path rather than failing the send
_SENDFILE_UNSUPPORTED = {errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP,
                         errno.ENOTSOCK, errno.ENOTSUP}

#: chunk size of the copying fallback (os.pread + sendall)
_SENDFILE_CHUNK = 256 * 1024


#: non-blocking single recv / send flag (POSIX): every read drive's
#: ``recv_into_nb``, and the write that must not wait
_MSG_DONTWAIT = socket.MSG_DONTWAIT


class TCPStream:
    """A connected TCP socket with exact-read helpers.  It takes no
    lock: its owner serializes the writes (``GIOPConn._send_lock``)."""

    def __init__(self, sock: socket.socket, name: str):
        self._sock = sock
        self.name = name
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.bytes_sent = 0
        self.bytes_received = 0
        #: flip off to force send_file onto the copying fallback (tests,
        #: platforms where the probe said sendfile misbehaves)
        self.sendfile_enabled = True

    def set_timeout(self, seconds: Optional[float]) -> None:
        """Deadline for blocking socket operations; ``None`` = block
        forever.  Expiry surfaces as :class:`TransportTimeout`."""
        self._sock.settimeout(seconds)

    def send(self, data) -> None:
        try:
            self._sock.sendall(data)
        except socket.timeout as e:
            raise TransportTimeout(f"{self.name}: send timed out") from e
        except OSError as e:
            raise TransportError(f"{self.name}: send failed: {e}") from e
        self.bytes_sent += memoryview(data).nbytes

    def sendv(self, chunks, block: bool = True):
        """Gather-write every chunk.  ``block=False``, the twin of
        :meth:`recv_into_nb`, never waits: the write is
        ``MSG_DONTWAIT``, and what the socket did not take comes back
        as a callable that writes it."""
        # bytes, bytearray and byte-format memoryviews go to sendmsg as
        # they are; only other buffers (typed views, arrays) need a cast
        views = []
        total = 0
        for c in chunks:
            if not isinstance(c, (bytes, bytearray)):
                if not isinstance(c, memoryview):
                    c = memoryview(c)
                if c.format != "B" or c.ndim != 1:
                    c = c.cast("B")
            n = len(c)
            if n:
                views.append(c)
                total += n
        try:
            self._sendmsg_all(views, 0 if block else _MSG_DONTWAIT)
        except BlockingIOError:  # MSG_DONTWAIT: the buffer is full
            self.bytes_sent += total - sum(map(len, views))
            return partial(self.sendv, views)
        except socket.timeout as e:
            raise TransportTimeout(f"{self.name}: sendv timed out") from e
        except OSError as e:
            raise TransportError(f"{self.name}: sendv failed: {e}") from e
        self.bytes_sent += total

    def _sendmsg_all(self, views: list, flags: int = 0) -> None:
        """Gather-write every view, resuming after partial sendmsg
        results (``views`` is consumed down to what is still unsent: a
        partly sent entry is replaced by its tail)."""
        while views:
            sent = self._sock.sendmsg(views[:_SENDMSG_LIMIT], (), flags)
            # step over the views that went out whole
            i = 0
            while sent and sent >= len(views[i]):
                sent -= len(views[i])
                i += 1
            del views[:i]
            if sent:
                views[0] = memoryview(views[0])[sent:]

    def send_file(self, fd: int, offset: int, count: int) -> bool:
        """Send ``count`` bytes of open file ``fd`` starting at
        ``offset`` — via ``os.sendfile`` (kernel zero-copy, the bytes
        never enter user space) when the platform and socket allow it,
        else via a chunked ``os.pread`` + ``sendall`` copying loop that
        puts byte-identical data on the wire.

        Returns ``True`` when the kernel path was used, ``False`` when
        the copying fallback ran; either way all ``count`` bytes were
        sent (or :class:`TransportError` raised).  Partial kernel sends
        and ``EAGAIN`` (a socket with a timeout set is internally
        non-blocking) are resumed from the last byte out.
        """
        if count <= 0:
            return True
        try:
            if not (_HAVE_SENDFILE and self.sendfile_enabled):
                self._send_file_copying(fd, offset, count)
                return False
            return self._send_file_kernel(fd, offset, count)
        except socket.timeout as e:
            raise TransportTimeout(
                f"{self.name}: send_file timed out") from e
        except TransportError:
            raise
        except OSError as e:
            raise TransportError(
                f"{self.name}: send_file failed: {e}") from e

    def _send_file_kernel(self, fd: int, offset: int, count: int) -> bool:
        """``os.sendfile`` loop; falls back to copying (return False) if
        the very first call says the fd pair is unsupported."""
        sent = 0
        while sent < count:
            try:
                n = os.sendfile(self._sock.fileno(), fd,
                                offset + sent, count - sent)
            except BlockingIOError:
                # timeout-mode socket: wait for writability, then retry
                self._wait_writable()
                continue
            except OSError as e:
                if sent == 0 and e.errno in _SENDFILE_UNSUPPORTED:
                    self._send_file_copying(fd, offset, count)
                    return False
                raise
            if n == 0:
                raise TransportError(
                    f"{self.name}: file truncated with {count - sent} "
                    f"bytes outstanding")
            sent += n
            self.bytes_sent += n
        return True

    def _send_file_copying(self, fd: int, offset: int, count: int) -> None:
        """The byte-identical copying fallback: positional chunked reads
        (no shared file-position state) pushed with sendall."""
        sent = 0
        while sent < count:
            chunk = os.pread(fd, min(_SENDFILE_CHUNK, count - sent),
                             offset + sent)
            if not chunk:
                raise TransportError(
                    f"{self.name}: file truncated with {count - sent} "
                    f"bytes outstanding")
            self._sock.sendall(chunk)
            sent += len(chunk)
            self.bytes_sent += len(chunk)

    def _wait_writable(self) -> None:
        timeout = self._sock.gettimeout()
        _, writable, _ = select.select([], [self._sock], [], timeout)
        if not writable:
            raise socket.timeout("send_file: socket never became writable")

    def recv_exact(self, n: int) -> memoryview:
        buf = bytearray(n)
        self.recv_into(memoryview(buf))
        return memoryview(buf)

    def recv_into(self, view: memoryview) -> None:
        """Fill ``view`` completely, reading straight into it."""
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        got = 0
        need = view.nbytes
        while got < need:
            try:
                n = self._sock.recv_into(view[got:], need - got)
            except socket.timeout as e:
                raise TransportTimeout(
                    f"{self.name}: recv timed out with {need - got} bytes "
                    f"outstanding") from e
            except OSError as e:
                raise TransportError(f"{self.name}: recv failed: {e}") from e
            if n == 0:
                raise TransportError(
                    f"{self.name}: connection closed with {need - got} "
                    f"bytes outstanding")
            got += n
            # count bytes as they arrive: a timeout or reset mid-read
            # must not lose the partial bytes from the counter (the
            # ConnStats/span cross-checks reconcile against it)
            self.bytes_received += n

    def fileno(self) -> int:
        """The socket's file descriptor (reactor ``add_reader`` key)."""
        return self._sock.fileno()

    def recv_into_nb(self, view: memoryview) -> Optional[int]:
        """One non-blocking read into ``view``: the bytes available
        right now, up to ``view.nbytes``.

        Returns the count landed (>= 1), or ``None`` when the socket
        has nothing to read (the reactor waits for the next readability
        event).  EOF and errors raise :class:`TransportError` exactly
        like :meth:`recv_into`, so the GIOP layer's exception mapping
        is shared between the blocking and reactor read drivers.  Uses
        ``MSG_DONTWAIT``, so the socket itself stays in blocking mode —
        the send side (``sendall``/``sendmsg``/``sendfile``) is
        untouched.
        """
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        try:
            n = self._sock.recv_into(view, view.nbytes, _MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError as e:
            raise TransportError(f"{self.name}: recv failed: {e}") from e
        if n == 0:
            raise TransportError(
                f"{self.name}: connection closed with {view.nbytes} "
                f"bytes outstanding")
        self.bytes_received += n
        return n

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def peer(self) -> str:
        try:
            host, port = self._sock.getpeername()[:2]
            return f"{host}:{port}"
        except OSError:
            return "(closed)"


class TCPListener:
    def __init__(self, sock: socket.socket, on_accept: AcceptHandler,
                 name: str, scheme: str = "tcp"):
        self._sock = sock
        self._on_accept = on_accept
        self._closed = False
        self._scheme = scheme
        #: connections dropped because the accept handler raised
        self.accept_errors = 0
        host, port = sock.getsockname()[:2]
        self._endpoint: Endpoint = (scheme, host, port)
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def _accept_loop(self) -> None:
        counter = itertools.count(1)
        while not self._closed:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return  # listener closed
            stream = TCPStream(conn, f"{self._scheme}-srv-"
                                     f"{addr[0]}:{addr[1]}-{next(counter)}")
            try:
                self._on_accept(stream)
            except Exception:
                # one bad handshake must not kill the accept thread —
                # the server would silently never accept again.  Drop
                # the connection, account for it, keep listening.
                self.accept_errors += 1
                _log.exception("accept handler failed for %s; "
                               "connection dropped", stream.name)
                try:
                    stream.close()
                except OSError:
                    pass

    def close(self, join_timeout: float = 1.0) -> None:
        """Stop accepting and join the accept thread (bounded).

        ``shutdown`` on the listening socket wakes a blocked
        ``accept`` (it returns ``EINVAL``), so the thread exits
        promptly instead of leaking until interpreter teardown —
        ``ORB.shutdown`` counts on ``threading.active_count`` dropping
        back to its pre-server baseline.
        """
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=join_timeout)


class TCPTransport:
    scheme = "tcp"

    def connect(self, endpoint: Endpoint,
                timeout: Optional[float] = None) -> TCPStream:
        """Dial ``endpoint`` with a bounded handshake: ``timeout`` (the
        caller's ``ORBConfig.connect_timeout``) caps the dial, and
        expiry surfaces as :class:`TransportTimeout` so the ORB can map
        it honestly (nothing was sent)."""
        scheme, host, port = endpoint
        dial_timeout = timeout if timeout is not None \
            else DEFAULT_CONNECT_TIMEOUT
        try:
            sock = socket.create_connection((host, port),
                                            timeout=dial_timeout)
        except socket.timeout as e:
            raise TransportTimeout(
                f"connect to {host}:{port} timed out after "
                f"{dial_timeout}s") from e
        except OSError as e:
            raise TransportError(
                f"cannot connect to {host}:{port}: {e}") from e
        sock.settimeout(None)
        return TCPStream(sock, f"tcp-cli-{host}:{port}")

    def listen(self, host: str, port: int,
               on_accept: AcceptHandler) -> TCPListener:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host or "127.0.0.1", port))
        except OSError as e:
            sock.close()
            raise TransportError(f"cannot bind {host}:{port}: {e}") from e
        sock.listen(64)
        return TCPListener(sock, on_accept, name=f"tcp-{host}:{port}")
