"""Kernel zero-copy send path: TCPStream.send_file and its fallback.

The contract under test: ``send_file(fd, offset, count)`` puts exactly
the file range on the wire — via ``os.sendfile`` when the platform
cooperates (returns True), via the chunked ``os.pread`` copying loop
otherwise (returns False) — and the receiver cannot tell which tier
ran.  Plus the fd-range buffer type that rides it,
:class:`~repro.core.buffers.FileBackedBuffer`.
"""

import gc
import mmap
import os
import threading

import pytest

from repro.core.buffers import BufferError, FileBackedBuffer
from repro.transport import TCPTransport, TransportError


@pytest.fixture
def pair():
    transport = TCPTransport()
    accepted = []
    ready = threading.Event()

    def on_accept(stream):
        accepted.append(stream)
        ready.set()

    listener = transport.listen("127.0.0.1", 0, on_accept)
    client = transport.connect(listener.endpoint)
    assert ready.wait(5), "accept did not happen"
    yield client, accepted[0]
    client.close()
    accepted[0].close()
    listener.close()


@pytest.fixture
def blob_file(tmp_path):
    """An 8 MiB file of non-repeating bytes and its contents."""
    data = bytes(os.urandom(8 * 1024 * 1024))
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    return path, data


def _recv_all(stream, n, out):
    out.append(stream.recv_exact(n).tobytes())


def _send_and_collect(client, server, fd, offset, count):
    got = []
    t = threading.Thread(target=_recv_all, args=(server, count, got))
    t.start()
    used_kernel = client.send_file(fd, offset, count)
    t.join(timeout=30)
    assert not t.is_alive(), "receiver never finished"
    return used_kernel, got[0]


class TestSendFileKernel:
    def test_kernel_path_byte_identity(self, pair, blob_file):
        """8 MiB through os.sendfile arrives byte-identical."""
        client, server = pair
        path, data = blob_file
        fd = os.open(path, os.O_RDONLY)
        try:
            used_kernel, got = _send_and_collect(
                client, server, fd, 0, len(data))
            assert used_kernel is True
            assert got == data
            assert client.bytes_sent == len(data)
        finally:
            os.close(fd)

    def test_offset_and_count_honoured(self, pair, blob_file):
        client, server = pair
        path, data = blob_file
        fd = os.open(path, os.O_RDONLY)
        try:
            off, n = 12345, 100_000
            _, got = _send_and_collect(client, server, fd, off, n)
            assert got == data[off:off + n]
        finally:
            os.close(fd)

    def test_eagain_resume(self, pair, blob_file):
        """A full socket buffer (slow reader) is waited out, not fatal.

        The stream's send timeout makes the socket internally
        non-blocking, so os.sendfile hits BlockingIOError as soon as
        the kernel buffer fills; the resume loop must carry on from
        the partial-send offset."""
        client, server = pair
        path, data = blob_file
        # shrink both buffers so a 512 KiB transfer fills them dozens
        # of times (the whole 8 MiB blob only repeats that for 50 s)
        data = data[:512 * 1024]
        import socket
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        fd = os.open(path, os.O_RDONLY)
        got = []

        def slow_reader():
            chunks = []
            remaining = len(data)
            while remaining:
                step = min(64 * 1024, remaining)
                chunks.append(server.recv_exact(step).tobytes())
                remaining -= step
            got.append(b"".join(chunks))

        try:
            t = threading.Thread(target=slow_reader)
            t.start()
            client.send_file(fd, 0, len(data))
            t.join(timeout=60)
            assert not t.is_alive()
            assert got[0] == data
        finally:
            os.close(fd)

    def test_zero_count_is_noop(self, pair, blob_file):
        client, _ = pair
        path, _ = blob_file
        fd = os.open(path, os.O_RDONLY)
        try:
            assert client.send_file(fd, 0, 0) is True
            assert client.bytes_sent == 0
        finally:
            os.close(fd)


class TestSendFileFallback:
    def test_fallback_byte_identity(self, pair, blob_file):
        """The copying loop is indistinguishable on the wire."""
        client, server = pair
        path, data = blob_file
        client.sendfile_enabled = False
        fd = os.open(path, os.O_RDONLY)
        try:
            used_kernel, got = _send_and_collect(
                client, server, fd, 0, len(data))
            assert used_kernel is False
            assert got == data
            assert client.bytes_sent == len(data)
        finally:
            os.close(fd)

    def test_unsupported_errno_falls_back(self, pair, blob_file,
                                          monkeypatch):
        """EINVAL from the first os.sendfile call (e.g. the fd is not
        a regular file on this kernel) degrades to the copying loop."""
        import errno

        import repro.transport.tcp as tcp_mod
        client, server = pair
        path, data = blob_file

        def refuse(*a, **kw):
            raise OSError(errno.EINVAL, "not supported")

        monkeypatch.setattr(tcp_mod.os, "sendfile", refuse)
        fd = os.open(path, os.O_RDONLY)
        try:
            used_kernel, got = _send_and_collect(
                client, server, fd, 0, 1 << 20)
            assert used_kernel is False
            assert got == data[:1 << 20]
        finally:
            os.close(fd)

    def test_midstream_error_is_not_retried_as_copy(self, pair,
                                                    blob_file,
                                                    monkeypatch):
        """After bytes hit the wire, EINVAL must raise — silently
        restarting with the copying loop would duplicate data."""
        import errno

        import repro.transport.tcp as tcp_mod
        client, server = pair
        path, data = blob_file
        real = os.sendfile
        calls = []

        def flaky(out_fd, in_fd, offset, count):
            if calls:
                raise OSError(errno.EINVAL, "late failure")
            calls.append(1)
            return real(out_fd, in_fd, offset, min(count, 4096))

        monkeypatch.setattr(tcp_mod.os, "sendfile", flaky)
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TransportError):
                client.send_file(fd, 0, 1 << 20)
        finally:
            os.close(fd)

    def test_truncated_file_raises(self, pair, tmp_path):
        client, _ = pair
        path = tmp_path / "short.bin"
        path.write_bytes(b"x" * 100)
        client.sendfile_enabled = False
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TransportError, match="truncat"):
                client.send_file(fd, 0, 200)
        finally:
            os.close(fd)


class TestFileBackedBuffer:
    def test_view_matches_file(self, blob_file):
        path, data = blob_file
        buf = FileBackedBuffer.open(path)
        try:
            assert buf.nbytes == len(data)
            assert buf.view().tobytes() == data
        finally:
            buf.release()

    def test_unaligned_range(self, blob_file):
        """Offsets that are not mmap-granularity-aligned still map."""
        path, data = blob_file
        off = mmap.ALLOCATIONGRANULARITY + 123
        buf = FileBackedBuffer.open(path, offset=off, count=4567)
        try:
            assert buf.view().tobytes() == data[off:off + 4567]
        finally:
            buf.release()

    def test_read_only(self, blob_file):
        path, _ = blob_file
        buf = FileBackedBuffer.open(path)
        try:
            with pytest.raises(BufferError):
                buf.fill_from(b"nope")
            assert buf.view().readonly
        finally:
            buf.release()

    def test_release_then_use_raises(self, blob_file):
        path, _ = blob_file
        buf = FileBackedBuffer.open(path)
        buf.release()
        with pytest.raises(BufferError):
            buf.view()

    def test_finalizer_closes_fd_on_drop(self, blob_file):
        """An app that forgets release() must not leak the fd."""
        path, _ = blob_file
        buf = FileBackedBuffer.open(path)
        fd = buf.fd
        os.fstat(fd)  # open while the buffer lives
        del buf
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_non_owning_leaves_fd_open(self, blob_file):
        path, _ = blob_file
        fd = os.open(path, os.O_RDONLY)
        try:
            buf = FileBackedBuffer(fd, 0, 1024)
            buf.release()
            del buf
            gc.collect()
            os.fstat(fd)  # still valid: close_fd defaulted to False
        finally:
            os.close(fd)

    def test_empty_range(self, blob_file):
        path, _ = blob_file
        buf = FileBackedBuffer.open(path, offset=0, count=0)
        try:
            assert buf.nbytes == 0
            assert buf.view().tobytes() == b""
        finally:
            buf.release()
