"""A chunked large-object store (BlobStore) for file-backed payloads.

The paper's bulk-data workloads (§5) move multi-megabyte payloads as
request parameters.  This service is the disk-resident variant: blobs
live as ordinary files under a served root, and clients read them over
GIOP in bounded chunks.  Each ``read_range`` reply carries a
:class:`~repro.core.buffers.FileBackedBuffer`, so on a real TCP link
the server hands the kernel the file region directly
(``os.sendfile``) — the blob bytes never enter Python on the send
side.  On shm links the range is staged into the arena; everywhere
else it falls back to a plain copy.  One service, three tiers.

The client helper streams a whole blob with a bounded window of
in-flight ``read_range`` requests riding the ORB's GIOP pipelining
(PR 4): chunk ``k+window`` is requested before chunk ``k``'s reply
has landed, hiding the request round-trip behind the data transfer.
"""

from __future__ import annotations

import itertools
import os
import threading
from functools import partial
from typing import Dict, Optional

from ..core.buffers import FileBackedBuffer
from ..idl import compile_idl
from ..orb.aio import async_api, gather_window, run_sync

__all__ = ["BLOB_IDL", "blob_api", "BlobStoreImpl", "read_all"]

BLOB_IDL = """
module Blob {
    exception NotFound { string name; };
    exception BadHandle { unsigned long handle; };
    exception IOFailed { string why; };

    struct BlobInfo {
        unsigned long long size;
        unsigned long chunk_size;   // server-preferred read granule
    };

    interface BlobStore {
        // open a named blob for reading; returns a handle
        unsigned long open(in string name) raises (NotFound);
        BlobInfo stat(in unsigned long handle) raises (BadHandle);
        // read up to `count` bytes at `offset` (short reads at EOF)
        sequence<zc_octet> read_range(in unsigned long handle,
                                      in unsigned long long offset,
                                      in unsigned long count)
            raises (BadHandle, IOFailed);
        void close(in unsigned long handle) raises (BadHandle);
    };
};
"""

_api = None


def blob_api():
    global _api
    if _api is None:
        _api = compile_idl(BLOB_IDL, module_name="_repro_blob_idl")
    return _api


class BlobStoreImpl:
    """Servant factory serving the files under ``root`` (read-only).

    Blob names are simple file names — no path separators, no parent
    references — so a client cannot escape the served directory.
    """

    def __new__(cls, root, chunk_size: int = 1024 * 1024):
        api = blob_api()
        root = os.fspath(root)

        class Impl(api.Blob_BlobStore_skel):
            def __init__(self):
                self._root = root
                self._chunk = chunk_size
                self._handles: Dict[int, int] = {}  # handle -> fd
                self._next = itertools.count(1)
                self._lock = threading.Lock()

            # -- handle table -------------------------------------------
            def _fd(self, handle):
                with self._lock:
                    try:
                        return self._handles[handle]
                    except KeyError:
                        raise api.Blob_BadHandle(handle=handle) from None

            # -- operations ---------------------------------------------
            def open(self, name):
                if (not name or "/" in name or os.sep in name
                        or name in (".", "..")):
                    raise api.Blob_NotFound(name=name)
                try:
                    fd = os.open(os.path.join(self._root, name),
                                 os.O_RDONLY)
                except OSError:
                    raise api.Blob_NotFound(name=name) from None
                handle = next(self._next)
                with self._lock:
                    self._handles[handle] = fd
                return handle

            def stat(self, handle):
                fd = self._fd(handle)
                return api.Blob_BlobInfo(size=os.fstat(fd).st_size,
                                         chunk_size=self._chunk)

            def read_range(self, handle, offset, count):
                fd = self._fd(handle)
                try:
                    size = os.fstat(fd).st_size
                except OSError as e:
                    raise api.Blob_IOFailed(why=str(e)) from None
                n = min(count, max(size - offset, 0))
                if n <= 0:
                    return b""
                # non-owning range over the handle's fd: the reply
                # rides the sendfile tier on TCP, the arena on shm
                return FileBackedBuffer(fd, offset, n)

            def close(self, handle):
                with self._lock:
                    fd = self._handles.pop(handle, None)
                if fd is None:
                    raise api.Blob_BadHandle(handle=handle)
                os.close(fd)

            # -- local lifecycle (not an IDL operation) -----------------
            def shutdown(self):
                with self._lock:
                    fds, self._handles = list(self._handles.values()), {}
                for fd in fds:
                    os.close(fd)

        return Impl()


def read_all(store, name: str, *, window: int = 4,
             chunk_size: Optional[int] = None) -> bytearray:
    """Stream the whole blob ``name`` from ``store``; returns its bytes
    in one ``bytearray`` of the blob's size.

    Keeps up to ``window`` ``read_range`` requests in flight on the
    connection (GIOP pipelining).  Each reply is copied once, from its
    landed buffer, into its offset of the result, in whatever order the
    replies land.  ``chunk_size`` defaults to the server's preferred
    granule.  A reply longer or shorter than its slice of the size
    ``stat`` gave (the file changed under the read) raises
    ``Blob.IOFailed``.
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    handle = store.open(name)
    try:
        info = store.stat(handle)
        chunk = chunk_size if chunk_size is not None else info.chunk_size
        if chunk <= 0:
            raise ValueError(f"chunk_size must be positive: {chunk}")
        read_range = async_api(store).read_range
        api = blob_api()
        out = bytearray(info.size)
        with memoryview(out) as dest:

            async def part(offset: int) -> None:
                # copied in as it lands: no more than ``window`` landed
                # buffers are alive, however large the blob.  ``seq``
                # is held through the copy: dropping it frees an shm
                # arena slot back to the server, which may refill it
                seq = await read_range(handle, offset, chunk)
                view = seq.view()
                want = min(chunk, info.size - offset)
                if view.nbytes != want:
                    raise api.Blob_IOFailed(why=(
                        f"{name!r} changed size while being read: "
                        f"{view.nbytes} bytes at {offset}, expected {want}"))
                dest[offset:offset + want] = view

            run_sync(gather_window(
                [partial(part, off) for off in range(0, info.size, chunk)],
                window))
        return out
    finally:
        store.close(handle)
