"""Direct-deposit protocol objects: decoupled control- and data transfer.

§3.2: "we introduce a decoupling of synchronization and data transfers
entirely within the IIOP communication system of the ORB".  A request
carrying zero-copy sequences is split:

* the **control message** is the ordinary GIOP request; each zero-copy
  parameter is replaced on the wire by a :class:`DepositDescriptor`
  (id, size, alignment) carried in the message so the receiver learns
  how much space to prepare — "a GIOPRequest header is generated which
  contains the size of the data block that is needed by the receiver
  to correctly receive the GIOPRequest message" (§4.4);
* each **data message** is the raw payload, written to the transport's
  data path after the control message and landed by the receiver
  directly in a page-aligned buffer acquired from the pool (§4.5).

The classes here are transport-agnostic; :mod:`repro.orb.connection`
drives them against a concrete transport.
"""

from __future__ import annotations

import itertools
import struct
import threading
from dataclasses import dataclass
from typing import Optional

from .buffers import (PAGE_SIZE, BufferPool, FileBackedBuffer, ZCBuffer,
                      default_pool)

__all__ = [
    "DepositDescriptor",
    "DepositRegistry",
    "DepositReceiver",
    "DepositError",
    "DEPOSIT_MAGIC",
    "DEPOSIT_MIN_SIZE",
]

#: marks a deposit descriptor on the wire (also usable as a GIOP
#: service-context tag); 'ZC' + protocol version 1
DEPOSIT_MAGIC = 0x5A43_0001

#: the smallest payload that takes the deposit path: below it a
#: zero-copy sequence rides the control message inline and lands by one
#: copy, which is cheaper than a descriptor, a registry entry and a
#: landing of its own up to the crossover EXPERIMENTS.md ``DEPOSIT-MIN``
#: records (between 512 KiB and 1 MiB on tcp and on shm; this sits
#: below both); a payload that already lives in the send arena stays a
#: slot reference whatever its size
DEPOSIT_MIN_SIZE = 64 * 1024

_DESC = struct.Struct("<IQIHH")  # magic, size, deposit_id, alignment_log2, flags


class DepositError(RuntimeError):
    """Violation of the deposit protocol (unknown id, size mismatch...)."""


@dataclass(frozen=True)
class DepositDescriptor:
    """Wire-visible shape of one pending data transfer."""

    deposit_id: int
    size: int
    alignment: int = PAGE_SIZE
    flags: int = 0

    ENCODED_SIZE = _DESC.size

    def encode(self) -> bytes:
        if self.alignment <= 0 or self.alignment & (self.alignment - 1):
            raise DepositError(f"alignment must be a power of two: {self.alignment}")
        return _DESC.pack(DEPOSIT_MAGIC, self.size, self.deposit_id,
                          self.alignment.bit_length() - 1, self.flags)

    @classmethod
    def decode(cls, data) -> "DepositDescriptor":
        buf = bytes(data)
        if len(buf) < _DESC.size:
            raise DepositError(
                f"short deposit descriptor: {len(buf)} < {_DESC.size}")
        magic, size, dep_id, align_log2, flags = _DESC.unpack_from(buf)
        if magic != DEPOSIT_MAGIC:
            raise DepositError(f"bad deposit magic 0x{magic:08x}")
        return cls(deposit_id=dep_id, size=size,
                   alignment=1 << align_log2, flags=flags)


class DepositRegistry:
    """Sender side: zero-copy payloads awaiting transmission.

    The marshaler (``TCSeqZCOctet``) never copies the payload; it
    registers the live memoryview here and emits only the descriptor
    into the control message.  After the control message is written,
    the connection drains the registry onto the data path in
    registration order.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._pending: dict[int, memoryview] = {}
        self._order: list[int] = []
        self._lock = threading.Lock()

    def register(self, payload, alignment: int = PAGE_SIZE,
                 flags: int = 0) -> DepositDescriptor:
        """Register a pending payload: a memoryview (or bytes-like), or
        a :class:`FileBackedBuffer` — the latter is kept as-is so the
        connection can route it through the kernel ``sendfile`` tier
        instead of a mapped view."""
        if isinstance(payload, FileBackedBuffer):
            with self._lock:
                dep_id = next(self._ids)
                self._pending[dep_id] = payload
                self._order.append(dep_id)
            return DepositDescriptor(deposit_id=dep_id, size=payload.nbytes,
                                     alignment=alignment, flags=flags)
        view = memoryview(payload)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        with self._lock:
            dep_id = next(self._ids)
            self._pending[dep_id] = view
            self._order.append(dep_id)
        return DepositDescriptor(deposit_id=dep_id, size=view.nbytes,
                                 alignment=alignment, flags=flags)

    def drain(self) -> list[tuple[int, memoryview]]:
        """All pending payloads in registration order; clears the registry."""
        with self._lock:
            out = [(i, self._pending.pop(i)) for i in self._order]
            self._order.clear()
            return out

    def pop(self, deposit_id: int) -> memoryview:
        with self._lock:
            try:
                view = self._pending.pop(deposit_id)
            except KeyError:
                raise DepositError(f"unknown deposit id {deposit_id}") from None
            self._order.remove(deposit_id)
            return view

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


class DepositReceiver:
    """Receiver side: prepares aligned landing buffers for deposits.

    On seeing a descriptor in a control message the connection calls
    :meth:`prepare`; the returned :class:`ZCBuffer` is the *final*
    destination — the transport reads the payload straight into it
    (``readinto`` on real sockets, view hand-off on loopback), after
    which :meth:`complete` hands the buffer to demarshaling.  Over a
    deposit channel the connection calls :meth:`land` with each
    deposit's record instead.
    """

    def __init__(self, pool: Optional[BufferPool] = None, channel=None):
        self.pool = pool or default_pool()
        #: optional deposit channel (e.g. ``ShmStream``): when present,
        #: landing buffers come from :meth:`land` — the channel maps a
        #: shared-memory slot, or leases a pool buffer for the inline
        #: fallback
        self.channel = channel
        self._prepared: dict[int, tuple[DepositDescriptor, ZCBuffer]] = {}
        self._order: list[int] = []
        self.deposits_received = 0
        self.bytes_deposited = 0
        self.deposits_aborted = 0
        #: channel-mode accounting: slot-mapped vs inline-fallback landings
        self.shm_landed = 0
        self.shm_fallbacks = 0

    def prepare(self, desc: DepositDescriptor) -> ZCBuffer:
        if desc.deposit_id in self._prepared:
            raise DepositError(f"duplicate deposit id {desc.deposit_id}")
        buf = self.pool.acquire(max(desc.size, 1))
        buf.set_length(desc.size)
        if desc.alignment > 1 and buf.address % desc.alignment != 0:
            # pool buffers are page-aligned; anything stricter is a
            # protocol error rather than a silent copy
            buf.release()
            raise DepositError(
                f"cannot satisfy alignment {desc.alignment} for deposit "
                f"{desc.deposit_id}")
        self._prepared[desc.deposit_id] = (desc, buf)
        self._order.append(desc.deposit_id)
        return buf

    def land(self, desc: DepositDescriptor, record) -> Optional[ZCBuffer]:
        """Channel mode: land one deposit from its ``record`` (the bytes
        the connection read for it; the caller names each id once).
        Returns the buffer the inline payload behind the record still
        has to be read into, or None: an arena slot holds it already."""
        buf, via_arena = self.channel.recv_deposit(desc, record, self.pool)
        self._prepared[desc.deposit_id] = (desc, buf)
        self._order.append(desc.deposit_id)
        if via_arena:
            self.shm_landed += 1
            return None
        self.shm_fallbacks += 1
        return buf

    def pending_in_order(self) -> list[tuple[DepositDescriptor, ZCBuffer]]:
        """Prepared deposits in control-message order (= data-path order)."""
        return [self._prepared[i] for i in self._order]

    def complete(self, deposit_id: int) -> ZCBuffer:
        try:
            desc, buf = self._prepared[deposit_id]
        except KeyError:
            raise DepositError(f"deposit {deposit_id} was not prepared") from None
        del self._prepared[deposit_id]
        self._order.remove(deposit_id)
        self.deposits_received += 1
        self.bytes_deposited += desc.size
        return buf

    @property
    def outstanding(self) -> int:
        """Prepared deposits whose buffers have not been handed off."""
        return len(self._prepared)

    def abort(self) -> int:
        """Release all prepared buffers (connection failure path).

        A payload interrupted mid-landing must return its page-aligned
        buffer to the pool before the sender's retry re-registers the
        transfer; the count of released buffers is returned so callers
        can account for the discarded landings.
        """
        released = 0
        for _, buf in self._prepared.values():
            if not buf.released:
                buf.release()
                released += 1
        self._prepared.clear()
        self._order.clear()
        self.deposits_aborted += released
        return released
