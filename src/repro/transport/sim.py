"""Simulated-testbed transport: real ORB code, modelled time.

Runs the actual ORB byte-for-byte over an in-process loopback pair
while charging a :class:`SimClock` with the time the same traffic would
have taken on the paper's 2003 hardware.  Each ``sendv`` is costed as
one pipelined stream through the configured stack model; ORB-level
per-byte work (marshal loops, bulk copies) is charged through the ORB's
``on_bytes`` instrumentation hook.

This is the consistency bridge between the two reproduction modes: an
integration test drives one CORBA request through this transport and
checks the clock agrees with the pure cost model of
:mod:`repro.simnet.orbcost` (same mechanism, two code paths).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..simnet import (GIGABIT_ETHERNET, PENTIUM_II_400, LinkProfile,
                      MachineProfile, StackConfig, measure_stream,
                      standard_stack)
from .base import AcceptHandler, Endpoint, TransportError
from .loopback import LoopbackStream, LoopbackTransport

__all__ = ["SimClock", "SimTransport", "SimStream"]


class SimClock:
    """Accumulates modelled nanoseconds for one simulated node pair."""

    def __init__(self, profile: MachineProfile = PENTIUM_II_400):
        self.profile = profile
        self.now_ns = 0
        self.charges: Dict[str, int] = {}

    def advance(self, ns: int, label: str = "transfer") -> None:
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.now_ns += ns
        self.charges[label] = self.charges.get(label, 0) + ns

    # -- ORB instrumentation hook (assign to ORB.on_bytes) ----------------
    def on_bytes(self, kind: str, nbytes: int) -> None:
        p = self.profile
        if kind == "marshal":
            self.advance(int(nbytes * p.marshal_loop_ns_per_byte), kind)
        elif kind == "marshal-bulk":
            self.advance(int(nbytes * p.marshal_bulk_ns_per_byte), kind)
        elif kind in ("reference", "deposit-send", "deposit-recv"):
            pass  # zero-copy: wire time is charged by the stream model
        else:
            self.advance(0, kind)

    def mbit_per_s(self, payload_bytes: int) -> float:
        if self.now_ns <= 0:
            return 0.0
        return payload_bytes * 8 * 1e3 / self.now_ns


class SimStream:
    """A loopback stream that charges the clock per gather-write."""

    def __init__(self, inner: LoopbackStream, transport: "SimTransport"):
        self._inner = inner
        self._transport = transport

    def send(self, data) -> None:
        self.sendv([data])

    def sendv(self, chunks) -> None:
        self._transport.charge_transfer(
            sum(memoryview(c).nbytes for c in chunks))
        self._inner.sendv(chunks)

    def recv_into_nb(self, view) -> Optional[int]:
        return self._inner.recv_into_nb(view)

    def close(self) -> None:
        self._inner.close()

    def set_data_handler(self, handler) -> None:
        self._inner.set_data_handler(handler)

    def set_timeout(self, seconds) -> None:
        self._inner.set_timeout(seconds)

    @property
    def peer(self) -> str:
        return self._inner.peer


class SimTransport:
    """Loopback delivery + simulated-testbed timing."""

    scheme = "sim"

    def __init__(self, clock: Optional[SimClock] = None,
                 stack: Optional[StackConfig] = None,
                 link: LinkProfile = GIGABIT_ETHERNET,
                 profile: MachineProfile = PENTIUM_II_400):
        self.clock = clock or SimClock(profile)
        self.stack = stack or standard_stack()
        self.link = link
        self.profile = profile
        self._inner = LoopbackTransport()
        self._elapsed_cache: Dict[int, int] = {}

    # -- cost model ---------------------------------------------------------
    def charge_transfer(self, nbytes: int) -> None:
        if nbytes == 0:
            return
        elapsed = self._elapsed_cache.get(nbytes)
        if elapsed is None:
            elapsed = measure_stream(self.profile, self.link, nbytes,
                                     self.stack).elapsed_ns
            self._elapsed_cache[nbytes] = elapsed
        self.clock.advance(elapsed)

    # -- transport interface ----------------------------------------------------
    def listen(self, host: str, port: int, on_accept: AcceptHandler):
        def wrap_accept(stream: LoopbackStream) -> None:
            on_accept(SimStream(stream, self))

        inner = self._inner.listen(host, port, wrap_accept)
        return _SimListener(inner)

    def connect(self, endpoint: Endpoint,
                timeout: Optional[float] = None) -> SimStream:
        # modelled testbed: the dial is instantaneous, timeout ignored
        scheme, host, port = endpoint
        if scheme != self.scheme:
            raise TransportError(f"sim transport cannot dial {scheme!r}")
        inner = self._inner.connect(("loop", host, port))
        return SimStream(inner, self)


class _SimListener:
    """Re-brands an inner loopback listener's endpoint as scheme 'sim'."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def endpoint(self) -> Endpoint:
        _, host, port = self._inner.endpoint
        return (SimTransport.scheme, host, port)

    def close(self) -> None:
        self._inner.close()
