"""Pipelined bulk-transfer simulation.

A transfer of N bytes is chunked into pages and each chunk flows
through five stages, every stage a FIFO resource so that chunks
pipeline and the steady-state throughput is set by the slowest stage —
exactly the mechanism behind the saturation plateaus of Figs. 5/6:

    sender CPU -> sender PCI/DMA -> wire -> receiver PCI/DMA -> receiver CPU

Per-chunk stage costs come from :class:`repro.simnet.stacks.StackConfig`
(CPU stages), the machine profile (PCI) and the link profile (wire).

Sequential *phases* (e.g. MICO marshaling an entire request buffer
before the first byte is written, §4.2) are modelled with
:class:`repro.simnet.node.PhaseCharge` and composed with streams by
:func:`run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from .engine import Simulator
from .node import PhaseCharge, SimNode
from .profiles import PAGE_SIZE, LinkProfile, MachineProfile
from .stacks import StackConfig

__all__ = [
    "TransferReport",
    "StreamStep",
    "LatencyStep",
    "run_scenario",
    "measure_stream",
    "Testbed",
]

NS_PER_S = 1_000_000_000


@dataclass
class TransferReport:
    """Outcome of one simulated measurement."""

    nbytes: int
    elapsed_ns: int
    sender_cpu_ns: int
    receiver_cpu_ns: int
    sender_util: float
    receiver_util: float
    sender_copies: float  #: full payload copies made at the sender
    receiver_copies: float
    breakdown_ns: dict[str, int] = field(default_factory=dict)

    @property
    def mbit_per_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.nbytes * 8 * 1e3 / self.elapsed_ns  # = *8 / (ns/1e9) / 1e6


@dataclass
class StreamStep:
    """Pipeline N bytes from ``tx`` to ``rx`` over ``link``."""

    tx: SimNode
    rx: SimNode
    link: LinkProfile
    nbytes: int
    stack: StackConfig
    chunk: int = PAGE_SIZE
    #: optional per-chunk stage tracing (see repro.simnet.trace)
    trace: object = None


@dataclass
class LatencyStep:
    """A pure delay (e.g. a small control message's round trip)."""

    delay_ns: int


Step = Union[PhaseCharge, StreamStep, LatencyStep]


def _stream_proc(sim: Simulator, step: StreamStep, link_res):
    """Process generator driving one pipelined stream."""
    tx, rx, link, stack = step.tx, step.rx, step.link, step.stack
    chunk = step.chunk
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    nbytes = step.nbytes
    if nbytes < 0:
        raise ValueError(f"negative stream size: {nbytes}")
    if nbytes == 0:
        return
    pci_tx = tx.profile.pci_ns_per_byte
    pci_rx = rx.profile.pci_ns_per_byte

    trace = step.trace

    def chunk_proc(size: int, chunk_id: int):
        def note(stage, start):
            if trace is not None:
                trace.record(chunk_id, stage, start, sim.now)

        # 1. sender CPU
        req = tx.cpu.request()
        yield req
        start = sim.now
        yield sim.timeout(stack.tx_chunk_cost_ns(tx, size, link))
        tx.cpu.release(req)
        note("tx-cpu", start)
        # 2. sender PCI/DMA
        req = tx.pci.request()
        yield req
        start = sim.now
        yield sim.timeout(int(size * pci_tx))
        tx.pci.release(req)
        note("tx-pci", start)
        # 3. wire (serialization) then propagation latency
        req = link_res.request()
        yield req
        start = sim.now
        yield sim.timeout(link.wire_time_ns(size))
        link_res.release(req)
        note("wire", start)
        yield sim.timeout(link.latency_ns)
        # 4. receiver PCI/DMA
        req = rx.pci.request()
        yield req
        start = sim.now
        yield sim.timeout(int(size * pci_rx))
        rx.pci.release(req)
        note("rx-pci", start)
        # 5. receiver CPU
        req = rx.cpu.request()
        yield req
        start = sim.now
        yield sim.timeout(stack.rx_chunk_cost_ns(rx, size, link))
        rx.cpu.release(req)
        note("rx-cpu", start)

    procs = []
    remaining = nbytes
    chunk_id = 0
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        procs.append(sim.process(chunk_proc(size, chunk_id), name="chunk"))
        chunk_id += 1
    yield sim.all_of(procs)


def run_scenario(sim: Simulator, steps: Sequence[Step], link_res=None) -> int:
    """Run ``steps`` sequentially; return total elapsed ns.

    Phases hold their node's CPU; streams pipeline; latency steps just
    wait.  Steps run back-to-back — the model for a synchronous CORBA
    invocation whose marshal, send and demarshal stages do not overlap
    (§4.2), as opposed to the chunk-level overlap *within* a stream.
    """
    if link_res is None:
        link_res = sim.resource(1, name="link")

    def driver():
        for step in steps:
            if isinstance(step, PhaseCharge):
                yield sim.process(step.run(), name=step.label or "phase")
            elif isinstance(step, StreamStep):
                yield sim.process(_stream_proc(sim, step, link_res), name="stream")
            elif isinstance(step, LatencyStep):
                yield sim.timeout(step.delay_ns)
            else:
                raise TypeError(f"unknown scenario step {step!r}")

    start = sim.now
    sim.process(driver(), name="scenario")
    sim.run()
    return sim.now - start


class Testbed:
    """A fresh two-node testbed for one measurement.

    Creates its own :class:`Simulator` so utilization counters start
    clean, mirroring one TTCP run between two cluster nodes.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    def __init__(self, profile: MachineProfile, link: LinkProfile,
                 rx_profile: MachineProfile | None = None):
        self.sim = Simulator()
        self.link = link
        self.sender = SimNode(self.sim, profile, "sender")
        self.receiver = SimNode(self.sim, rx_profile or profile, "receiver")
        self.link_res = self.sim.resource(1, name="link")

    def stream(self, nbytes: int, stack: StackConfig,
               chunk: int = PAGE_SIZE) -> StreamStep:
        return StreamStep(self.sender, self.receiver, self.link,
                          nbytes, stack, chunk)

    def reverse_stream(self, nbytes: int, stack: StackConfig,
                       chunk: int = PAGE_SIZE) -> StreamStep:
        return StreamStep(self.receiver, self.sender, self.link,
                          nbytes, stack, chunk)

    def run(self, steps: Sequence[Step], payload_bytes: int) -> TransferReport:
        elapsed = run_scenario(self.sim, steps, self.link_res)
        tx, rx = self.sender, self.receiver
        breakdown = {f"tx.{k}": v for k, v in tx.memory.breakdown_ns().items()}
        breakdown.update(
            {f"rx.{k}": v for k, v in rx.memory.breakdown_ns().items()})
        return TransferReport(
            nbytes=payload_bytes,
            elapsed_ns=elapsed,
            sender_cpu_ns=tx.cpu_busy_ns(),
            receiver_cpu_ns=rx.cpu_busy_ns(),
            sender_util=tx.cpu_utilization(elapsed),
            receiver_util=rx.cpu_utilization(elapsed),
            sender_copies=tx.memory.copies_of(payload_bytes),
            receiver_copies=rx.memory.copies_of(payload_bytes),
            breakdown_ns=breakdown,
        )


def measure_stream(profile: MachineProfile, link: LinkProfile, nbytes: int,
                   stack: StackConfig, chunk: int = PAGE_SIZE) -> TransferReport:
    """Convenience: one raw socket stream on a fresh testbed (TTCP raw)."""
    bed = Testbed(profile, link)
    return bed.run([bed.stream(nbytes, stack, chunk)], nbytes)
