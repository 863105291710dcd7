"""What ``run.py`` and ``peer.py`` share: the path to the ORB under
test, the benchmark's IDL, the seeded inputs, the raw-socket protocol
the ORB is normalised against, and the ``on_bytes`` counter.

Importing this module puts ``<repo>/src`` on ``sys.path`` (the command
in ``BENCHMARK.json`` may not name a path outside the benchmark's own
directory, so ``PYTHONPATH=src`` cannot be part of it).  Nothing here
imports ``repro``: the raw peer stays a bare interpreter.
"""

from __future__ import annotations

import os
import random
import struct
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
_SRC = os.path.join(REPO, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

KIB = 1024
MIB = 1024 * 1024

#: prefix of every arena file the shm transport creates in /dev/shm
SHM_PREFIX = "repro-shm-"
SHM_DIR = "/dev/shm"

ECHO_IDL = """
interface Echo {
    void ping(in unsigned long x);
    unsigned long send_zc(in sequence<zc_octet> data);
    unsigned long send(in sequence<octet> data);
    sequence<zc_octet> fetch_zc(in unsigned long offset,
                                in unsigned long count);
    oneway void post(in sequence<zc_octet> data);
    // verification and reconciliation; never inside a timed region
    void set_verify(in boolean on);
    unsigned long long posted();
    unsigned long post_crc();
};

interface FanoutControl {
    // blocks until `target` events were counted (or the timeout);
    // returns the count
    unsigned long long wait_delivered(in unsigned long long target,
                                      in double timeout_s);
    void set_verify(in boolean on);
    // JSON: the [subscriber, seq, crc32] triples seen in verify mode
    string report();
};
"""
ECHO_IDL_MODULE = "_e2e_bench_idl"

#: sizes the workloads are defined by (ISSUE.md, "Workloads")
BULK_SIZE = 8 * MIB
BLOB_SIZE = 64 * MIB
BLOB_NAME = "blob.bin"
FANOUT_EVENT = 256 * KIB
FANOUT_BURST = 16
FANOUT_SUBSCRIBERS = 2
ASYNC_WINDOW = 8

#: the seeded byte source mixed_shm slices its payloads from; the echo
#: peer builds the same one from the same seed to serve fetch_zc
SOURCE_SIZE = 4 * MIB
MIXED_OPS = 4096
#: ops per block of the plan; a segment runs whole blocks
MIXED_BLOCK = 512
MIXED_LO = 256
MIXED_HI = 2 * MIB
#: op kind -> share of the plan
MIXED_MIX = (("send_zc", 0.35), ("send", 0.20), ("fetch_zc", 0.25),
             ("ping", 0.10), ("post", 0.10))


def seeded_bytes(seed: int, tag: str, n: int) -> bytes:
    """``n`` bytes that depend on ``(seed, tag)`` and nothing else."""
    return random.Random(f"{seed}:{tag}").randbytes(n)


def mixed_plan(seed: int) -> list:
    """The ``mixed_shm`` plan: ``MIXED_OPS`` tuples ``(kind, offset,
    size)`` in a seeded order.

    The plan is ``MIXED_OPS / MIXED_BLOCK`` blocks, and every block has
    the same make-up: exact kind counts, and per kind one jittered size
    draw from each equal slice of the log range ``[MIXED_LO,
    MIXED_HI]``.  A segment always runs whole blocks, so every segment
    of every seed sees the same size distribution and mix; only the
    order, the offsets, the jitter and the payload bytes change.  With
    a plain draw the op-time median moves by a few per cent between
    segments and between seeds from sampling alone, which is the size
    of the regressions the benchmark has to resolve.
    """
    rng = random.Random(f"{seed}:plan")
    counts = [int(MIXED_BLOCK * share) for _, share in MIXED_MIX]
    counts[0] += MIXED_BLOCK - sum(counts)
    ratio = MIXED_HI / MIXED_LO
    plan = []
    for _ in range(MIXED_OPS // MIXED_BLOCK):
        block = []
        for (kind, _), count in zip(MIXED_MIX, counts):
            for i in range(count):
                if kind == "ping":
                    block.append((kind, 0, 0))
                    continue
                size = min(MIXED_HI, int(
                    MIXED_LO * ratio ** ((i + rng.random()) / count)))
                block.append(
                    (kind, rng.randrange(SOURCE_SIZE - size + 1), size))
        rng.shuffle(block)
        plan.extend(block)
    return plan


# -- the raw-socket peer protocol ---------------------------------------------
#
# One request is RAW_HDR (flags, n_in, n_out) followed by n_in payload
# bytes.  Unless RAW_ONEWAY is set the peer answers RAW_ACK (n_in echoed
# back) followed by n_out bytes.  That one shape covers every workload's
# interaction: payload -> ack (n_out = 0), request -> payload (n_in
# small), ping-pong (both small), oneway, and pipelining (the peer
# answers in order).

RAW_HDR = struct.Struct("<BII")
RAW_ACK = struct.Struct("<I")
RAW_ONEWAY = 1
#: largest n_in / n_out a raw peer accepts
RAW_MAX = BULK_SIZE
#: up to this size header and payload leave in one send() call
RAW_JOIN = 64 * KIB


def recv_exact_into(sock, view: memoryview) -> None:
    """Fill ``view`` from ``sock``; ``ConnectionError`` on EOF."""
    got, need = 0, view.nbytes
    while got < need:
        n = sock.recv_into(view[got:], need - got)
        if n == 0:
            raise ConnectionError("raw peer closed the connection")
        got += n


class ByteCounter:
    """``ORB(on_bytes=...)`` hook: bytes per kind, from any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.by_kind: dict = {}

    def __call__(self, kind: str, nbytes: int) -> None:
        with self._lock:
            self.by_kind[kind] = self.by_kind.get(kind, 0) + nbytes

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.by_kind)


def shm_leftovers() -> set:
    """Arena files currently present in /dev/shm."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()
