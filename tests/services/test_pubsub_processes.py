"""TopicHub fan-out across real process boundaries: subscribers in
child interpreters map the hub's shared arena, release their
references under ``flock``, and one of them is killed mid-burst."""

import glob
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import zlib

import pytest

import repro
from repro.orb import ORB, ORBConfig
from repro.services import TopicHubImpl, pubsub_api
from repro.transport.shm import ShmTransport, shm_available

SCRIPT = os.path.join(os.path.dirname(__file__), "pubsub_subscriber.py")
SRC = os.path.dirname(os.path.dirname(repro.__file__))
BURST = 16
SIZE = 4096


class _Child:
    """One subscriber process and the lines it prints."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, SCRIPT], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ior = self.lines.get(timeout=60)
        self.events = {}

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.strip())

    def collect(self, n, timeout=10.0):
        """Wait until ``n`` distinct events have arrived."""
        deadline = time.monotonic() + timeout
        while len(self.events) < n and time.monotonic() < deadline:
            try:
                seq, crc = self.lines.get(timeout=0.1).split()
            except queue.Empty:
                continue
            self.events[int(seq)] = int(crc)
        return self.events

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


def _payload(seq):
    return bytes([seq & 0xFF]) * SIZE


@pytest.mark.skipif(not shm_available(),
                    reason="no shared-memory directory")
def test_a_killed_subscriber_is_evicted_and_leaks_nothing():
    pubsub_api()  # registers the Subscriber stub class
    hub = TopicHubImpl(slot_size=64 * 1024, slot_count=8, slot_wait=0.05,
                       stale_after=0.5)
    stubs = ORB(ORBConfig(scheme="loop"))  # makes stubs; never dials
    children = [_Child() for _ in range(2)]
    doomed, survivor = children
    try:
        for child in children:
            hub.subscribe("t", stubs.string_to_object(child.ior))
        assert hub.n_subscribers("t") == 2
        seq = 0
        for burst in range(2):
            for i in range(BURST):
                seq += 1
                hub.publish("t", _payload(seq))
                if burst == 0 and i == BURST // 2:
                    doomed.proc.send_signal(signal.SIGKILL)
                    doomed.proc.wait(timeout=20)
        assert hub.fanout_posts >= 1

        # the survivor got every event, intact
        got = survivor.collect(2 * BURST)
        assert got == {s: zlib.crc32(_payload(s))
                       for s in range(1, 2 * BURST + 1)}
        # the dead one is gone from the topic
        assert hub.subscribers_evicted == 1
        assert hub.n_subscribers("t") == 1

        # what the dead reader still mapped comes back once stale
        arena = hub.shm_transport.shared_arena
        time.sleep(hub.stale_after + 0.1)
        deadline = time.monotonic() + 10
        while True:
            arena.reclaim_stale(hub.stale_after)
            if arena.used_slots == 0 or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert arena.used_slots == 0
    finally:
        for child in children:
            child.stop()
        hub.destroy()
        stubs.shutdown()
    # no arena file a child created outlives it, killed or not
    directory = ShmTransport().directory
    left = [path for child in children for path in glob.glob(
        os.path.join(directory, f"repro-shm-{child.proc.pid}-*"))]
    assert left == []
