"""Who owns a landing (DESIGN.md §11, the landing rule).

A landed deposit buffer is the ``in`` parameter's or the result's, as
long as anybody holds it: a servant that keeps its sequence reads its
own bytes however many requests land after it.  Once nobody holds it,
its storage goes back to the ``BufferPool`` it came from by reference
count, as a ``MappedBuffer`` returns its arena slot, so a loop of large
calls allocates nothing after the first ones.  A view of the storage
that outlives its buffer (a ``memoryview``, a ``sequence<zc_double>``
ndarray) keeps its bytes: that storage is not recycled.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro.core import BufferPool, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.idl import compile_idl
from repro.orb import ORB, ORBConfig
from repro.services import BlobStoreImpl, read_all

api = compile_idl("""interface Keeper {
    unsigned long keep(in sequence<zc_octet> data);
    unsigned long take(in sequence<zc_octet> data);
    double keep_doubles(in sequence<zc_double> data);
};""", module_name="_landings_idl")

#: a deposit, not an inline payload
DEPOSIT = 2 * DEPOSIT_MIN_SIZE
BIG = 8 << 20
LOOP = 16


class _Keeper(api.Keeper_skel):
    def __init__(self):
        self.kept = []

    def keep(self, data):
        self.kept.append(data)
        return len(data)

    def take(self, data):
        return len(data)

    def keep_doubles(self, data):
        self.kept.append(data)
        return float(data[0])


def _settle(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _outstanding(pool: BufferPool) -> int:
    stats = pool.stats()
    return stats["hits"] + stats["misses"] - stats["reclaims"]


def _hit_frac(pool: BufferPool, before: dict) -> float:
    stats = pool.stats()
    hits = stats["hits"] - before["hits"]
    return hits / (hits + stats["misses"] - before["misses"])


@pytest.fixture
def pair():
    """(stub, servant, server pool, client pool) over tcp, the server
    with its default pool of threads."""
    server_pool, client_pool = BufferPool(), BufferPool()
    server = ORB(ORBConfig(scheme="tcp"), pool=server_pool)
    client = ORB(ORBConfig(scheme="tcp"), pool=client_pool)
    impl = _Keeper()
    try:
        stub = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        yield stub, impl, server_pool, client_pool
    finally:
        client.shutdown()
        server.shutdown()


def test_a_servant_that_keeps_its_sequence_reads_its_own_bytes(pair):
    stub, impl, server_pool, _ = pair
    first = bytes(range(256)) * (DEPOSIT // 256)
    assert stub.keep(ZCOctetSequence.from_data(first)) == DEPOSIT
    for i in range(10):  # ten more landings, each dropped by its servant
        assert stub.take(ZCOctetSequence.from_data(
            bytes([i]) * DEPOSIT)) == DEPOSIT
    (kept,) = impl.kept
    assert bytes(kept) == first
    # the dropped ten went back to the pool (landing buffers are reused),
    # the kept one did not
    assert _settle(lambda: _outstanding(server_pool) == 1)
    assert server_pool.stats()["hits"] >= 9


def test_a_view_that_outlives_its_sequence_keeps_its_storage():
    pool = BufferPool()
    seq = ZCOctetSequence.adopt(pool.acquire(DEPOSIT), pool=pool)
    seq.view()[:] = b"k" * DEPOSIT
    view = seq.view()
    del seq
    gc.collect()
    assert pool.stats()["reclaims"] == 0  # the view holds the storage
    again = pool.acquire(DEPOSIT)
    again.view()[:] = b"x" * DEPOSIT
    assert view.tobytes() == b"k" * DEPOSIT
    assert pool.stats()["misses"] == 2
    del view, again
    gc.collect()
    # the buffer acquired again comes back; the viewed storage was freed
    # with its view, never recycled
    assert pool.stats()["reclaims"] == 1 and pool.cached_count == 1


def test_a_double_sequence_that_outlives_its_call_keeps_its_bytes(pair):
    stub, impl, server_pool, _ = pair
    n = DEPOSIT // 8
    first = np.arange(n, dtype=np.float64)
    assert stub.keep_doubles(first) == 0.0
    for i in range(10):
        assert stub.take(ZCOctetSequence.from_data(
            bytes([i]) * DEPOSIT)) == DEPOSIT
    (kept,) = impl.kept
    assert isinstance(kept, np.ndarray)
    assert np.array_equal(kept, first)
    assert _settle(lambda: _outstanding(server_pool) == 1)
    cached = server_pool.cached_count
    impl.kept.clear()
    del kept
    gc.collect()
    # the ndarray's storage went with it, not back to the pool
    assert server_pool.cached_count == cached
    assert _outstanding(server_pool) == 1


def test_large_landings_come_back_to_the_servers_pool(pair):
    stub, _, server_pool, _ = pair
    payload = ZCOctetSequence.from_data(bytes(BIG))
    before = server_pool.stats()
    for _ in range(LOOP):
        assert stub.take(payload) == BIG
    assert _hit_frac(server_pool, before) >= 0.9, server_pool.stats()
    assert _settle(lambda: _outstanding(server_pool) == 0), \
        server_pool.stats()


def test_concurrent_landings_come_back_to_the_servers_pool(pair):
    """Four callers, so the pool's threads land and drop in parallel."""
    stub, _, server_pool, _ = pair
    errors = []

    def calls():
        payload = ZCOctetSequence.from_data(bytes(BIG))
        try:
            for _ in range(LOOP // 4):
                assert stub.take(payload) == BIG
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    callers = [threading.Thread(target=calls) for _ in range(4)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(30)
    assert not errors, errors
    assert _settle(lambda: _outstanding(server_pool) == 0), \
        server_pool.stats()
    assert server_pool.stats()["misses"] <= 4


def test_read_range_results_are_reused_and_read_all_still_reads(tmp_path):
    data = bytes(range(256)) * (4 * BIG // 256)
    (tmp_path / "blob.bin").write_bytes(data)
    impl = BlobStoreImpl(tmp_path, chunk_size=BIG)
    client_pool = BufferPool()
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp", collocated_calls=False),
                 pool=client_pool)
    try:
        store = client.string_to_object(
            server.object_to_string(server.activate(impl)))
        handle = store.open("blob.bin")
        before = client_pool.stats()
        for i in range(LOOP):
            offset = (i % 4) * BIG
            seq = store.read_range(handle, offset, BIG)
            assert seq[:4] == data[offset:offset + 4] and len(seq) == BIG
            del seq  # dropped one by one: the next lands in its storage
        store.close(handle)
        assert _hit_frac(client_pool, before) >= 0.9, client_pool.stats()
        assert _outstanding(client_pool) == 0, client_pool.stats()
        assert read_all(store, "blob.bin") == data
    finally:
        impl.shutdown()
        client.shutdown()
        server.shutdown()
