"""Shared fixtures: a compiled IDL test service and ORB pairs, and the
guard that fails a test during which an exception escaped unseen."""

import logging
import threading

import pytest

from repro.idl import compile_idl
from repro.orb import ORB, ORBConfig

TEST_IDL = """
module Test {
  exception Failed { string reason; long code; };
  struct Header { string name; unsigned long size; };

  interface Store {
    readonly attribute unsigned long total;
    unsigned long put(in sequence<zc_octet> data) raises (Failed);
    unsigned long put_std(in sequence<octet> data);
    sequence<zc_octet> get(in unsigned long n);
    sequence<octet> get_std(in unsigned long n);
    string describe(in Header h);
    string swap(inout string s);
    oneway void reset();
  };
};
"""


@pytest.fixture(autouse=True)
def no_escaped_exceptions(request):
    """Nothing escapes unseen: an exception out of an event-loop
    callback (asyncio logs ``Exception in callback ...`` and carries
    on) or out of a thread's ``run`` (``threading.excepthook``) fails
    the test it happened during, because the connection or the thread
    it killed is otherwise only missed by whoever waits for it.  A test
    that provokes one on purpose opts out with
    ``@pytest.mark.provokes_escape``."""
    if request.node.get_closest_marker("provokes_escape") is not None:
        yield
        return
    escaped = []

    class Catch(logging.Handler):
        def emit(self, record):
            message = record.getMessage()
            if message.startswith("Exception in callback"):
                escaped.append(f"{message}: {record.exc_info[1]!r}"
                               if record.exc_info else message)

    def hook(args):
        escaped.append(f"thread {getattr(args.thread, 'name', '?')} died "
                       f"of {args.exc_value!r}")
        chained(args)

    catch = Catch()
    logging.getLogger("asyncio").addHandler(catch)
    chained, threading.excepthook = threading.excepthook, hook
    try:
        yield
    finally:
        threading.excepthook = chained
        logging.getLogger("asyncio").removeHandler(catch)
    assert not escaped, "escaped unseen: " + "; ".join(escaped)


@pytest.fixture(scope="session")
def test_api():
    """The generated Python module for TEST_IDL (stubs, skeletons...)."""
    return compile_idl(TEST_IDL, module_name="_test_store_idl")


def make_store_impl(api):
    from repro.core import OctetSequence, ZCOctetSequence

    class StoreImpl(api.Test_Store_skel):
        def __init__(self):
            self._total = 0
            # the server dispatches pipelined requests concurrently, so
            # the accumulator must be atomic for deposit-total checks
            self._mutate = threading.Lock()
            self.last = None
            self.resets = 0

        def _get_total(self):
            return self._total

        def put(self, data):
            if len(data) == 0:
                raise api.Test_Failed(reason="empty", code=7)
            with self._mutate:
                self.last = data
                self._total += len(data)
                return self._total

        def put_std(self, data):
            with self._mutate:
                self.last = data
                self._total += len(data)
                return self._total

        def get(self, n):
            return ZCOctetSequence.from_data(bytes(i % 256
                                                   for i in range(n)))

        def get_std(self, n):
            return OctetSequence(bytes(i % 256 for i in range(n)))

        def describe(self, h):
            return f"{h.name}/{h.size}"

        def swap(self, s):
            return (s.upper(), s[::-1])

        def reset(self):
            self._total = 0
            self.resets += 1

    return StoreImpl()


@pytest.fixture
def store_impl(test_api):
    return make_store_impl(test_api)


@pytest.fixture
def loop_pair(test_api, store_impl):
    """(client_stub, servant, client_orb, server_orb) over loopback."""
    server = ORB(ORBConfig(scheme="loop"))
    client = ORB(ORBConfig(scheme="loop"))
    ref = server.activate(store_impl)
    stub = client.string_to_object(server.object_to_string(ref))
    yield stub, store_impl, client, server
    client.shutdown()
    server.shutdown()


@pytest.fixture
def tcp_pair(test_api, store_impl):
    """Same service over real TCP sockets."""
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"))
    ref = server.activate(store_impl)
    stub = client.string_to_object(server.object_to_string(ref))
    yield stub, store_impl, client, server
    client.shutdown()
    server.shutdown()
