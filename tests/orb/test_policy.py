"""The resilience layer: deadlines, retry budgets, backoff, deposit
fallback — driven end-to-end through the ORB over the fault-injection
transport.

Covers the acceptance scenarios of the resilience subsystem: a call
that hits a mid-stream reset completes via retry with backoff; a call
exceeding its deadline raises TIMEOUT with an honest completion status;
an interrupted zero-copy deposit returns its buffer to the pool and the
retry succeeds via the copy path.

The loop behind all of it is one machine with a blocking and an
awaiting driver (DESIGN.md §15), so every class that goes through an
ORB runs twice: as written, ``call`` is ``stub.op(...)``; in its
``...Async`` subclass it is ``asyncio.run(async_api(stub).op(...))``.
Same exception type, completion status, ``ConnStats`` counters and
recorded sleep schedule on both, asserted rather than promised."""

import asyncio
import dataclasses
import time

import pytest

from repro.core import BufferPool, OctetSequence, ZCOctetSequence
from repro.core.direct_deposit import DEPOSIT_MIN_SIZE
from repro.orb import (COMM_FAILURE, ORB, TIMEOUT, CompletionStatus,
                       Deadline, InvocationPolicy, ORBConfig, retry_safe)
from repro.orb.aio import async_api
from repro.orb.exceptions import INTERNAL, TRANSIENT
from repro.transport import FaultPlan, faulty_registry


def _policy(**kw):
    """A test policy that records sleeps instead of performing them."""
    sleeps = []
    kw.setdefault("max_retries", 3)
    kw.setdefault("seed", 7)
    pol = InvocationPolicy(sleep=sleeps.append, **kw)
    return pol, sleeps


def faulty_client(plan, policy=None):
    return ORB(ORBConfig(scheme="loop"), transports=faulty_registry(plan),
               policy=policy)


class _Blocking:
    """The sync stub: ``IIOPProxy.invoke`` drives the machine."""

    def __call__(self, stub, op, *args):
        return getattr(stub, op)(*args)

    def attribute(self, stub, name):
        return getattr(stub, name)

    def through_orb(self, orb, ior, sig, args, policy):
        return orb.invoke(ior, sig, args, policy=policy)


class _Awaiting:
    """``async_api``: ``IIOPProxy.invoke_async`` drives the machine."""

    def __call__(self, stub, op, *args):
        return asyncio.run(getattr(async_api(stub), op)(*args))

    def attribute(self, stub, name):
        # AsyncStub has no attribute accessors (a property cannot be
        # awaited), so the getter enters one layer down — the same
        # ORB.invoke_async every AsyncStub operation ends in
        return self.through_orb(stub._orb, stub.ior,
                                stub._signature(f"_get_{name}"), (),
                                stub._policy)

    def through_orb(self, orb, ior, sig, args, policy):
        return asyncio.run(orb.invoke_async(ior, sig, args, policy=policy))


@pytest.fixture
def call(request):
    """How the test's class makes its calls (see module docstring)."""
    return _Awaiting() if getattr(request.cls, "awaiting", False) \
        else _Blocking()


@pytest.fixture
def faulty_pair_factory(test_api, store_impl):
    """makes (stub, impl, client, server) with a FaultPlan + policy."""
    orbs = []

    def make(plan, policy=None, server_pool=None):
        server = ORB(ORBConfig(scheme="loop"), pool=server_pool)
        client = faulty_client(plan, policy)
        orbs.extend([client, server])
        ref = server.activate(store_impl)
        stub = client.string_to_object(server.object_to_string(ref))
        return stub, store_impl, client, server

    yield make
    for orb in orbs:
        orb.shutdown()


class TestBackoffSchedule:
    def test_deterministic_given_seed(self):
        a = InvocationPolicy(max_retries=4, seed=11)
        b = InvocationPolicy(max_retries=4, seed=11)
        assert a.preview_schedule() == b.preview_schedule()
        assert [a.backoff(i) for i in range(4)] == b.preview_schedule()

    def test_exponential_without_jitter(self):
        pol = InvocationPolicy(max_retries=3, base_backoff=0.01,
                               backoff_multiplier=2.0, jitter=0.0)
        assert pol.preview_schedule() == [0.01, 0.02, 0.04]

    def test_backoff_ceiling(self):
        pol = InvocationPolicy(max_retries=8, base_backoff=0.1,
                               backoff_multiplier=10.0, max_backoff=0.5,
                               jitter=0.0)
        assert max(pol.preview_schedule()) == 0.5

    def test_jitter_stays_within_fraction(self):
        pol = InvocationPolicy(max_retries=50, base_backoff=0.1,
                               backoff_multiplier=1.0, jitter=0.2, seed=3)
        for delay in pol.preview_schedule():
            assert 0.08 <= delay <= 0.12

    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            InvocationPolicy(jitter=1.5)


class TestRetryDecision:
    def test_matrix(self):
        pol = InvocationPolicy(max_retries=2)
        no = CompletionStatus.COMPLETED_NO
        maybe = CompletionStatus.COMPLETED_MAYBE
        yes = CompletionStatus.COMPLETED_YES
        assert pol.retryable(TRANSIENT(completed=no))
        assert pol.retryable(COMM_FAILURE(completed=no))
        assert not pol.retryable(COMM_FAILURE(completed=maybe))
        assert pol.retryable(COMM_FAILURE(completed=maybe), idempotent=True)
        assert not pol.retryable(COMM_FAILURE(completed=yes))
        assert not pol.retryable(INTERNAL(completed=no))
        assert not pol.retryable(TIMEOUT(completed=no))

    def test_retry_safe_helper(self):
        no = CompletionStatus.COMPLETED_NO
        maybe = CompletionStatus.COMPLETED_MAYBE
        assert retry_safe(TRANSIENT(completed=no))
        assert not retry_safe(TRANSIENT(completed=maybe))
        assert retry_safe(TRANSIENT(completed=maybe), idempotent=True)
        assert not retry_safe(INTERNAL(completed=no))

    def test_category_switches(self):
        no = CompletionStatus.COMPLETED_NO
        pol = InvocationPolicy(max_retries=2, retry_comm_failure=False)
        assert not pol.retryable(COMM_FAILURE(completed=no))
        assert pol.retryable(TRANSIENT(completed=no))


class TestDeadline:
    def test_fake_clock(self):
        now = [100.0]
        dl = Deadline(0.5, clock=lambda: now[0])
        assert not dl.expired
        assert dl.remaining == pytest.approx(0.5)
        now[0] += 0.6
        assert dl.expired

    def test_policy_without_timeout_has_no_deadline(self):
        assert InvocationPolicy().start_deadline() is None


class TestRetryThroughORB:
    def test_mid_stream_reset_retried_with_backoff(self, faulty_pair_factory,
                                                   call):
        """Acceptance: one mid-stream reset, call still completes."""
        plan = FaultPlan().partial_send(nth=1, fraction=0.5)
        pol, sleeps = _policy()
        stub, impl, client, _ = faulty_pair_factory(plan, pol)
        assert call(stub, "put_std", OctetSequence(b"resilient!")) == 10
        assert impl._total == 10  # executed exactly once
        assert [e.action for e in plan.events] == ["partial"]
        assert sleeps == pol.preview_schedule()[:1]
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.retries == 1
        assert proxy.stats.reconnects == 1

    def test_connect_refusal_retried_and_zc_path_preserved(
            self, faulty_pair_factory, call):
        """A connect-time failure retries without abandoning zero-copy:
        the fresh attempt re-registers the deposit on the new conn."""
        plan = FaultPlan().refuse_connect(nth=1)
        pol, _ = _policy()
        stub, impl, client, _ = faulty_pair_factory(plan, pol)
        payload = bytes(range(256)) * (DEPOSIT_MIN_SIZE // 256)
        assert call(stub, "put", ZCOctetSequence.from_data(payload)) \
            == len(payload)
        assert isinstance(impl.last, ZCOctetSequence)
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.retries == 1
        assert proxy.stats.deposits_sent == 1
        assert proxy.stats.deposit_fallbacks == 0

    def test_corrupted_control_bytes_retried(self, faulty_pair_factory,
                                             call):
        """GIOP header corruption draws a MessageError from the server;
        the request never executed, so the retry is safe."""
        plan = FaultPlan().corrupt_send(nth=1, byte_offset=0)
        pol, _ = _policy()
        stub, impl, _, _ = faulty_pair_factory(plan, pol)
        assert call(stub, "put_std", OctetSequence(b"abc")) == 3
        assert impl._total == 3

    def test_budget_exhaustion_raises_original(self, faulty_pair_factory,
                                               call):
        plan = (FaultPlan().reset_on_send(nth=1, conn=1)
                .reset_on_send(nth=1, conn=2)
                .reset_on_send(nth=1, conn=3))
        pol, sleeps = _policy(max_retries=2)
        stub, impl, client, _ = faulty_pair_factory(plan, pol)
        with pytest.raises(COMM_FAILURE, match="injected reset"):
            call(stub, "put_std", OctetSequence(b"never"))
        assert impl._total == 0
        assert len(sleeps) == 2
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.retries == 2

    def test_no_policy_means_single_attempt(self, faulty_pair_factory,
                                            call):
        plan = FaultPlan().reset_on_send(nth=1)
        stub, impl, _, _ = faulty_pair_factory(plan, policy=None)
        with pytest.raises(COMM_FAILURE):
            call(stub, "put_std", OctetSequence(b"x"))
        assert impl._total == 0

    def test_reply_side_failure_not_retried_unless_idempotent(
            self, faulty_pair_factory, call):
        """Once the request left in full, completion is unknowable:
        COMPLETED_MAYBE must not be transparently retried..."""
        plan = FaultPlan().reset_on_recv(nth=1)
        pol, _ = _policy()
        stub, impl, client, _ = faulty_pair_factory(plan, pol)
        with pytest.raises(COMM_FAILURE) as ei:
            call(stub, "put_std", OctetSequence(b"side-effect"))
        assert ei.value.completed is CompletionStatus.COMPLETED_MAYBE
        assert impl._total == 11  # the server did execute it

    def test_reply_side_failure_retried_when_idempotent(
            self, faulty_pair_factory, call):
        """...but an idempotent operation may be re-issued."""
        plan = FaultPlan().reset_on_recv(nth=1)
        pol, _ = _policy()
        stub, _, client, _ = faulty_pair_factory(plan, pol)
        sig = dataclasses.replace(stub._signature("get_std"),
                                  idempotent=True)
        result = call.through_orb(client, stub.ior, sig, [8], pol)
        assert bytes(result) == bytes(i % 256 for i in range(8))

    def test_readonly_attribute_is_idempotent(self, faulty_pair_factory,
                                              call):
        """Attribute getters are marked idempotent by the IDL compiler,
        so even a COMPLETED_MAYBE failure retries."""
        plan = FaultPlan().reset_on_recv(nth=1)
        pol, _ = _policy()
        stub, impl, _, _ = faulty_pair_factory(plan, pol)
        impl._total = 99
        assert call.attribute(stub, "total") == 99

    def test_stats_accumulate_across_reconnects(self, faulty_pair_factory,
                                                call):
        plan = FaultPlan().reset_on_send(nth=2)
        pol, _ = _policy()
        stub, _, client, _ = faulty_pair_factory(plan, pol)
        call(stub, "put_std", OctetSequence(b"one"))
        call(stub, "put_std", OctetSequence(b"two"))
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.reconnects == 1
        assert proxy.stats.retries == 1
        # the interrupted send is never tallied: 2 calls that completed
        assert proxy.stats.messages_sent == 2
        assert proxy.conn.stats is proxy.stats

    def test_per_proxy_policy_overrides_orb(self, faulty_pair_factory,
                                            call):
        plan = FaultPlan().reset_on_send(nth=1)
        stub, impl, _, _ = faulty_pair_factory(plan, policy=None)
        pol, _ = _policy()
        stub._set_policy(pol)
        assert call(stub, "put_std", OctetSequence(b"ok")) == 2
        assert impl._total == 2


class TestDeadlines:
    def test_deadline_expiry_mid_send_is_completed_no(
            self, faulty_pair_factory, call):
        """Acceptance: the stall trips the deadline and the reset
        guarantees the request never fully left — TIMEOUT must carry
        COMPLETED_NO, the one completion status it can assert."""
        plan = FaultPlan().stall_then_reset_send(nth=1, delay=0.06)
        pol, _ = _policy(timeout=0.02, max_retries=5)
        stub, impl, client, _ = faulty_pair_factory(plan, pol)
        with pytest.raises(TIMEOUT) as ei:
            call(stub, "put_std", OctetSequence(b"too slow"))
        assert ei.value.completed is CompletionStatus.COMPLETED_NO
        assert impl._total == 0
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.timeouts == 1

    def test_deadline_expiry_mid_deposit_send(self, faulty_pair_factory,
                                              call):
        """Same honesty requirement when the stall interrupts the
        zero-copy data path itself."""
        plan = FaultPlan().stall_then_reset_send(nth=1, delay=0.06)
        pol, _ = _policy(timeout=0.02, max_retries=5)
        stub, impl, _, _ = faulty_pair_factory(plan, pol)
        with pytest.raises(TIMEOUT) as ei:
            call(stub, "put", ZCOctetSequence.from_data(b"z" * 65536))
        assert ei.value.completed is CompletionStatus.COMPLETED_NO
        assert impl._total == 0

    def test_deadline_already_expired_raises_before_send(self):
        now = [0.0]
        pol = InvocationPolicy(timeout=0.01, clock=lambda: now[0],
                               sleep=lambda s: None)
        dl = pol.start_deadline()
        now[0] += 0.02
        assert dl.expired

    def test_backoff_clamped_to_deadline_budget(self, faulty_pair_factory,
                                                call):
        """The retry sleep never overshoots the remaining deadline."""
        plan = FaultPlan().reset_on_send(nth=1)
        pol, sleeps = _policy(timeout=5.0, max_retries=2,
                              base_backoff=60.0, jitter=0.0)
        stub, _, _, _ = faulty_pair_factory(plan, pol)
        assert call(stub, "put_std", OctetSequence(b"ok")) == 2
        assert len(sleeps) == 1 and sleeps[0] <= 5.0


class TestDepositFallback:
    def test_interrupted_deposit_returns_buffer_and_retries_by_copy(
            self, faulty_pair_factory, call):
        """Acceptance: a deposit cut mid-landing gives its page-aligned
        buffer back to the pool (no leak), and the retry delivers the
        same payload via the copy path."""
        pool = BufferPool()
        payload = bytes(i % 251 for i in range(65536))
        plan = FaultPlan().partial_send(nth=1, fraction=0.5)
        pol, sleeps = _policy()
        stub, impl, client, _ = faulty_pair_factory(plan, pol,
                                                    server_pool=pool)
        assert call(stub, "put", ZCOctetSequence.from_data(payload)) \
            == len(payload)
        # exactly one landing buffer was acquired, and it went back
        acquired = pool.hits + pool.misses
        assert acquired == 1
        assert pool.reclaims == 1
        assert pool.cached_count == 1
        # the payload arrived intact, by copy, exactly once
        assert bytes(impl.last) == payload
        assert impl._total == len(payload)
        proxy = next(iter(client._proxies.values()))
        assert proxy.stats.deposit_fallbacks == 1
        assert proxy.stats.retries == 1
        # the doomed deposit send never completed, the retry used the
        # copy path: no deposit is ever tallied as sent
        assert proxy.stats.deposits_sent == 0
        assert sleeps == pol.preview_schedule()[:1]

    def test_fallback_is_observable_in_events(self, faulty_pair_factory,
                                              call):
        plan = FaultPlan().partial_send(nth=1, fraction=0.5)
        pol, _ = _policy()
        stub, _, _, _ = faulty_pair_factory(plan, pol)
        call(stub, "put", ZCOctetSequence.from_data(b"q" * 32768))
        (ev,) = plan.events
        assert ev.action == "partial" and ev.op == "send"


class TestTCPDeadline:
    def test_slow_server_trips_read_timeout(self, call):
        """Over real TCP the remaining deadline becomes a socket
        timeout; expiry surfaces as TIMEOUT with COMPLETED_MAYBE (the
        request did leave in full)."""
        from repro.idl import compile_idl
        api = compile_idl("""
            interface Sleepy { long nap(in unsigned long millis); };
        """, module_name="_test_sleepy_idl")

        class SleepyImpl(api.Sleepy_skel):
            def nap(self, millis):
                time.sleep(millis / 1000.0)
                return millis

        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"),
                     policy=InvocationPolicy(timeout=0.1))
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(SleepyImpl())))
            t0 = time.monotonic()
            with pytest.raises(TIMEOUT) as ei:
                call(stub, "nap", 2000)
            assert time.monotonic() - t0 < 1.0
            assert ei.value.completed is CompletionStatus.COMPLETED_MAYBE
        finally:
            client.shutdown()
            server.shutdown()


class _ResetSocket:
    """The real socket, except that the next ``sendmsg`` finds the
    connection reset (the server went away between two calls, and the
    write is the first to notice)."""

    def __init__(self, sock):
        self._sock, self.reset_on = sock, None

    def sendmsg(self, *args):
        import errno
        import threading
        if self.reset_on is None:
            self.reset_on = threading.current_thread()
            raise ConnectionResetError(errno.ECONNRESET, "injected reset")
        return self._sock.sendmsg(*args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestTCPWriteFailure:
    """Plain tcp, a live connection, and the write itself fails: under
    the awaiting driver that write is made in place, on the loop, and
    the redial it leads to goes through the executor — same exception,
    completion status and counters as on the calling thread."""

    @pytest.fixture
    def dialed(self, test_api, store_impl):
        orbs = []

        def make(call, policy=None):
            server = ORB(ORBConfig(scheme="tcp"))
            client = ORB(ORBConfig(scheme="tcp"), policy=policy)
            orbs.extend([client, server])
            stub = client.string_to_object(
                server.object_to_string(server.activate(store_impl)))
            assert call(stub, "put_std", OctetSequence(b"ab")) == 2
            proxy = next(iter(client._proxies.values()))
            stream = proxy.conn.stream
            stream._sock = _ResetSocket(stream._sock)
            return stub, proxy, stream._sock

        yield make
        for orb in orbs:
            orb.shutdown()

    def test_reset_on_the_write_redials_and_retries(self, dialed, call):
        import threading
        pol, sleeps = _policy(base_backoff=0.01, jitter=0.0)
        stub, proxy, sock = dialed(call, pol)
        assert call(stub, "put_std", OctetSequence(b"cd")) == 4
        # asyncio.run's loop is this thread: no pool thread wrote
        assert sock.reset_on is threading.current_thread()
        assert sleeps == [0.01]
        stats = proxy.stats
        assert (stats.retries, stats.reconnects, stats.timeouts) == (1, 1, 0)
        assert stats.messages_sent == 2  # the reset write sent nothing

    def test_without_a_budget_the_caller_sees_the_write_fail(self, dialed,
                                                              call):
        stub, proxy, _ = dialed(call)
        with pytest.raises(COMM_FAILURE) as ei:
            call(stub, "put_std", OctetSequence(b"cd"))
        assert ei.value.completed is CompletionStatus.COMPLETED_NO
        assert (proxy.stats.retries, proxy.stats.reconnects) == (0, 0)
        # the next call finds the connection closed and redials
        assert call(stub, "put_std", OctetSequence(b"ef")) == 4
        assert (proxy.stats.retries, proxy.stats.reconnects) == (0, 1)


class TestRetryThroughORBAsync(TestRetryThroughORB):
    awaiting = True


class TestDeadlinesAsync(TestDeadlines):
    awaiting = True


class TestDepositFallbackAsync(TestDepositFallback):
    awaiting = True


class TestTCPDeadlineAsync(TestTCPDeadline):
    awaiting = True


class TestTCPWriteFailureAsync(TestTCPWriteFailure):
    awaiting = True
