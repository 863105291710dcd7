"""Async stub surface: ``await proxy.op(...)`` over the reactor ORB.

The sync stubs (:mod:`repro.orb.stubs`) stay untouched; this module
wraps any of them in an :class:`AsyncStub` whose attribute access
returns coroutine functions delegating to ``ORB.invoke_async`` — the
awaiting driver of the one invocation machine in
:mod:`repro.orb.proxy`, so deadlines, retries and exceptions are the
sync stub's.  An awaited call holds **no thread** while the reply is
in flight; thousands can be in flight from one task.

Three usage shapes:

* one call: ``value = await async_api(stub).get(key)``;
* windowed fan-out: ``results = await gather_window(calls, window=8)``
  keeps at most ``window`` requests pipelined;
* sync-world bridge: ``run_sync(coro)`` executes a coroutine on the
  reactor's loop from a plain thread (``run_coroutine_threadsafe``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional, Sequence

from .stubs import ObjectStub

__all__ = ["AsyncStub", "async_api", "gather_window", "run_sync"]


class AsyncStub:
    """Coroutine view over a sync stub: every IDL operation awaits.

    Unknown operation names raise ``BAD_OPERATION`` at *call* time
    (via the wrapped stub's signature lookup), matching the sync stub.
    """

    __slots__ = ("_stub",)

    def __init__(self, stub: ObjectStub):
        self._stub = stub

    @property
    def sync(self) -> ObjectStub:
        """The wrapped synchronous stub."""
        return self._stub

    def __getattr__(self, name: str) -> Callable[..., Awaitable[Any]]:
        if name.startswith("_"):
            raise AttributeError(name)
        stub = self._stub

        async def call(*args: Any) -> Any:
            sig = stub._signature(name)
            return await stub._orb.invoke_async(
                stub._ior, sig, args, policy=stub._policy)

        call.__name__ = name
        return call

    def __repr__(self) -> str:
        return f"<AsyncStub {self._stub!r}>"


def async_api(stub: ObjectStub) -> AsyncStub:
    """The awaitable twin of a generated sync stub."""
    return AsyncStub(stub)


async def gather_window(
        factories: Sequence[Callable[[], Awaitable[Any]]],
        window: int = 8,
        return_exceptions: bool = False) -> list:
    """Run awaitable factories with at most ``window`` in flight.

    Results come back in *submission* order regardless of completion
    order.
    Factories (not coroutines) are taken so a queued call does not
    even marshal until a window slot frees up.
    """
    if window < 1:
        raise ValueError(f"window must be positive: {window}")
    results: list = [None] * len(factories)
    todo = iter(enumerate(factories))  # shared: O(window) tasks, not O(calls)

    async def worker() -> None:
        for i, factory in todo:
            try:
                results[i] = await factory()
            except Exception as exc:
                if not return_exceptions:
                    raise
                results[i] = exc

    workers = [asyncio.ensure_future(worker())
               for _ in range(min(window, len(results)))]
    try:
        await asyncio.gather(*workers)
    finally:
        for w in workers:  # the first exception stops the others too
            w.cancel()
    return results


def run_sync(coro, timeout: Optional[float] = None,
             reactor=None) -> Any:
    """Run ``coro`` to completion from a non-async thread.

    Submits to the given reactor's loop (default: the process-wide
    reactor, started on demand) via ``run_coroutine_threadsafe`` and
    blocks for the result — the documented bridge for sync code that
    wants to reuse an async call path.  *On* the reactor's loop thread
    it raises ``RuntimeError``; when ``timeout`` expires it cancels the task.
    """
    if reactor is None:
        from .reactor import get_reactor
        reactor = get_reactor()
    return reactor.run_sync(coro, timeout)
