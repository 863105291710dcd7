"""A refactor of ``src/`` must not silently blind the benchmark.

``benchmarks/e2e/trace.py`` finds the layers it times by name
(``LAYER_ENTRY_POINTS``).  A name that no longer resolves is, by
design, only listed — the run goes on with that layer dark and
``--selftest`` tolerates it.  This test is the other half of that
bargain: it reads the table (and changes nothing under
``benchmarks/e2e``) and fails when ``src/`` stops answering to it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks/e2e/trace.py"


def _load_table():
    # under a name of its own: plain ``trace`` is a stdlib module
    spec = importlib.util.spec_from_file_location("_e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_ENTRY_POINTS


def _resolve(module: str, path: str):
    """What ``Tracer.install`` would wrap: the raw attribute, read off
    the class ``__dict__`` so an inherited name does not count."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


ENTRY_POINTS = sorted({(module, path)
                       for _, module, path, _ in _load_table()})


@pytest.mark.parametrize("module,path", ENTRY_POINTS,
                         ids=[f"{m}:{p}" for m, p in ENTRY_POINTS])
def test_entry_point_resolves_to_a_function(module, path):
    # the tracer's shim rebinds plain functions only; anything else
    # lands in trace.missing_entry_points just like a vanished name
    assert inspect.isfunction(_resolve(module, path))


@pytest.mark.parametrize("module,path", [
    ("repro.orb.proxy", "IIOPProxy.invoke_async"),
    ("repro.orb.orb", "ORB.invoke_async"),
])
def test_async_entry_points_are_coroutine_functions(module, path):
    """The tracer times a coroutine step by step (resume to next
    suspension); a plain function returning an awaitable would be
    booked as one instant call and ``orb.proxy.self_us`` would lie."""
    assert (module, path) in ENTRY_POINTS
    assert inspect.iscoroutinefunction(_resolve(module, path))
