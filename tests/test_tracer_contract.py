"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name; every name it lists must still exist, or `--trace 1` breaks.  The
tracer file is only loaded and read here, never installed."""

import importlib.util
import sys
from pathlib import Path

import pytest

import stablemaps.cli  # noqa: F401  (loads every module the tracer names)
from stablemaps.eulerchi import solve_phi0_chi
from stablemaps.solver import solve_phi0
from stablemaps.target import point_target, projective_space

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, path",
                         [(m, p) for m, p, *_ in tracer.SPANS + tracer.AGGREGATES])
def test_wrapped_function_resolves(module, path):
    assert callable(tracer._original(module, path))


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.CALL_SITES])
def test_counted_call_site_exists(module, attr):
    assert callable(getattr(sys.modules[module], attr, None))


# a call that each counter must see, as perfbench/selftest.py makes it
COUNTED_CALLS = {
    "solver.passes": lambda: solve_phi0(point_target(), 3),
    "eulerchi.passes": lambda: solve_phi0_chi(projective_space(1), 2, (1,)),
}


@pytest.mark.parametrize("module, attr, name", tracer.CALL_SITES)
def test_counted_call_site_is_called(monkeypatch, module, attr, name):
    # the counters wrap the calling module's own binding, so the solve must
    # call the function through that module
    calls = []
    real = getattr(sys.modules[module], attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(sys.modules[module], attr, counted)
    COUNTED_CALLS[name]()
    assert calls
