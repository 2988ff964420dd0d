"""The benchmark's tracer (perfbench/tracing.py) finds library functions by
module and attribute name; every one must still resolve, or
``perfbench/run.py --trace 1`` breaks.  The tracer is read, not imported,
so nothing is written under perfbench/."""
import importlib
import types
from pathlib import Path

import pytest

from pinchlab.laplace import Spectrum

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _read_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


_TRACING = _read_tracing()
LOOKUPS = [(m, a) for m, a, _ in _TRACING.TARGETS + _TRACING.COUNTED]


@pytest.mark.parametrize("module,attr", LOOKUPS, ids=[f"{m}.{a}" for m, a in LOOKUPS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_spectrum_reports_k():
    spec = Spectrum(eigenvalues=[0.0, 1.0], residual_norms=[0.0, 0.0],
                    dimension=4, s=0.1)
    assert spec.k == 2
