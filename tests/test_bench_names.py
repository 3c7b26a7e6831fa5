"""The pipeline benchmark looks billzeta functions up by name from
outside the package: ``perfbench/tracing.py`` wraps every ``TARGETS``
function and ``DET_METHODS`` method, and ``perfbench/run.py`` reads
``billzeta._accel.NUMBA_ENABLED``.  A renamed or deleted name would turn
a benchmark metric into 0 or stop the run, so every one must resolve."""

import importlib
import sys
import types
from pathlib import Path

from billzeta import zeta

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch) -> types.ModuleType:
    """``perfbench/tracing.py`` executed from its source, so no bytecode
    is written next to it; it is registered as a module while the test
    runs, as its dataclasses need."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_bench_lookups_resolve_in_billzeta(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.TARGETS and tracing.DET_METHODS
    for module, name, _, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"billzeta.{module}"), name, None)
        assert callable(target), f"billzeta.{module}.{name}"
    for name in tracing.DET_METHODS:
        assert callable(getattr(zeta.DeterminantExpansion, name, None)), name
    assert isinstance(importlib.import_module("billzeta._accel").NUMBA_ENABLED, bool)
