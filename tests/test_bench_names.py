"""The pipeline benchmark looks billzeta functions up by name from
outside the package: ``perfbench/tracing.py`` wraps every ``TARGETS``
function and ``DET_METHODS`` method, and ``perfbench/run.py`` reads
``billzeta._accel.NUMBA_ENABLED``.  A renamed or deleted name would turn
a benchmark metric into 0 or stop the run, so every one must resolve.
The benchmark's own tests also replace ``cli._write_csv`` to move a zero
of ``poles.csv``, so the command line must write that table through it."""

import importlib
import sys
import types
from pathlib import Path

from billzeta import cli, zeta
from billzeta.database import save_database

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


def test_poles_csv_goes_through_the_module_writer(tmp_path, monkeypatch, db12):
    # a spy in place of ``cli._write_csv(path, header, rows)`` that moves
    # the first zero, as the benchmark's moved-pole test does; ``seen``
    # keeps the rows as written
    seen, write_csv = [], cli._write_csv

    def spy(path, header, rows):
        rows = list(rows)
        seen.append((Path(path).name, list(header), rows))
        if Path(path).name == "poles.csv":
            re, *rest = rows[0]
            rows[0] = (re + 1e-3, *rest)
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", spy)
    cache, out = tmp_path / "c.bin", tmp_path / "out"
    save_database(db12, cache)
    assert cli.main(["poles", "--cache", str(cache), "--out", str(out)]) == 0
    (name, header, rows), = seen
    assert (name, header) == ("poles.csv", ["re", "im", "multiplicity", "residual", "trust_margin"])
    assert rows and all(type(row) is tuple and len(row) == len(header) for row in rows)
    first = (out / "poles.csv").read_text(encoding="utf-8").splitlines()[1]
    assert first.split(",")[0] == repr(rows[0][0])
