"""Checks on the files each CLI command writes.

Every check returns a list of problems; an empty list means the output
is correct.  Fixture outputs are compared with ``reference.json``, which
holds values recorded from the unmoved fixture at the commit that added
this benchmark (see ``record_reference.py``).  No tolerance here is
looser than the one the acceptance gate in ``tests/test_acceptance.py``
applies to the same quantity.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from billzeta.orbits import SOLVER_TOL
from billzeta.symbolic import primitive_class_count

# acceptance criterion 4: transfer and periodic abscissas agree to 1e-3
# when the periodic-point order is 10; lower orders have no stated bound
METHOD_GAP_TOL = 1e-3
METHOD_GAP_MIN_ORDER = 10
# recorded fixture abscissas: the root solve stops at |P| <= 1e-10
ABSCISSA_REF_TOL = 1e-8
# recorded fixture zeros; criterion 11 lets a zero move 1e-4 between orders
POLE_REF_TOL = 1e-6
# criterion 9: Gaussian direct and quadrature forms agree at (12.8, 0.1)
GAUSS_DUAL_TOL = 1e-8


def nothing(out: Path) -> list:
    return []


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _table(out: Path, name: str):
    path = out / name
    if not path.is_file():
        return None, [f"{name} missing"]
    return _rows(path), []


def orbits(out: Path, r: int, n_max: int) -> list:
    """Per-length cycle counts equal the Moebius count and every residual
    is within the solver tolerance."""
    rows, problems = _table(out, "orbits.csv")
    if rows is None:
        return problems
    counts = {}
    for row in rows:
        n = int(row["length"])
        counts[n] = counts.get(n, 0) + 1
    want = {n: primitive_class_count(r, n) for n in range(2, n_max + 1)}
    if counts != want:
        problems.append(f"cycle counts {counts} differ from primitive_class_count {want}")
    worst = max((float(row["residual"]) for row in rows), default=math.nan)
    if not worst <= SOLVER_TOL:
        problems.append(f"largest residual {worst:.3e} exceeds SOLVER_TOL {SOLVER_TOL:.0e}")
    return problems


def abscissas(out: Path, reference: dict | None) -> list:
    """b1 < a1 < h, the two methods agree (at the gate's periodic order),
    and fixture values match the recorded ones."""
    rows, problems = _table(out, "abscissas.csv")
    if rows is None:
        return problems
    values = {(row["quantity"], row["method"]): float(row["value"]) for row in rows}
    orders = {row["method"]: int(row["order"]) for row in rows}
    names = ("h", "a1", "b1")
    if any((q, m) not in values for q in names for m in ("transfer", "periodic")):
        return problems + [f"abscissas.csv lacks rows: has {sorted(values)}"]
    h, a1, b1 = (values[(q, "transfer")] for q in names)
    if not b1 < a1 < h:
        problems.append(f"ordering violated: b1={b1!r} a1={a1!r} h={h!r}")
    for q in names if orders["periodic"] >= METHOD_GAP_MIN_ORDER else ():
        gap = abs(values[(q, "transfer")] - values[(q, "periodic")])
        if not gap < METHOD_GAP_TOL:
            problems.append(f"{q}: transfer and periodic differ by {gap:.2e}")
    if reference is not None:
        for (q, m), v in sorted(values.items()):
            ref = reference["abscissas"][q][m]
            if not abs(v - ref) <= ABSCISSA_REF_TOL:
                problems.append(f"{q} ({m}) = {v!r}, recorded {ref!r}")
    return problems


def zeta(out: Path) -> list:
    rows, problems = _table(out, "zeta_estimates.csv")
    if rows is None:
        return problems
    if len(rows) != 5 or not all(math.isfinite(float(r["estimate"])) for r in rows):
        problems.append(f"expected 5 finite series estimates, got {rows}")
    return problems


def poles(out: Path, reference: dict, det_n: int) -> list:
    """Zeros match the recorded ones for this truncation order: same
    count and multiplicities, positions within POLE_REF_TOL."""
    rows, problems = _table(out, "poles.csv")
    if rows is None:
        return problems
    got = [(complex(float(r["re"]), float(r["im"])), int(r["multiplicity"])) for r in rows]
    want = [(complex(re, im), m) for re, im, m in reference["poles"][str(det_n)]]
    if len(got) != len(want):
        return problems + [f"N={det_n}: {len(got)} zeros, recorded {len(want)}"]
    for (s, m), (s_ref, m_ref) in zip(got, want):
        if m != m_ref or not abs(s - s_ref) <= POLE_REF_TOL:
            problems.append(f"N={det_n}: zero {s} (m={m}), recorded {s_ref} (m={m_ref})")
    return problems


def counting(out: Path, n_cycles: int) -> list:
    """Counts never decrease and the last window holds every cycle."""
    rows, problems = _table(out, "counting.csv")
    if rows is None:
        return problems
    counts = [int(r["count"]) for r in rows]
    if counts != sorted(counts):
        problems.append("orbit counts decrease along x")
    if not counts or counts[-1] != n_cycles:
        problems.append(f"last count {counts[-1:]} differs from {n_cycles} cycles")
    return problems


def trace(out: Path) -> list:
    rows, problems = _table(out, "trace_gaussian.csv")
    if rows is None:
        return problems
    at = [r for r in rows if float(r["t"]) == 12.8 and float(r["sigma"]) == 0.1]
    if len(at) != 1:
        return problems + ["trace_gaussian.csv has no row at t=12.8, sigma=0.1"]
    gap = abs(float(at[0]["direct"]) - float(at[0]["quadrature"]))
    if not gap <= GAUSS_DUAL_TOL:
        problems.append(f"Gaussian dual forms differ by {gap:.2e} at t=12.8")
    return problems
