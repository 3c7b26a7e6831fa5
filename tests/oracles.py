"""Reference computations that only the unit tests call.

The command line, the acceptance gate and the benchmark use none of
these, so the package does not ship them (``test_package_surface.py``
keeps it that way).  Each does the arithmetic it did as a package
function, so every value it returns keeps its bits:

* word-at-a-time symbolic dynamics: the transition matrix, rotations,
  least rotations, primitive roots, cyclic admissibility and the
  admissible linear words;
* the start angles of :func:`billzeta.orbits.solve_orbits` for one word;
* the log layer of a :class:`billzeta.zeta.DeterminantExpansion`,
  log D and (log D)', and the bound on its k > k_max remainder;
* the real transform of the test window :data:`billzeta.trace.RHO`;
* the CSV writer of one row at a time, one type test per value, that
  the command line's column writer replaced.
"""

import numpy as np

from billzeta.orbits import _default_angles, _disks, _neighbours
from billzeta.zeta import _atom_sums

# ---------------------------------------------------------------------------
# symbolic dynamics, one word at a time (1-based symbols)


def transition_matrix(r: int) -> np.ndarray:
    """0/1 transition matrix: ones off the diagonal."""
    A = np.ones((r, r), dtype=np.int64)
    np.fill_diagonal(A, 0)
    return A


def rotate(word, s):
    n = len(word)
    return tuple(word[(i + s) % n] for i in range(n))


def canonical_rotation(word):
    """Return (canonical word, shift) with canonical = rotate(word, shift)."""
    word = tuple(word)
    return min((word[s:] + word[:s], s) for s in range(len(word)))


def primitive_root(word):
    """Smallest block whose repetition gives ``word``; returns (root, reps)."""
    word = tuple(word)
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d], n // d
    raise AssertionError("unreachable")


def is_cyclically_admissible(word) -> bool:
    word = tuple(word)
    n = len(word)
    if n < 2:
        return False
    return all(word[i] != word[(i + 1) % n] for i in range(n))


def enumerate_words(r: int, length: int):
    """Admissible non-cyclic words of the given length (1-based symbols)."""
    if length < 1:
        return []
    words = [(s,) for s in range(1, r + 1)]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(1, r + 1) if s != w[-1]]
    return words


# ---------------------------------------------------------------------------
# orbits


def default_angles(config, word) -> np.ndarray:
    """The solver's start for one word: each point faces the midpoint of
    the previous and next disk centers."""
    cx, cy, _ = _disks(config, [tuple(word)])
    return _default_angles(cx, cy, *_neighbours(np.array([len(word)]), len(word)))[0]


# ---------------------------------------------------------------------------
# the log layer of the determinant


def log_value(exp, s):
    """log D(s) = -(sum of log atoms); valid right of the series abscissa."""
    return _atom_sums(exp.log_tau, s, (-exp.log_coeff, 0))[0]


def log_derivative_series(exp, s):
    """(log D)'(s) from the log atoms; term-for-term it is the
    half-weight series truncated at (N, k_max)."""
    return _atom_sums(exp.log_tau, s, (exp.log_coeff * exp.log_tau, 0))[0]


def eta_tail_bound(db, exp, s_re: float) -> float:
    """Bound on the k > k_max remainder when comparing (log D)' with the
    half-weight series on the same (p, r) atoms."""
    total = 0.0
    # rows are sorted by length, so the cycles of length <= N are a prefix
    keep = int(np.searchsorted(db.n, exp.N, side="right"))
    for n, T, lam_abs in zip(
        db.n[:keep].tolist(), db.T[:keep].tolist(), np.abs(db.lam[:keep]).tolist()
    ):
        r = 1
        while r * n <= exp.N:
            lam_r = lam_abs ** (-float(r))
            tail = lam_r ** (exp.k_max + 1) / (1.0 - lam_r)
            total += T * np.exp(-s_re * r * T) * lam_abs ** (-r / 2.0) * tail
            r += 1
    return float(total)


# ---------------------------------------------------------------------------
# the test window


def fourier(bump, lam):
    """rho-hat(lam) = c * phi-hat(lam)^2 on the real axis; real and >= 0
    by construction (it is computed as a square)."""
    scalar = np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    ph = bump.phi_hat(lam)
    out = bump.scale * (ph.real**2 + ph.imag**2)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# CSV, one row at a time


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
