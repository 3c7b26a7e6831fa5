"""Scalar numeric loops, written once and compiled when the JIT is enabled.

Two loops live here: the depth-first enumeration of canonical cyclic
words and the curvature fixpoint sweep around one cycle.  Both are
nopython-compatible (plain loops over float64/int64 arrays, no Python
objects); under ``BILLZETA_NUMBA=0`` the same source runs as ordinary
Python (see :mod:`billzeta._accel`).  The orbit Newton solver is numpy
over whole batches of cycles and lives in :mod:`billzeta.orbits`.
"""

import numpy as np

from ._accel import njit


# ---------------------------------------------------------------------------
# cycle enumeration


@njit(cache=True, nogil=True)
def enum_canonical_words(r, n, s0, out, start):
    """Fill ``out`` (from row ``start``) with the canonical primitive cyclic
    words of length ``n`` whose smallest symbol is ``s0``.

    Symbols are 0-based.  A canonical word is the lexicographically
    smallest among its rotations; its first symbol is then its smallest
    symbol, so the search can restrict the alphabet to ``s0..r-1``.
    Words with an equal nontrivial rotation are exact repetitions of a
    shorter block and are skipped, which makes the canonical test double
    as the primitivity test.  Returns the new end row.
    """
    w = np.empty(n, np.int64)
    cand = np.empty(n + 1, np.int64)
    w[0] = s0
    depth = 1
    cand[1] = s0
    count = start
    while depth >= 1:
        if depth == n:
            ok = w[n - 1] != w[0]
            if ok:
                for k in range(1, n):
                    cmp = 0
                    for i in range(n):
                        a = w[(i + k) % n]
                        b = w[i]
                        if a != b:
                            cmp = 1 if a > b else -1
                            break
                    if cmp <= 0:
                        ok = False
                        break
            if ok:
                for i in range(n):
                    out[count, i] = w[i]
                count += 1
            depth -= 1
            continue
        s = cand[depth]
        placed = False
        while s < r:
            if s != w[depth - 1]:
                w[depth] = s
                cand[depth] = s + 1
                depth += 1
                if depth < n:
                    cand[depth] = s0
                placed = True
                break
            s += 1
        if not placed:
            depth -= 1
    return count


# ---------------------------------------------------------------------------
# wavefront curvature


@njit(cache=True, nogil=True)
def curvature_fixpoint(flights, kicks, kappa0, tol, max_cycles):
    """Periodic point of the curvature transport map around one cycle.

    ``kappa[i]`` is the outgoing (post-reflection) wavefront curvature at
    bounce ``i``; a flight of length ``f`` maps ``k`` to ``k/(1+f k)``
    and the reflection at bounce ``j`` adds ``kicks[j] = 2*k_B/cos(phi)``.
    Sweeps the cycle until the vector moves less than ``tol`` in sup
    norm.  Returns (kappa, sweeps, converged).
    """
    n = flights.shape[0]
    kappa = kappa0.copy()
    sweeps = 0
    while sweeps < max_cycles:
        sweeps += 1
        diff = 0.0
        for i in range(n):
            j = (i + 1) % n
            arr = kappa[i] / (1.0 + flights[i] * kappa[i])
            new = arr + kicks[j]
            d = np.abs(new - kappa[j])
            if d > diff:
                diff = d
            kappa[j] = new
        if diff < tol:
            return kappa, sweeps, True
    return kappa, sweeps, False
