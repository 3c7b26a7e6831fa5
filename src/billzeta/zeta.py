"""Zeta-type series over periodic orbits and the truncated determinant.

Series atoms are (length, weight) pairs indexed by a primitive cycle and
a repetition count; weights use |det(Id - P)|^{-1/2} (half weight),
|det(Id - P)|^{-1} (full weight), or |Lambda|^{-r} (unstable-determinant
variant).  The determinant D(s) is handled in two equivalent layers:

* log atoms: log D(s) = -sum over (p, r, k) of
  (1/r) sgn(Lambda_p)^{kr} |Lambda_p|^{-r(k+1/2)} exp(-s r T_p),
  so (log D)'(s) reproduces the half-weight series truncated at
  (N, k_max) term by term; they are built on first use, since pole
  location reads only the expansion atoms;
* expansion atoms: the product over (p, k) of (1 - t_{p,k}), expanded
  exactly up to total symbol length N (no term is pruned) by one
  product over the factors grouped by (length, period).  The factor
  pool is built, sorted and, for lengths above N / 2, summed as arrays,
  with the bits of a factor-by-factor loop; Python runs once per
  group.  This finite exponential sum is what actually vanishes at
  the series' poles, so pole location runs on it.

Both layers take each cycle's period from its period class.  A cycle
and its images under a label symmetry of the disks or under time
reversal have the same period exactly, but they are solved one by one
and their periods come out a few ulp apart; equal sums of periods merge
into one atom only when they are bitwise equal.  Two cycles of one
length whose periods agree to ``PERIOD_ULPS`` ulp have one period at
the solver's precision, whatever made them agree, so the classes are
read off the periods alone: sorted by (length, period), the cycles
split into classes wherever two neighbours are more than
``PERIOD_ULPS`` ulp apart, and each cycle takes the period of its
class's least row when the two are within ``PERIOD_ULPS`` ulp, else
keeps its own.  The expansion has one factor group per class.  On the
fixture at N = 13 that is 395 atoms for 165 classes among 1,377
cycles, whatever its rigid motion; with each cycle's own period the
count depends on which periods happen to round alike (941 unmoved,
1,098 under the benchmark's seed-1 motion).  The series, counting and
trace atoms keep every cycle's own period.

Every sum over atoms goes through one kernel, built on the factorisation
exp(-s tau) = exp(-x tau) exp(-i y tau) for s = x + iy.  Contour samples
lie on grid lines, so each shares its real or its imaginary part with
many others; the kernel computes the first factor once per distinct real
part of a call and the second once per distinct imaginary part, and
reduces the terms by real matrix products (BLAS): the points that share
an Im s are one product of their exp(-x tau) rows with the coefficients
times cos and sin of y tau.  One pass returns several sums over the same
terms: :meth:`DeterminantExpansion.rows` takes D, D' and the last shell
(the truncation noise) together for the search of :mod:`billzeta.contour`.

A value agrees with the one-term-at-a-time complex exp sum to a few eps
times sum |c_i exp(-s tau_i)|, and its last bits may depend on which
points share the call.  Atoms are always generated in canonical (word,
repetition) order and a call groups its points by their bits alone, so
the same evaluation gives the same bytes in every run, whatever the
number of BLAS threads, and every downstream output is
byte-reproducible.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# re-exported: find_poles for the CLI and the benchmark, the winding and zero helpers for the gate
from .contour import TRUST_THRESHOLD, _cell_winding, find_poles, real_zero, track_zero
from .errors import IncompleteDataError, ShortSeriesError, TrustRegionError
from .stability import det_one_minus_poincare

# ---------------------------------------------------------------------------
# atoms over (primitive cycle, repetition)


def orbit_atoms(db, T_max=None, m_max=None):
    """Arrays over (primitive, repetition) atoms in canonical order.

    Exactly one of ``T_max`` (geometric-length cutoff) or ``m_max``
    (symbol-count cutoff) must be given.  ``T_max`` may not pass
    ``db.horizon``, below which no cycle the database lacks can fall.
    """
    if (T_max is None) == (m_max is None):
        raise ValueError("give exactly one of T_max, m_max")
    if T_max is not None and T_max > db.horizon:
        raise IncompleteDataError(
            f"cutoff T_max={T_max} exceeds the database horizon {db.horizon:.6g} "
            f"(n_max={db.n_max}, d0={db.config.d0:.6g})"
        )
    key = ("orbit_atoms", T_max, m_max)
    if key not in db.derived:
        db.derived[key] = _atoms(db, T_max, m_max)
    return dict(db.derived[key])


def _atoms(db, T_max, m_max):
    """The atoms of :func:`orbit_atoms` as read-only arrays.

    Record p contributes repetitions r = 1, 2, ... while r * n_p <= m_max,
    or while r * T_p <= T_max for a length cutoff; r * T_p grows with r,
    so that float test keeps a prefix of the candidates
    1..floor(T_max / T_p) + 2.
    """
    if m_max is not None:
        reps = m_max // db.n
    else:
        reps = np.floor(T_max / db.T).astype(np.int64) + 2
    reps = np.maximum(reps, 0)
    p_idx = np.repeat(np.arange(len(db.n)), reps)
    starts = np.cumsum(reps) - reps
    rep = np.arange(len(p_idx)) - np.repeat(starts, reps) + 1
    tsharp = db.T[p_idx]
    tau = rep * tsharp
    if T_max is not None:
        keep = tau <= T_max
        p_idx, rep, tsharp, tau = p_idx[keep], rep[keep], tsharp[keep], tau[keep]
    if not len(p_idx):
        raise IncompleteDataError("no atoms below the requested cutoff")
    lam = db.lam[p_idx]
    # |det(Id - P^r)| as det_one_minus_poincare computes it: at r = 1 C pow
    # returns Lambda itself, so numpy forms the same doubles; the repetitions
    # keep one C pow each, as numpy's SIMD power can differ in the last bit
    det = np.abs(2.0 - lam - 1.0 / lam)
    multi = np.flatnonzero(rep > 1)
    det[multi] = [
        det_one_minus_poincare(x, r) for x, r in zip(lam[multi].tolist(), rep[multi].tolist())
    ]
    lam_abs = np.abs(lam)
    m = rep * db.n[p_idx]
    atoms = {
        "r": rep,
        "tau": tau,
        "tsharp": tsharp,
        "m": m,
        "det": det,
        "w_half": tsharp / np.sqrt(det),
        "w_full": tsharp / det,
        "w_unstable": tsharp * lam_abs ** (-rep.astype(float)),
        "parity": np.where(m % 2 == 0, 1.0, -1.0),
    }
    for values in atoms.values():
        values.flags.writeable = False
    return atoms


def eta_direct(db, s, q: int = 1, dirichlet: bool = False, T_max=None, m_max=None):
    """Partial sum of the half-weight series at complex ``s``.

    ``q`` keeps only atoms whose bounce count is a multiple of q and
    multiplies by q; ``dirichlet`` instead applies the alternating sign
    (-1)^m (and ignores ``q``).
    """
    atoms = orbit_atoms(db, T_max=T_max, m_max=m_max)
    w = atoms["w_half"].astype(complex)
    if dirichlet:
        w = w * atoms["parity"]
    else:
        if q < 1:
            raise ValueError("q must be >= 1")
        w = np.where(atoms["m"] % q == 0, q * w, 0.0)
    return complex(np.sum(w * np.exp(-s * atoms["tau"])))


def eta_via_roots_of_unity(db, s, q: int, T_max=None, m_max=None):
    """Same q-filtered sum assembled through sum_j exp(2 pi i j m / q)."""
    atoms = orbit_atoms(db, T_max=T_max, m_max=m_max)
    total = 0.0 + 0.0j
    base = np.exp(-s * atoms["tau"]) * atoms["w_half"]
    for j in range(q):
        phase = np.exp(2.0j * np.pi * j * atoms["m"] / q)
        total += np.sum(base * phase)
    return complex(total)


def reflection_shift_matrix(q: int) -> np.ndarray:
    """Cyclic-shift permutation on q coordinates: one step per bounce."""
    A = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        A[i, (i + 1) % q] = 1
    return A


# ---------------------------------------------------------------------------
# abscissa from shell growth


def abscissa_estimate(db, weight: str = "half", parity=None, window: int = 4):
    """Growth-rate estimate for a weighted orbit series.

    Groups atoms into bounce-count shells, regresses log(shell sum)
    against the weighted mean length per shell over sliding windows, and
    reports the last-window slope with the spread over windows as the
    error bar.  ``weight`` is one of "half", "full", "unstable", "none"
    (the counting series tau_sharp e^{-s tau}); ``parity="even"``
    restricts to even bounce counts.

    Returns (estimate, error_bar, shells) where shells is the list of
    (m, shell sum, mean length).
    """
    atoms = orbit_atoms(db, m_max=db.n_max)
    w = {
        "half": atoms["w_half"],
        "full": atoms["w_full"],
        "unstable": atoms["w_unstable"],
        "none": atoms["tsharp"],
    }[weight]
    m = atoms["m"]
    # every bounce count (every even one for parity="even") has cycles
    step = 2 if parity == "even" else 1
    shells = []
    for m_val in range(2, db.n_max + 1, step):
        sel = m == m_val
        total = float(np.sum(w[sel]))
        mean_tau = float(np.sum(w[sel] * atoms["tau"][sel]) / total)
        shells.append((m_val, total, mean_tau))
    if len(shells) < window + 1:
        last = shells[-1][0] if shells else 2 - step
        label = weight if parity is None else f"{weight}/{parity}"
        raise ShortSeriesError(
            [(label, len(shells))], window, db.n_max, last + step * (window + 1 - len(shells))
        )
    xs = np.array([t for _, _, t in shells])
    ys = np.log(np.array([a for _, a, _ in shells]))
    slopes = []
    for i in range(len(shells) - window):
        sl = np.polyfit(xs[i : i + window + 1], ys[i : i + window + 1], 1)[0]
        slopes.append(sl)
    estimate = float(slopes[-1])
    err = float(max(abs(s - estimate) for s in slopes[-3:])) if len(slopes) >= 2 else 0.0
    return estimate, err, shells


# ---------------------------------------------------------------------------
# truncated determinant


K_MAX = 5  # default repetition cutoff: transverse factors k = 0..K_MAX per cycle
PROBE_IM = np.linspace(0.0, 1.2, 7)  # imaginary parts of the trust-floor probe
# distinct Im s per cos and sin table: at N = 13 a block's table takes
# 51 kB, beside the call's real-part table of 3.2 kB per distinct Re s
ATOM_BLOCK = 8
# periods further apart than this many ulp start a new period class, and
# a cycle takes its class's least row's period only within this many ulp
# of its own; images of one cycle are solved apart and land up to 5 ulp
# apart (the fixture at nmax 14 under 29 rigid motions; 2 ulp for time
# reversal on unequal_four_disks() at nmax 8)
PERIOD_ULPS = 8


def _bit_runs(parts):
    """The order that sorts the float array ``parts`` by bit pattern,
    and the mask of the sorted elements that start a run of equal bits.
    Grouping by bits keeps -0.0 and +0.0 apart (``np.unique`` groups the
    same at about three times the cost on a few points)."""
    bits = parts.view(np.int64)
    order = bits.argsort(kind="stable")
    ordered = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return order, new


def _factor_table(parts, tau, trig):
    """exp(-p tau) for each part p, one row per part; with ``trig`` the
    phase factor exp(-i p tau) instead, as the real tables cos(-p tau)
    and sin(-p tau) stacked, shape ``(2, parts, atoms)``."""
    arg = np.multiply.outer(-parts, tau)
    if not trig:
        return np.exp(arg, out=arg)
    table = np.empty((2,) + arg.shape)
    np.cos(arg, out=table[0])
    np.sin(arg, out=table[1])
    return table


def _reduce(terms, matrix, spans, width, out):
    """out = terms @ matrix.T, with the ``width`` columns of each sum
    taken over its own atoms only: a span ``(a, b, n)`` adds atoms
    a..b-1 to the first n sums, and the last span holds every sum."""
    *head, (a, _, _) = spans
    np.matmul(terms[:, a:], matrix[:, a:].T, out=out)
    for a, b, n in head:
        out[:, : n * width] += terms[:, a:b] @ matrix[: n * width, a:b].T


def _atom_sums(tau, s, *sums):
    """For each ``(coeff, start)`` of ``sums``, the sum over the atoms
    i >= start of coeff_i exp(-s tau_i): a tuple of complexes for scalar
    ``s``, else of arrays over the points.

    The exponential factors as exp(-x tau) exp(-i y tau), s = x + iy,
    and every sum is a real matrix product.  The sums are the rows of
    one coefficient matrix C, ordered by ``start``; a sum's row is cut at
    its start rather than padded with zeros, so a term that overflows
    before it cannot turn its value into NaN.  The first factor is one
    real ``np.exp`` table with a row per distinct real part of the call.
    The points are grouped by the bits of Im s (which keeps -0.0 and +0.0
    apart), and the distinct Im s are taken ``ATOM_BLOCK`` at a time,
    with one cos and sin row each.  For an Im s that two or more points
    share, the values of all of them are one product of their
    exp(-x tau) rows with the matrix of the rows C cos(y tau) and
    -C sin(y tau).  The points whose Im s is their own form their terms,
    and those of a block take one product with C.

    The dot products round differently from the one-term-at-a-time sum:
    a value agrees with the unfactored complex exp to a few eps times
    sum |coeff_i exp(-s tau_i)|, and may depend in its last bits on which
    points share the call.  It does not depend on the run: the same batch
    gives the same bytes.
    """
    points = np.asarray(s, dtype=complex).reshape(-1)
    # the sums by start: those that take atom i >= a are a prefix
    order = sorted(range(len(sums)), key=lambda k: sums[k][1])
    starts = [sums[k][1] for k in order]
    lo = starts[0]
    tau = tau[lo:]
    # a row is read only from its sum's start on
    coeff = np.array([sums[k][0][lo:] for k in order])
    cuts = sorted({start - lo for start in starts})
    spans = [
        (a, b, bisect_right(starts, a + lo)) for a, b in zip(cuts, cuts[1:] + [tau.size])
    ]
    # the points sorted by the bits of Im s: y[j] is the Im s of rows
    # bounds[j]..bounds[j + 1] - 1
    by_y, new = _bit_runs(points.imag)
    y = points.imag[by_y][new]
    bounds = new.nonzero()[0].tolist() + [points.size]
    # x[ix[i]] is the Re s of sorted point i
    real = points.real[by_y]
    by_x, new = _bit_runs(real)
    x = real[by_x][new]
    ix = np.empty(points.size, dtype=np.intp)
    ix[by_x] = new.cumsum() - 1
    # each sum at each sorted point
    out = np.empty((points.size, len(sums)), dtype=complex)
    phase = np.empty((len(sums), 2, tau.size))
    with np.errstate(over="ignore", invalid="ignore"):
        grow = _factor_table(x, tau, False)
        for first in range(0, y.size, ATOM_BLOCK):
            cos_sin = _factor_table(y[first : first + ATOM_BLOCK], tau, True)
            lone = []
            for j in range(first, min(first + ATOM_BLOCK, y.size)):
                a, b = bounds[j], bounds[j + 1]
                if b - a == 1:
                    lone.append(j)
                    continue
                np.multiply(coeff[:, None], cos_sin[:, j - first], out=phase)
                matrix = phase.reshape(-1, tau.size)
                _reduce(grow[ix[a:b]], matrix, spans, 2, out[a:b].view(float))
            if lone:
                at = [bounds[j] for j in lone]
                terms = cos_sin[:, [j - first for j in lone]] * grow[ix[at]]
                parts = np.empty((2, len(at), len(sums)))
                rows = 2 * len(at)
                _reduce(terms.reshape(rows, -1), coeff, spans, 1, parts.reshape(rows, -1))
                out[at] = parts[0] + 1j * parts[1]
    values = np.empty_like(out)
    values[by_y] = out
    # the sums back in the caller's order
    values = values.T[sorted(range(len(sums)), key=order.__getitem__)]
    if np.isscalar(s):
        return tuple(complex(v[0]) for v in values)
    return tuple(values)


@dataclass
class DeterminantExpansion:
    """Truncated determinant: expanded product atoms, and log atoms built
    on first use from ``cycles``, the (n, T, lam) columns of the cycles
    with n <= N, T their class periods (:func:`class_periods`)."""

    N: int
    k_max: int
    poly_coeff: np.ndarray
    poly_tau: np.ndarray
    poly_shell: np.ndarray
    cycles: tuple = field(repr=False)
    trust_floor: float = np.nan

    @cached_property
    def _log_atoms(self):
        return _build_log_atoms(*self.cycles, self.N, self.k_max)

    @property
    def log_shell(self):
        return self._log_atoms[0]

    @property
    def log_tau(self):
        return self._log_atoms[1]

    @property
    def log_coeff(self):
        return self._log_atoms[2]

    def value(self, s):
        """D(s) from the expanded atoms (finite exponential sum)."""
        return _atom_sums(self.poly_tau, s, (self.poly_coeff, 0))[0]

    def derivative(self, s):
        return _atom_sums(self.poly_tau, s, (-self.poly_coeff * self.poly_tau, 0))[0]

    def last_shell_value(self, s):
        return _atom_sums(self.poly_tau, s, (self.poly_coeff, self._last_shell))[0]

    def rows(self, s, k=0, noise=False):
        """D(s), its first ``k`` derivatives and, with ``noise``, the
        last-shell magnitude from one pass: the contour search's evaluator."""
        sums, coeff = [(self.poly_coeff, 0)], self.poly_coeff
        for _ in range(k):
            coeff = -coeff * self.poly_tau
            sums.append((coeff, 0))
        if noise:
            sums.append((self.poly_coeff, self._last_shell))
        values = _atom_sums(self.poly_tau, s, *sums)
        return (*values[:-1], abs(values[-1])) if noise else values

    @property
    def _last_shell(self):
        # atoms are sorted by shell, so shell N is a contiguous tail
        return int(np.searchsorted(self.poly_shell, self.N))


def _run_starts(n, T):
    """The mask of the rows that start a run of equal (n, T)."""
    new = np.ones(n.size, dtype=bool)
    new[1:] = (n[1:] != n[:-1]) | (T[1:] != T[:-1])
    return new


def _expansion_atoms(n, T, w, N):
    """Atoms of prod (1 - w x^n e^{-sT}) over the factor pool, exact up to
    shell N.

    ``n``, ``T`` and ``w`` are the pool's columns sorted by (n, T, w).
    Factors sharing (n, T) form one group (a cycle's transverse factors
    and any cycle of bitwise-equal period); the group's factor is
    expanded into the coefficients f_0..f_J of prod_j (1 - w_j y),
    J = N // n, and multiplied into one tau -> coefficient map per shell.
    A group with 2n > N has f_1 alone, -w_1 - w_2 - ... in pool order:
    one ``np.cumsum`` along a zero-padded row per group, which adds in
    sequence as a loop would (``np.sum`` adds pairwise and rounds
    otherwise).  The other groups fold f_j -= w f_{j-1} for j descending,
    one factor at a time, the list growing by one zero per factor up to
    degree J: a coefficient no factor has reached yet stays out, as a
    zero would still add atoms.  Each tau is built by adding T one period
    at a time, so equal sums of equal periods are bitwise equal and merge
    into one atom.
    """
    # a group is a run of equal (n, T); those with 2n > N are the tail
    starts = np.flatnonzero(_run_starts(n, T))
    bounds = starts.tolist() + [n.size]
    tail = int(np.searchsorted(starts, np.searchsorted(n, N // 2, side="right")))
    factors = []
    weights = w[: bounds[tail]].tolist()
    for n_g, a, b in zip(n[starts[:tail]].tolist(), bounds, bounds[1 : tail + 1]):
        f = [1.0]
        for x in weights[a:b]:
            if len(f) <= N // n_g:
                f.append(0.0)
            for j in range(len(f) - 1, 0, -1):
                f[j] -= x * f[j - 1]
        factors.append(f)
    # f_1 of the tail groups: row g is 0.0, then -w of group g, then zeros
    size = np.diff(bounds[tail:])
    pad = np.zeros((size.size, 1 + size.max(initial=0)))
    pad[:, 1:][np.arange(pad.shape[1] - 1) < size[:, None]] = -w[bounds[tail] :]
    factors += [[1.0, f1] for f1 in pad.cumsum(axis=1)[:, -1].tolist()]
    shells = [{} for _ in range(N + 1)]
    shells[0][0.0] = 1.0
    for n_g, T_g, f in zip(n[starts].tolist(), T[starts].tolist(), factors):
        # f_0 = 1 keeps every atom; descending shells read each map
        # before any new term lands in it
        for shell in range(N - n_g, -1, -1):
            for tau, c in shells[shell].items():
                t = tau
                for j in range(1, min(len(f), (N - shell) // n_g + 1)):
                    t = t + T_g
                    row = shells[shell + j * n_g]
                    row[t] = row.get(t, 0.0) + c * f[j]
    keys = [(m, t) for m, row in enumerate(shells) for t in sorted(row)]
    shell = np.array([m for m, _ in keys], dtype=np.int64)
    tau = np.array([t for _, t in keys])
    coeff = np.array([shells[m][t] for m, t in keys])
    return coeff, tau, shell


def _signed_power(lam, j, e):
    """sgn(lam)^j |lam|^e per row.  |lam|^e is one C ``pow`` per row,
    through ``math.pow``, which equals float ``**`` bit for bit; numpy's
    SIMD power differs from it in the last bit on about 5% of the rows
    (5,247 of the fixture's 99,060 factors at N = 17, on AVX-512)."""
    mag = np.fromiter(map(math.pow, np.abs(lam).tolist(), e.tolist()), float, lam.size)
    return np.where((lam < 0) & (j % 2 == 1), -mag, mag)


def _factors(count, k_max):
    """(p, k) of every factor, one per cycle p < count and k <= k_max,
    in record order."""
    return np.repeat(np.arange(count), k_max + 1), np.tile(np.arange(k_max + 1), count)


def _build_log_atoms(n, T, lam, N, k_max):
    """(shell, tau, coefficient) of the log atoms (p, k, r), r n_p <= N,
    sorted by shell, then tau, then coefficient."""
    p, k = _factors(n.size, k_max)
    reps = N // n[p]
    lp, lk = np.repeat(p, reps), np.repeat(k, reps)
    r = np.arange(lp.size) - np.repeat(np.cumsum(reps) - reps, reps) + 1
    log_shell, log_tau = r * n[lp], r * T[lp]
    log_coeff = _signed_power(lam[lp], lk * r, -r * (lk + 0.5)) / r
    order = np.lexsort((log_coeff, log_tau, log_shell))
    return log_shell[order], log_tau[order], log_coeff[order]


def class_periods(db, N: int):
    """The periods of the cycles with n <= N as the expansion takes them,
    and the number of period classes among those cycles.

    The cycles are sorted by (length, period), and a class ends wherever
    the length changes or two consecutive periods are more than
    ``PERIOD_ULPS`` ulp apart.  A cycle takes the period of its class's
    least row when the two are within ``PERIOD_ULPS`` ulp, else it keeps
    its own: that test certifies every shared period.  Built once per
    database and N, and kept in ``db.derived``.
    """
    key = ("class_periods", N)
    if key not in db.derived:
        db.derived[key] = _class_periods(db, N)
    return db.derived[key]


def _class_periods(db, N):
    # rows are sorted by length: the cycles with n <= N are the first
    # ``count``, and sorting them by (n, T) moves rows only within a length
    count = int(np.searchsorted(db.n, N, side="right"))
    n, T = db.n[:count], db.T[:count]
    order = np.lexsort((T, n))
    sorted_T = T[order]
    new = np.ones(count, dtype=bool)
    new[1:] = (n[1:] != n[:-1]) | (
        sorted_T[1:] - sorted_T[:-1] > PERIOD_ULPS * np.spacing(sorted_T[1:])
    )
    starts = np.flatnonzero(new)
    # the least row of each class, for every row of the class
    rep = np.empty(count, dtype=np.int64)
    rep[order] = np.repeat(np.minimum.reduceat(order, starts), np.diff(starts, append=count))
    close = np.abs(T - T[rep]) <= PERIOD_ULPS * np.spacing(np.maximum(T, T[rep]))
    periods = np.where(close, T[rep], T)
    periods.flags.writeable = False
    return periods, starts.size


def build_determinant(db, N: int, k_max: int = K_MAX) -> DeterminantExpansion:
    """Assemble the truncated determinant from the orbit database.

    ``N`` caps the total symbol length, ``k_max`` the number of
    transverse factors.  The expansion is the exact product truncated at
    shell N; no term is pruned.  It runs over class periods
    (:func:`class_periods`): every cycle within ``PERIOD_ULPS`` ulp of
    its class's least row takes that row's period, so the factors of one
    class form one group and their sums of periods merge into one atom.
    The trust floor is the leftmost Re s at which the length-N shell of
    the expansion (the signed last-shell sum, whose internal
    cancellation tracks how shadowing actually limits the truncation
    error) stays below ``TRUST_THRESHOLD`` on the ``PROBE_IM`` strip
    near the real axis.  The threshold is calibrated
    so that zeros inside the trusted region shift by less than about
    1e-4 when N changes; left of the floor they drift by an order of
    magnitude more and the search refuses to report them.
    """
    if N > db.n_max:
        raise IncompleteDataError(f"N={N} exceeds database n_max={db.n_max}")
    T, _ = class_periods(db, N)
    n, lam = db.n[: T.size], db.lam[: T.size]
    p, k = _factors(n.size, k_max)
    w = _signed_power(lam[p], k, -(k + 0.5))
    # the pool in (n, T, w) order: each cycle's rank among the distinct
    # (n, T), then the factors sorted by w (equal w in one group are equal
    # factors) and, stably, by that rank (radix sort for 16 bits or less)
    by_period = np.lexsort((T, n))
    rank = np.empty(n.size, dtype=np.min_scalar_type(n.size))
    rank[by_period] = _run_starts(n[by_period], T[by_period]).cumsum()
    order = np.argsort(w)
    order = order[np.argsort(rank[p][order], kind="stable")]
    poly_coeff, poly_tau, poly_shell = _expansion_atoms(n[p][order], T[p][order], w[order], N)

    exp = DeterminantExpansion(
        N=N,
        k_max=k_max,
        poly_coeff=poly_coeff,
        poly_tau=poly_tau,
        poly_shell=poly_shell,
        cycles=(n, T, lam),
    )
    exp.trust_floor = _trust_floor(exp)
    return exp


def _trust_floor(exp: DeterminantExpansion):
    """Leftmost Re s in [-0.75, 0.5] where the last shell stays below
    ``TRUST_THRESHOLD``.

    The probe lines x + i ``PROBE_IM`` step left from 0.5 by 0.02 and
    are evaluated in one batch; the floor is the last x before the
    first line, counted from the right, whose maximum exceeds the
    threshold.
    """
    xs = [0.5]
    while xs[-1] - 0.02 >= -0.75 - 1e-12:
        xs.append(xs[-1] - 0.02)
    probe = (np.array(xs)[:, None] + 1j * PROBE_IM).ravel()
    worst = np.max(np.abs(exp.last_shell_value(probe)).reshape(len(xs), -1), axis=1)
    over = np.flatnonzero(worst > TRUST_THRESHOLD)
    stop = over[0] if over.size else len(xs)
    if stop == 0:
        raise TrustRegionError(
            f"last-shell contribution already exceeds {TRUST_THRESHOLD} at Re s = 0.5"
        )
    return float(xs[stop - 1])


# ---------------------------------------------------------------------------
# counting


def counting_check(db, h: float, x_values=None):
    """Primitive-orbit counting against e^{hx}/(hx).

    Returns rows (x, N(x), e^{hx}/(hx), ratio); ratio is 0 where no
    orbit is short enough.
    """
    lengths = np.sort(db.T)
    if x_values is None:
        x_values = np.linspace(lengths[0] * 0.95, lengths[-1], 25)
    rows = []
    for x in np.asarray(x_values, dtype=float):
        count = int(np.searchsorted(lengths, x, side="right"))
        model = float(np.exp(h * x) / (h * x)) if h * x > 0 else np.nan
        ratio = count / model if model and np.isfinite(model) else 0.0
        rows.append((float(x), count, model, float(ratio)))
    return rows
