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
  product over the factors grouped by (length, period).  This finite
  exponential sum is what actually vanishes at the series' poles, so
  pole location runs on it.

Both layers take each cycle's period from its symmetry class.  A cycle
and its images under a label symmetry of the disks or under time
reversal have the same period exactly, but they are solved one by one
and their periods come out a few ulp apart; equal sums of periods merge
into one atom only when they are bitwise equal.  So each cycle takes the
period of its class representative, when the two are within
``PERIOD_ULPS`` ulp, and the expansion has one factor group per class.
On the fixture at N = 13 that is 395 atoms for 165 classes among 1,377
cycles, whatever its rigid motion; with each cycle's own period the
count depends on which periods happen to round alike (941 unmoved,
1,098 under the benchmark's seed-1 motion).  The ulp test, not the
symmetry detection, certifies every shared period; a cycle that fails
it keeps its own.  The series, counting and trace atoms keep every
cycle's own period.

Atoms are always generated and summed in canonical (word, repetition)
order, and each point's sum is reduced on its own, so a value does not
depend on which points share an evaluation and every downstream output
is byte-reproducible.

Every sum over atoms goes through one kernel, built on the factorisation
exp(-s tau) = exp(-x tau) exp(-i y tau) for s = x + iy.  Contour samples
lie on grid lines, so each shares its real or its imaginary part with
many others; the kernel computes the first factor once per distinct real
part of a call and the second once per distinct imaginary part of a
call, and forms the terms from them bitwise as the complex exp would.
One pass returns several sums over the same terms: D with its last
shell (the truncation noise), D with D', or all three.

The contour search evaluates D in batches.  A grid's cell sides are cut
into segments, every distinct sample on the grid lines is evaluated once
(a side shared by two cells is walked once), and the truncation-noise
guard is applied to the whole array.  Segments whose phase step exceeds
the limit are halved level by level, one batch per level, and the steps
are summed per cell into winding numbers.  The same pass sums each
cell's first argument-principle moment by parts, int s d(log D), from
the values and phase steps it already holds.  The Simpson moments of a
cell refine further and take D' at every node from the same guarded
pass as D.

Every zero is placed by the argument principle (Delves and Lyness).  A
cell of winding 1 is Newton-polished from the winding pass's first
moment; a cell of winding w >= 2 reports its Simpson first moment
divided by w, the centroid of its zeros.  That point must lie in the
closed cell, and for w >= 2 the second moment must show one cluster
rather than separate zeros; otherwise the winding or the moment is
wrong, and the search raises ``TrustRegionError`` (exit 3) rather than
report it.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import symbolic
from .errors import DomainError, IncompleteDataError, ShortSeriesError, TrustRegionError
from .stability import det_one_minus_poincare

# ---------------------------------------------------------------------------
# atoms over (primitive cycle, repetition)


def orbit_atoms(db, T_max=None, m_max=None):
    """Arrays over (primitive, repetition) atoms in canonical order.

    Exactly one of ``T_max`` (geometric-length cutoff) or ``m_max``
    (symbol-count cutoff) must be given.  With ``T_max`` the database
    must be deep enough that no orbit beyond its length cutoff could
    fall below ``T_max``: omitted orbits have period > (n_max+1) * d0.
    """
    if (T_max is None) == (m_max is None):
        raise ValueError("give exactly one of T_max, m_max")
    if T_max is not None:
        horizon = (db.n_max + 1) * db.config.d0
        if T_max > horizon:
            raise IncompleteDataError(
                f"cutoff T_max={T_max} exceeds the database horizon {horizon:.6g} "
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
    keep = np.ones(len(m), dtype=bool)
    if parity == "even":
        keep = m % 2 == 0
    shells = []
    for m_val in range(2, db.n_max + 1):
        sel = keep & (m == m_val)
        if not np.any(sel):
            continue
        total = float(np.sum(w[sel]))
        mean_tau = float(np.sum(w[sel] * atoms["tau"][sel]) / total)
        shells.append((m_val, total, mean_tau))
    if len(shells) < window + 1:
        # every bounce count (every even one for parity="even") has cycles
        step = 2 if parity == "even" else 1
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


TRUST_THRESHOLD = 3e-5  # last-shell level that bounds the trusted region
PROBE_IM = np.linspace(0.0, 1.2, 7)  # imaginary parts of the trust-floor probe
WINDING_TOL = 0.05  # allowed distance of a cell winding from an integer
# points per block: at N = 13 a block's terms take about 0.3 MB, beside the
# call's real-part table of 7.5 kB per distinct Re s (blocks of 16 raise the
# peak RSS of repeated N = 13 pole searches by about 1 MB)
ATOM_BLOCK = 8
# a cycle takes its class representative's period only within this many
# ulp of its own; images of one cycle are solved apart and land up to 5
# ulp apart (the fixture at nmax 14 under 29 rigid motions; 2 ulp for
# time reversal on unequal_four_disks() at nmax 8)
PERIOD_ULPS = 8
SPREAD_TOL = 0.04  # allowed |sum (z - centroid)^2| of a cell's zeros / diagonal^2


def _bit_groups(parts):
    """The distinct bit patterns of the float array ``parts`` (as floats)
    and, per element, the index of its pattern (``np.unique`` does the
    same at about three times the cost on a few points)."""
    bits = parts.view(np.int64)
    order = bits.argsort(kind="stable")
    ordered = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(bits.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new].view(float), inverse


def _exp_table(parts, tau, imag):
    """exp(-p tau) (``imag`` false) or exp(-i p tau) (``imag`` true) for
    each part p, one row per part, through the complex exp."""
    arg = np.zeros((parts.size, tau.size), dtype=complex)
    np.multiply.outer(-parts, tau, out=arg.imag if imag else arg.real)
    return np.exp(arg, out=arg)


def _atom_sums(tau, s, *sums):
    """For each ``(coeff, start)`` of ``sums``, the sum over the atoms
    i >= start of coeff_i exp(-s tau_i): a tuple of complexes for scalar
    ``s``, else of arrays over the points.

    The exponential factors as exp(-x tau) exp(-i y tau), s = x + iy.
    The first factor is computed once per distinct real part of the call,
    ``ATOM_BLOCK`` parts at a time, into a real table.  The points are
    ordered by the bit patterns of (Im s, Re s) and taken ``ATOM_BLOCK``
    at a time, and the second factor is computed once per distinct
    imaginary part of the call: a block's imaginary parts are a run that
    starts no earlier than the previous block's, so one table of the
    current run's rows, which only moves forward, serves every block.
    Grouping parts by their bits keeps -0.0 and +0.0 apart.  Both factors
    go through the complex exp, which forms exp(x + iy) as exp(x) cos y +
    i exp(x) sin y from the same exp and sincos: wherever exp(-x tau) does
    not overflow, each term and its product with the real coefficient is
    bitwise that of the unfactored exp.  Sums over one coefficient array
    share its terms.  Each point's row of terms is reduced on its own, in
    a fixed order over the atoms, so a value does not depend on which
    points share the call.
    """
    points = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    lo = min(start for _, start in sums)
    tau = tau[lo:]
    coeffs = {id(coeff): coeff[lo:] for coeff, _ in sums}
    values = np.empty((len(sums), points.size), dtype=complex)
    x, ix = _bit_groups(points.real)
    y, iy = _bit_groups(points.imag)
    # sorted by the bits of Im s, a block's imaginary parts are a run of y
    # that starts no earlier than the last block's
    order = np.lexsort((ix, iy))
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.empty((x.size, tau.size))
        for first in range(0, x.size, ATOM_BLOCK):
            rows = slice(first, first + ATOM_BLOCK)
            grow[rows] = _exp_table(x[rows], tau, False).real
        turn, turn_lo = np.empty((0, tau.size), dtype=complex), 0  # rows y[turn_lo:]
        for first in range(0, points.size, ATOM_BLOCK):
            idx = order[first : first + ATOM_BLOCK]
            run = iy[idx]
            turn_hi = turn_lo + len(turn)
            if run[-1] >= turn_hi:
                new = _exp_table(y[max(run[0], turn_hi) : run[-1] + 1], tau, True)
                keep = turn[run[0] - turn_lo :]
                turn = np.concatenate((keep, new)) if len(keep) else new
                turn_lo = run[0]
            run -= turn_lo
            cos, sin = turn.real[run], turn.imag[run]
            block_grow = grow[ix[idx]]
            cos *= block_grow
            sin *= block_grow
            terms = {}
            for key, coeff in coeffs.items():
                terms[key] = np.empty(cos.shape, dtype=complex)
                np.multiply(cos, coeff, out=terms[key].real)
                np.multiply(sin, coeff, out=terms[key].imag)
            for k, (coeff, start) in enumerate(sums):
                values[k, idx] = terms[id(coeff)][:, start - lo :].sum(axis=1)
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

    def log_derivative_series(self, s):
        """(log D)'(s) from the log atoms; term-for-term it is the
        half-weight series truncated at (N, k_max)."""
        return _atom_sums(self.log_tau, s, (self.log_coeff * self.log_tau, 0))[0]

    def value(self, s):
        """D(s) from the expanded atoms (finite exponential sum)."""
        return _atom_sums(self.poly_tau, s, (self.poly_coeff, 0))[0]

    def derivative(self, s):
        return _atom_sums(self.poly_tau, s, (-self.poly_coeff * self.poly_tau, 0))[0]

    def log_value(self, s):
        """log D(s) = -(sum of log atoms); valid right of the series abscissa."""
        return _atom_sums(self.log_tau, s, (-self.log_coeff, 0))[0]

    def last_shell_value(self, s):
        return _atom_sums(self.poly_tau, s, (self.poly_coeff, self._last_shell))[0]

    def value_and_last_shell(self, s, derivative=False):
        """(D(s), last-shell sum), with D'(s) third when ``derivative``,
        from one pass over the terms."""
        sums = [(self.poly_coeff, 0), (self.poly_coeff, self._last_shell)]
        if derivative:
            sums.append((-self.poly_coeff * self.poly_tau, 0))
        return _atom_sums(self.poly_tau, s, *sums)

    def value_and_derivative(self, s):
        """(D(s), D'(s)) from one pass over the exponentials."""
        return _atom_sums(
            self.poly_tau, s, (self.poly_coeff, 0), (-self.poly_coeff * self.poly_tau, 0)
        )

    @property
    def _last_shell(self):
        # atoms are sorted by shell, so shell N is a contiguous tail
        return int(np.searchsorted(self.poly_shell, self.N))


def _expansion_atoms(items, N):
    """Atoms of prod (1 - w x^n e^{-sT}) over ``items``, exact up to shell N.

    ``items`` is the (n, T, w) pool sorted by (n, T).  Items sharing
    (n, T) form one group (a cycle's transverse factors and any cycle of
    bitwise-equal period); the group's factor is expanded into the
    coefficients f_0..f_J of prod_j (1 - w_j y), J = N // n, and
    multiplied into one tau -> coefficient map per shell.  The
    coefficients are folded in place, one item at a time: f_j -= w f_{j-1}
    for j descending, the list growing by one zero per item until it
    reaches degree J (f_1 alone when J = 1).  A coefficient no item has
    reached yet stays out of the list: as a zero it would still add
    atoms.  Each tau is built by adding T one period at a time in item
    order, so equal sums of equal periods are bitwise equal and merge
    into one atom.
    """
    shells = [{} for _ in range(N + 1)]
    shells[0][0.0] = 1.0
    for (n, T), group in groupby(items, key=itemgetter(0, 1)):
        if 2 * n > N:
            f1 = 0.0
            for _, _, w in group:
                f1 -= w
            f = [1.0, f1]
        else:
            f = [1.0]
            for _, _, w in group:
                if len(f) <= N // n:
                    f.append(0.0)
                for j in range(len(f) - 1, 0, -1):
                    f[j] -= w * f[j - 1]
        # f_0 = 1 keeps every atom; descending shells read each map
        # before any new term lands in it
        for shell in range(N - n, -1, -1):
            for tau, c in shells[shell].items():
                t = tau
                for j in range(1, min(len(f), (N - shell) // n + 1)):
                    t = t + T
                    row = shells[shell + j * n]
                    row[t] = row.get(t, 0.0) + c * f[j]
    keys = [(m, t) for m, row in enumerate(shells) for t in sorted(row)]
    shell = np.array([m for m, _ in keys], dtype=np.int64)
    tau = np.array([t for _, t in keys])
    coeff = np.array([shells[m][t] for m, t in keys])
    return coeff, tau, shell


def _signed_power(lam, j, e):
    """sgn(lam)^j |lam|^e per row, with one C pow per row: numpy's SIMD
    power can differ from it in the last bit."""
    mag = np.array([a**b for a, b in zip(np.abs(lam).tolist(), e.tolist())], dtype=float)
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
    and the number of symmetry classes among those cycles.

    A cycle takes the period of its class representative
    (:func:`symbolic.class_representatives` under the configuration's
    label symmetries and time reversal) when the two are within
    ``PERIOD_ULPS`` ulp, else it keeps its own: the ulp test, not the
    symmetry detection, certifies every shared period.  Built once per
    database and N, and kept in ``db.derived``.
    """
    key = ("class_periods", N)
    if key not in db.derived:
        db.derived[key] = _class_periods(db, N)
    return db.derived[key]


def _class_periods(db, N):
    # rows are sorted by length: the cycles with n <= N are the first
    # ``count``, and length n holds rows ends[n - 2]..ends[n - 1]
    count = int(np.searchsorted(db.n, N, side="right"))
    ends = np.searchsorted(db.n, np.arange(2, N + 2)).tolist()
    symmetries = db.config.label_symmetries
    rep = np.empty(count, dtype=np.intp)
    for n, start, stop in zip(range(2, N + 1), ends, ends[1:]):
        words = db.word[db.bounds[start] : db.bounds[stop]].reshape(stop - start, n)
        rep[start:stop] = start + symbolic.class_representatives(words, db.config.r, symmetries)
    T = db.T[:count]
    shared = T[rep]
    same = np.abs(T - shared) <= PERIOD_ULPS * np.spacing(np.maximum(T, shared))
    periods = np.where(same, shared, T)
    periods.flags.writeable = False
    return periods, int(np.count_nonzero(np.bincount(rep)))


def build_determinant(db, N: int, k_max: int = 5) -> DeterminantExpansion:
    """Assemble the truncated determinant from the orbit database.

    ``N`` caps the total symbol length, ``k_max`` the number of
    transverse factors.  The expansion is the exact product truncated at
    shell N; no term is pruned.  It runs over class periods
    (:func:`class_periods`): every cycle within ``PERIOD_ULPS`` ulp of
    its class representative takes the representative's period, so the
    factors of one class form one group and their sums of periods merge
    into one atom.  The trust floor is the leftmost Re s at
    which the length-N shell of the expansion (the signed last-shell
    sum, whose internal cancellation tracks how shadowing actually
    limits the truncation error) stays below ``TRUST_THRESHOLD`` on the
    ``PROBE_IM`` strip near the real axis.  The threshold is calibrated
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
    order = np.lexsort((w, T[p], n[p]))
    items = zip(n[p][order].tolist(), T[p][order].tolist(), w[order].tolist())
    poly_coeff, poly_tau, poly_shell = _expansion_atoms(items, N)

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


def eta_tail_bound(db, exp: DeterminantExpansion, s_re: float) -> float:
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
# pole location


@dataclass(frozen=True)
class Pole:
    s: complex
    multiplicity: int
    residual: float
    trust_margin: float


NOISE_SAFETY = 3.0
MAX_HALVINGS = 44  # refinement depth cap of a contour segment


def _guarded_values(exp: DeterminantExpansion, z, derivative=False):
    """D at the points ``z``, and D' from the same pass when
    ``derivative``, as the rows of a ``(1 or 2, z.size)`` array.  Raises
    at the first point where D is indistinguishable from the truncation
    noise (last-shell magnitude): a contour through such a region can wind
    around noise artifacts instead of genuine zeros, so the search refuses
    to continue."""
    f, shell, *df = exp.value_and_last_shell(z, derivative)
    noise = np.abs(shell)
    bad = np.flatnonzero(np.abs(f) < NOISE_SAFETY * noise)
    if bad.size:
        k = bad[0]
        raise TrustRegionError(
            f"|D| = {abs(f[k]):.2e} at s = {complex(z[k]):.4f} is below {NOISE_SAFETY} x "
            f"the truncation noise {noise[k]:.2e}; shift the grid or reduce the depth"
        )
    return np.array([f, *df])


def _refine(exp: DeterminantExpansion, za, zb, fa, fb, max_step):
    """Halve the segments [za, zb] level by level until the phase of D
    changes by at most ``max_step`` along every piece, or the piece is
    ``MAX_HALVINGS`` levels deep.  ``fa`` and ``fb`` hold the end values
    as :func:`_guarded_values` returns them, D and possibly D'; each
    level's midpoints are one guarded evaluation of the same rows.
    Returns the finished pieces as arrays (segment index, za, zb, fa, fb,
    phase step)."""
    seg = np.arange(za.size)
    pieces = []
    for depth in range(MAX_HALVINGS + 1):
        step = np.angle(fb[0] / fa[0])
        done = (np.abs(step) <= max_step) | (depth == MAX_HALVINGS)
        pieces.append((seg[done], za[done], zb[done], fa[:, done], fb[:, done], step[done]))
        if done.all():
            break
        seg, za, zb, fa, fb = (a[..., ~done] for a in (seg, za, zb, fa, fb))
        mid = 0.5 * (za + zb)
        fm = _guarded_values(exp, mid, derivative=len(fa) > 1)
        seg = np.concatenate((seg, seg))
        za, zb = np.concatenate((za, mid)), np.concatenate((mid, zb))
        fa, fb = np.concatenate((fa, fm), axis=1), np.concatenate((fm, fb), axis=1)
    return [np.concatenate(column, axis=-1) for column in zip(*pieces)]


def _simpson_sum(exp, za, zb, fa, fb):
    """Simpson rule for int s D'/D ds and int s^2 D'/D ds on each piece.
    D and D' at the piece ends come with the guarded values, D and D' at
    the midpoints are one fused batch; both moments weight the same D'/D."""
    mid = 0.5 * (za + zb)
    f_mid, d_mid = exp.value_and_derivative(mid)
    ga = za * fa[1] / fa[0]
    gb = zb * fb[1] / fb[0]
    gm = mid * d_mid / f_mid
    first = (zb - za) * (ga + 4.0 * gm + gb) / 6.0
    second = (zb - za) * (za * ga + 4.0 * mid * gm + zb * gb) / 6.0
    return first, second


def _grid_contours(exp, xs, ys, samples, max_step, moments):
    """Counterclockwise contour sums around every cell of the grid with
    lines ``xs`` x ``ys``, as a list of ``(nx, ny)`` arrays: with
    ``moments`` the two :func:`_simpson_sum` moments, else the phase
    change of D and the first moment taken by parts, int s D'/D ds =
    int s d(log D), by the midpoint rule: each piece adds
    (za + zb)/2 (log|D(zb)/D(za)| + i step).  A piece's phase step is
    local, so that sum needs no branch of log and no new value of D.

    Each cell side is cut into ``samples`` segments.  A side shared by
    two cells is one run of segments, added to one cell and subtracted
    from the other, and D (with D' for the moments) is evaluated once,
    with the noise guard, at every distinct sample on the grid lines.
    Segments are then refined by :func:`_refine` and each finished piece
    contributes in the +x or +y direction of its grid line.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    t = np.linspace(0.0, 1.0, samples + 1)[:-1]
    fine_x = np.append((xs[:-1, None] + np.diff(xs)[:, None] * t).ravel(), xs[-1])
    fine_y = np.append((ys[:-1, None] + np.diff(ys)[:, None] * t).ravel(), ys[-1])
    col = np.arange(fine_x.size) % samples == 0  # fine x on a vertical grid line
    row = np.arange(fine_y.size) % samples == 0  # fine y on a horizontal grid line
    z = fine_x[:, None] + 1j * fine_y[None, :]
    on_line = col[:, None] | row[None, :]
    values = _guarded_values(exp, z[on_line], derivative=moments)
    k = len(values)
    f = np.zeros((k,) + z.shape, dtype=complex)
    f[:, on_line] = values
    # segments along x on the horizontal lines, then along y on the vertical ones
    za = np.concatenate((z[:-1, row].ravel(), z[col, :-1].ravel()))
    zb = np.concatenate((z[1:, row].ravel(), z[col, 1:].ravel()))
    fa = np.concatenate((f[:, :-1, row].reshape(k, -1), f[:, col, :-1].reshape(k, -1)), axis=1)
    fb = np.concatenate((f[:, 1:, row].reshape(k, -1), f[:, col, 1:].reshape(k, -1)), axis=1)
    seg, pa, pb, pfa, pfb, step = _refine(exp, za, zb, fa, fb, max_step)
    if moments:
        contribs = _simpson_sum(exp, pa, pb, pfa, pfb)
    else:
        log_step = np.log(np.abs(pfb[0] / pfa[0])) + 1j * step
        contribs = (step, 0.5 * (pa + pb) * log_step)
    n_h = nx * samples * (ny + 1)
    sums = []
    for contrib in contribs:
        total = np.zeros(za.size, dtype=contrib.dtype)
        np.add.at(total, seg, contrib)
        h = total[:n_h].reshape(nx, samples, ny + 1).sum(axis=1)
        v = total[n_h:].reshape(nx + 1, ny, samples).sum(axis=2)
        sums.append(h[:, :-1] + v[1:, :] - h[:, 1:] - v[:-1, :])
    return sums


def _winding_pass(exp, xs, ys, samples=12):
    """Winding numbers of D around the cells of a grid and their first
    argument-principle moments by parts, two ``(nx, ny)`` arrays; phase
    steps are refined down to pi/2.  Where the winding is 1 the moment is
    the zero's position to about 1e-2 of the cell diagonal or better,
    close enough to start Newton."""
    phase, first = _grid_contours(exp, xs, ys, samples, 0.5 * np.pi, moments=False)
    return phase / (2.0 * np.pi), first / (2.0j * np.pi)


def _cell_winding(exp, re0, re1, im0, im1, samples=12):
    return float(_winding_pass(exp, (re0, re1), (im0, im1), samples)[0][0, 0])


def _cell_moments(exp, re0, re1, im0, im1, samples=12):
    """Sums of the zeros inside the cell and of their squares, counted
    with multiplicity (first and second moments by the argument
    principle, Simpson pieces refined down to a phase step of 0.1)."""
    sums = _grid_contours(exp, (re0, re1), (im0, im1), samples, 0.1, moments=True)
    return tuple(complex(total[0, 0] / (2.0j * np.pi)) for total in sums)


def _polish_zero(exp: DeterminantExpansion, s0, steps=80, tol=1e-14):
    """Newton polish of a simple zero."""
    s = complex(s0)
    for _ in range(steps):
        f, df = exp.value_and_derivative(s)
        if df == 0:
            break
        step = f / df
        s = s - step
        if abs(step) < tol:
            break
    return s


def _cell_zero(exp: DeterminantExpansion, re0, re1, im0, im1, w: int, seed):
    """Position of the ``w`` zeros inside a cell (Delves and Lyness).  A
    simple zero is Newton-polished from ``seed``, the first moment the
    winding pass took by parts.  For w >= 2 the position is their
    centroid, the first argument-principle moment over w, from a Simpson
    contour (:func:`_cell_moments`).  A centroid of zeros in a rectangle
    lies in that rectangle, so a point outside the closed cell means the
    winding or the moment is wrong and raises ``TrustRegionError``.

    For w >= 2 the zeros are reported as one multiple zero, so they must
    form one cluster: the second moment less w times the squared
    centroid, sum (z - centroid)^2, must stay below ``SPREAD_TOL`` times
    the squared cell diagonal, else ``TrustRegionError``."""
    if w == 1:
        s = _polish_zero(exp, seed)
    else:
        first, second = _cell_moments(exp, re0, re1, im0, im1)
        s = first / w
    if not (re0 <= s.real <= re1 and im0 <= s.imag <= im1):
        raise TrustRegionError(
            f"the {w} zero(s) of cell [{re0:.4f},{re1:.4f}]x[{im0:.4f},{im1:.4f}] "
            f"place at {s:.4f}, outside the cell; the winding or the moment is "
            "wrong, use a finer grid"
        )
    if w > 1:
        spread = abs(second - w * s * s) / ((re1 - re0) ** 2 + (im1 - im0) ** 2)
        if not spread <= SPREAD_TOL:
            raise TrustRegionError(
                f"the {w} zeros of cell [{re0:.4f},{re1:.4f}]x[{im0:.4f},{im1:.4f}] "
                f"spread over {spread:.2e} of its squared diagonal (limit "
                f"{SPREAD_TOL}); they are not one multiple zero, use a finer grid"
            )
    return s


def _rect_noise(exp: DeterminantExpansion, re0, re1, im0, im1, samples=13):
    """Worst last-shell magnitude sampled across the rectangle."""
    xs = np.linspace(re0, re1, samples)
    ys = np.linspace(im0, im1, samples)
    pts = (xs[:, None] + 1j * ys[None, :]).ravel()
    return float(np.max(np.abs(exp.last_shell_value(pts))))


def _grid_zeros(exp: DeterminantExpansion, xs, ys):
    """The zeros of D in the cells of the grid with lines ``xs`` x
    ``ys``, as :class:`Pole` objects in cell order.  The winding number
    of D around each cell must come out integer to ``WINDING_TOL``, and
    each cell of winding w >= 1 reports one zero of multiplicity w at
    :func:`_cell_zero`'s point, which must lie in the closed cell and,
    for w >= 2, stand for one cluster of zeros; else
    ``TrustRegionError``."""
    windings, seeds = _winding_pass(exp, xs, ys)
    poles = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            w = windings[i, j]
            w_int = int(round(w))
            if abs(w - w_int) > WINDING_TOL:
                raise TrustRegionError(
                    f"non-integer winding {w:.3f} in cell "
                    f"[{xs[i]:.4f},{xs[i+1]:.4f}]x[{ys[j]:.4f},{ys[j+1]:.4f}]; "
                    "rectangle too deep for this truncation order"
                )
            if w_int < 1:
                continue
            s_star = _cell_zero(exp, xs[i], xs[i + 1], ys[j], ys[j + 1], w_int, seeds[i, j])
            poles.append(
                Pole(
                    s=s_star,
                    multiplicity=w_int,
                    residual=abs(exp.value(s_star)),
                    trust_margin=float(s_star.real - exp.trust_floor),
                )
            )
    return poles


def find_poles(exp: DeterminantExpansion, rect, grid=(8, 8)):
    """Zeros of the truncated determinant inside a rectangle.

    The rectangle must be finite and non-empty (else ``DomainError``)
    and lie in the trusted region: its left edge right of the trust
    floor, and the sampled last-shell contribution below
    ``TRUST_THRESHOLD`` across the whole rectangle (truncation
    noise grows upward as well as leftward, and phase slips in noisy
    territory can fake integer windings).  The rectangle is cut into
    grid cells, searched by :func:`_grid_zeros` with every contour sample
    keeping |D| above the local noise.  The zeros are sorted by
    (Im s, Re s).
    """
    re0, re1, im0, im1 = map(float, rect)
    if not (np.isfinite([re0, re1, im0, im1]).all() and re0 < re1 and im0 < im1):
        raise DomainError(f"rectangle {[re0, re1, im0, im1]} is not finite and non-empty")
    if np.isnan(exp.trust_floor) or re0 < exp.trust_floor - 1e-12:
        raise TrustRegionError(
            f"rectangle reaches Re s = {re0}, left of the trust floor "
            f"{exp.trust_floor:.4f} for N={exp.N}"
        )
    noise = _rect_noise(exp, re0, re1, im0, im1)
    if noise > TRUST_THRESHOLD:
        raise TrustRegionError(
            f"last-shell contribution reaches {noise:.2e} on the rectangle, "
            f"above the trusted level {TRUST_THRESHOLD:.2e}; "
            "rectangle too deep for this truncation order"
        )
    nx, ny = grid
    xs = np.linspace(re0, re1, nx + 1)
    ys = np.linspace(im0, im1, ny + 1)
    return sorted(_grid_zeros(exp, xs, ys), key=lambda p: (p.s.imag, p.s.real))


def track_zero(exp: DeterminantExpansion, s0, multiplicity: int, radius: float = 0.1):
    """Re-locate a known zero cluster on another truncation.

    Searches the one cell of a box of the given radius centered at
    ``s0`` by :func:`_grid_zeros`, the rule :func:`find_poles` uses, and
    refuses (``TrustRegionError``) a box that holds no zero.  Unlike
    :func:`find_poles` this skips the rectangle-level gate: it is meant
    for comparing one established zero across truncation orders, and the
    contour noise guard still protects every sample.  Returns (winding,
    position).
    """
    box = _grid_zeros(
        exp, (s0.real - radius, s0.real + radius), (s0.imag - radius, s0.imag + radius)
    )
    if not box:
        raise TrustRegionError(
            f"tracking box at {s0:.4f} holds no zero, expected about {multiplicity}"
        )
    return box[0].multiplicity, box[0].s


def real_zero(exp: DeterminantExpansion, lo: float, hi: float, tol=1e-13) -> float:
    """Real zero of D by bisection; D is real on the real axis."""
    flo = exp.value(lo).real
    fhi = exp.value(hi).real
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise TrustRegionError(f"no sign change of D on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = exp.value(mid).real
        if fm == 0.0 or hi - lo < tol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


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
