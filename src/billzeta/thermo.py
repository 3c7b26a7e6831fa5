"""Thermodynamic pressure on the bounce subshift.

The flight-time and stability observables are approximated by functions
that are constant on cylinders of a fixed memory k: a word of k+1
symbols pins k bounces either side of a distinguished center bounce
(position k // 2), and the cylinder value is read off the periodic
orbit obtained by closing the word.  The induced transfer operator acts
on length-k words; its leading eigenvalue gives the pressure
P(-s f + beta g), and the abscissas of the orbit series are the roots
in s of P = 0 at beta = 0, 1/2, 1.

The potentials are integer-array work.  Words are base-r integers of
0-based symbols, whose order is lexicographic; integer arithmetic closes
each (k+1)-word, reduces it to its primitive root and turns that to its
least rotation, one search per root length in the word codes of the
database's ``word_table`` finds the cycle, and f and g are gathered from
its per-bounce columns: the values of the word-by-word rule that
``tests/test_thermo.py`` keeps as its oracle.

Both pressures, the transfer one and the periodic-point approximant, are
convex and decreasing in s with slope -<f> between minus the longest and
minus the shortest flight.  A secant iteration from s = 0 whose first
step divides P(0) by the longest flight therefore reaches each root in a
few pressure calls, without a bracket (see :func:`solve_abscissa`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MalformedInputError, NumericalError, PowerIterationError

PRESSURE_TOL = 1e-10
ROOT_MAX_STEPS = 50
POWER_TOL = 1e-13  # relative width of the eigenvalue bracket at which power iteration stops
POWER_STALL_TOL = 1e-12  # relative width of a bracket that stopped shrinking, still accepted
POWER_MAX_ITER = 200000
POWER_SHIFT_AFTER = 1000  # steps of B alone; later steps iterate B + lo I
SIGN_DEAD_BAND = 1e-6  # |P(g)| at or below which sign_check_b1 reports 0


@dataclass(frozen=True)
class CylinderPotential:
    """Tabulated cylinder observables plus the transfer-graph layout.

    Each admissible (k+1)-word is one transition between length-k words;
    edge ``i`` holds the row index, column index, and the (f, g) values
    of the ``i``-th such word; ``n_states`` counts the k-words.
    """

    n_states: int
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_f: np.ndarray
    edge_g: np.ndarray

    def matrix(self, s: float, beta: float) -> np.ndarray:
        """Transfer matrix with entry exp(-s f_w + beta g_w) on each
        admissible transition."""
        B = np.zeros((self.n_states, self.n_states))
        B[self.edge_row, self.edge_col] = np.exp(
            -s * self.edge_f + beta * self.edge_g
        )
        return B


def _successors(codes, r: int):
    """The admissible one-symbol extensions of base-r words, in order."""
    ext = codes[:, None] * r + np.arange(r)
    return ext[np.arange(r) != codes[:, None] % r]


def _center_bounces(db, words, k: int):
    """Flat per-bounce index of each (k+1)-word's center bounce, the
    word closed (its last symbol dropped when it repeats the first)."""
    r = db.config.r
    closes = words // r**k == words % r
    length = k + 1 - closes
    closed = np.where(closes, words // r, words)
    # the shortest period d | length: the word is its head repeated
    period = length.copy()
    for d in range(k, 0, -1):
        whole = length % d == 0
        head = closed // r ** np.where(whole, length - d, 0)
        period[whole & (head * ((r**length - 1) // (r**d - 1)) == closed)] = d
    root = closed // r ** (length - period)
    # every rotation of the root, row s by s symbols (s mod its length)
    s = np.arange(k + 1)[:, None] % period
    rotations = root % r ** (period - s) * r**s + root // r ** (period - s)
    shift = rotations.argmin(axis=0)
    canon = rotations.min(axis=0)
    row = np.full_like(words, -1)
    for p in np.flatnonzero(np.bincount(period)).tolist():
        if p in db.word_table():
            start, _, codes = db.word_table()[p]
            sel = period == p
            i = np.searchsorted(codes, canon[sel])
            row[sel] = np.where(np.append(codes, -1)[i] == canon[sel], start + i, -1)
    missing = np.flatnonzero(row < 0)
    if missing.size:
        j = missing[0]
        word = canon[j] // r ** np.arange(period[j] - 1, -1, -1) % r + 1
        # the load checks the counts per length, so a cache that lacks a
        # canonical cycle holds a word in its place
        raise MalformedInputError(f"orbit database has no cycle {tuple(word.tolist())}; "
                                  "re-run `billzeta orbits` to rebuild it")
    return db.bounds[row] + ((k // 2) % period - shift) % period


def build_potentials(db, k: int) -> CylinderPotential:
    """Tabulate f and g on all admissible (k+1)-words of the database's
    configuration and lay out the transfer graph on k-words."""
    if k < 1:
        raise DomainError("memory k must be >= 1")
    if k + 1 > db.n_max:
        raise DomainError(
            f"memory k={k} needs orbits of period {k + 1}; database stops at {db.n_max}"
        )
    r = db.config.r
    # words as base-r integers of 0-based symbols, in lexicographic order
    states = np.arange(r)
    for _ in range(k - 1):
        states = _successors(states, r)
    words = _successors(states, r)
    at = _center_bounces(db, words, k)
    f = db.flights[at]
    return CylinderPotential(
        n_states=states.size,
        edge_row=np.repeat(np.arange(states.size), r - 1),
        edge_col=np.searchsorted(states, words % r**k),
        edge_f=f,
        edge_g=-np.log1p(f * db.kappa[at]),
    )


def leading_eigenvalue(B: np.ndarray):
    """Perron eigenvalue of a nonnegative irreducible matrix by power
    iteration with two-sided eigenvalue brackets.

    At each step the Collatz–Wielandt bracket [min_i (Bx)_i / x_i,
    max_i (Bx)_i / x_i] of the iterate x encloses the eigenvalue, and its
    midpoint is returned.  Iteration stops once the bracket's width drops
    below ``POWER_TOL`` times the eigenvalue, and fails after
    ``POWER_MAX_ITER`` steps.  Every step writes into the same vectors.

    The bracket shrinks by |lambda_2| / lambda per step.  When one disk
    stands far from a close pair, the bounces alternate between the far
    disk and the pair, so lambda_2 lies near -lambda and that rate near
    1.  After ``POWER_SHIFT_AFTER`` steps the iterate is therefore
    advanced by B + lo I, lo the bracket's lower end: lambda_2 + lo then
    lies near 0, while the bracket, read off B, keeps enclosing the
    eigenvalue.  Every solve on the test fixtures stops within 270
    steps, before the shift.

    In exact arithmetic the bracket never widens from one step to the
    next, also under the shift.  A step that leaves it no narrower shows
    that the rounding of the ratios, built up in the iterate when the
    rate is near 1, sets its width, and no later step narrows it.  Such
    a stalled bracket is accepted when its width is within the rounding
    bound ``POWER_STALL_TOL`` = 1e-12 times the eigenvalue: the midpoint
    then lies within 5e-13 times the eigenvalue of it, so the pressure,
    its log, is off by at most 5e-13, far inside ``PRESSURE_TOL``.  A
    stall above that bound iterates on, and fails after
    ``POWER_MAX_ITER`` steps.
    """
    n = B.shape[0]
    x = np.full(n, 1.0 / n)
    y, ratios = np.empty(n), np.empty(n)
    lam, gap, width = np.nan, np.nan, np.inf
    for step in range(POWER_MAX_ITER):
        np.matmul(B, x, out=y)
        norm = float(y.sum())
        if not 0.0 < norm < np.inf:
            raise PowerIterationError("transfer matrix iterate left the positive cone")
        np.divide(y, x, out=ratios)
        lo, hi = float(ratios.min()), float(ratios.max())
        lam, gap = 0.5 * (lo + hi), hi - lo
        if step >= POWER_SHIFT_AFTER:
            # the next iterate is (B + lo I) x
            y += lo * x
            norm = float(y.sum())
        np.divide(y, norm, out=x)
        if gap <= POWER_TOL * abs(lam) or width <= gap <= POWER_STALL_TOL * abs(lam):
            return lam
        width = gap
    raise PowerIterationError(
        f"power iteration stalled: bracket width {gap:.3e} at eigenvalue {lam:.6g}"
    )


def pressure(pot: CylinderPotential, s: float, beta: float) -> float:
    """Topological pressure of -s f + beta g at memory k."""
    return float(np.log(leading_eigenvalue(pot.matrix(s, beta))))


def pressure_periodic(db, s: float, beta: float, n: int) -> float:
    """Pressure approximant (1/n) log of the n-periodic-point sum of
    exp(-s S_n f + beta S_n g), assembled from primitive orbit data.

    The cycles whose length divides n, with their repetitions, periods
    and expansion exponents, are selected once per database and n and
    kept in ``db.derived``."""
    if n > db.n_max:
        raise DomainError(f"period {n} beyond database n_max={db.n_max}")
    key = ("pressure_periodic", n)
    if key not in db.derived:
        sel = n % db.n == 0
        db.derived[key] = (db.n[sel], n // db.n[sel], db.T[sel], np.log(np.abs(db.lam[sel])))
    length, reps, T, d_gamma = db.derived[key]
    terms = length * np.exp(-s * reps * T - beta * reps * d_gamma)
    # a running sum adds the terms in record order, as a loop would
    total = np.add.accumulate(terms)[-1] if terms.size else 0.0
    if total <= 0.0:
        raise NumericalError("empty periodic-point sum")
    return float(np.log(total) / n)


def solve_abscissa(
    db,
    beta: float,
    method: str = "transfer",
    k: int = 6,
    n: int = 10,
    pot: CylinderPotential | None = None,
) -> float:
    """Root in s of the pressure at fixed beta, by secant steps from s = 0.

    ``method`` selects the transfer-operator pressure at memory ``k``
    (reusing ``pot`` if given) or the n-periodic-point approximant.
    beta = 0, 1/2, 1 give the growth, half, and full abscissas.

    No bracket is needed.  P is convex in s: the transfer pressure is the
    log spectral radius of a matrix of log-convex entries, the periodic
    one a log-sum-exp.  Its slope P'(s) = -<f> lies in [-f_max, -f_min]
    over the flights of ``db``, so the first step s1 = P(0) / f_max never
    passes the root.  When P(0) > 0 every secant iterate stays between 0
    and the root.  When P(0) < 0 one step may pass the root, but only
    within the bound the flights give, and the iteration then closes on
    it.  That step can land far past the root where the pressure bends
    sharply: for a far disk and a close pair, 0.7 past b1, where the
    transfer matrix has lambda_2 / lambda = -0.99997, which
    :func:`leading_eigenvalue` closes by its shift.  The loop stops at
    |P| <= PRESSURE_TOL.
    """
    if method == "transfer":
        if pot is None:
            pot = build_potentials(db, k)
        fun = lambda s: pressure(pot, s, beta)
    elif method == "periodic":
        fun = lambda s: pressure_periodic(db, s, beta, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    s, p = 0.0, fun(0.0)
    step = p / float(db.flights.max())
    for _ in range(ROOT_MAX_STEPS):
        if abs(p) <= PRESSURE_TOL:
            return s
        p_next = fun(s + step)
        if p_next == p:
            break
        s, p, step = s + step, p_next, -p_next * step / (p_next - p)
    raise NumericalError(
        f"pressure root not found in {ROOT_MAX_STEPS} secant steps: P({s:.6g}) = {p:.3e}"
    )


def sign_check_b1(pot: CylinderPotential):
    """Sign of P(g): positive, negative, or 0 inside ``SIGN_DEAD_BAND``.

    The sign of the full abscissa b1 must match: P(g) > 0 forces b1 > 0
    and vice versa.
    """
    value = pressure(pot, 0.0, 1.0)
    if abs(value) <= SIGN_DEAD_BAND:
        return 0, value
    return (1 if value > 0 else -1), value


def twisted_spectral_test(pot: CylinderPotential, s: float):
    """Leading eigenvalue of the transfer matrix and spectral radius of
    its half-period parity twist at (s, beta = 1).

    One reflection advances the boundary phase by half a period, so the
    twist multiplies every transition weight by exp(i pi) = -1 and the
    twisted matrix is -B.  Its spectral radius is taken from the full
    spectrum, max |eigvals(-B)|, so it is measured, not assumed; a
    strict-contraction certificate has to come from
    :func:`twisted_unit_gap` instead.
    """
    B = pot.matrix(s, 1.0)
    lam = leading_eigenvalue(B)
    return lam, float(np.max(np.abs(np.linalg.eigvals(-B))))


def twisted_unit_gap(pot: CylinderPotential, s: float) -> float:
    """Distance of the twisted spectrum from the point 1.

    min |1 - mu| over eigenvalues mu of -B(s, 1).  A positive gap at
    s = b1 certifies that the twisted determinant is nonzero there even
    though the twisted spectral radius equals the untwisted one.
    """
    B = pot.matrix(s, 1.0)
    mu = np.linalg.eigvals(-B)
    return float(np.min(np.abs(1.0 - mu)))
