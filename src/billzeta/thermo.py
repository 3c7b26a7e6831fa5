"""Thermodynamic pressure on the bounce subshift.

The flight-time and stability observables are approximated by functions
that are constant on cylinders of a fixed memory k: a word of k+1
symbols pins k bounces either side of a distinguished center bounce
(position k // 2), and the cylinder value is read off the periodic
orbit obtained by closing the word.  The induced transfer operator acts
on length-k words; its leading eigenvalue gives the pressure
P(-s f + beta g), and the abscissas of the orbit series are the roots
in s of P = 0 at beta = 0, 1/2, 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PowerIterationError
from .symbolic import canonical_rotation, enumerate_words, primitive_root

PRESSURE_TOL = 1e-10
POWER_TOL = 1e-13


def closing_word(word):
    """Periodic word whose orbit realizes the cylinder: drop the last
    symbol when it repeats the first, otherwise the word itself."""
    if len(word) >= 2 and word[0] == word[-1]:
        return word[:-1]
    return word


def cylinder_values(db, word):
    """(flight, curvature, contraction) of the cylinder's center bounce.

    The word is closed, reduced to its primitive root, and looked up in
    the database; the center position is mapped through the canonical
    rotation to index the cycle's row of the flat per-bounce columns.
    """
    k = len(word) - 1
    closed = closing_word(word)
    root, _ = primitive_root(closed)
    canon, shift = canonical_rotation(root)
    m = (k // 2) % len(root)
    at = db.bounds[db.row(canon)] + (m - shift) % len(root)
    f = float(db.flights[at])
    kappa = float(db.kappa[at])
    g = -np.log1p(f * kappa)
    return f, kappa, g


@dataclass(frozen=True)
class CylinderPotential:
    """Tabulated cylinder observables plus the transfer-graph layout.

    ``words`` lists the admissible (k+1)-words, one per transition
    between length-k words; edge ``i`` holds the row index, column
    index, and the (f, g) values of ``words[i]``.
    """

    r: int
    k: int
    states: tuple
    words: tuple
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_f: np.ndarray
    edge_g: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

    def matrix(self, s: float, beta: float) -> np.ndarray:
        """Transfer matrix with entry exp(-s f_w + beta g_w) on each
        admissible transition."""
        B = np.zeros((self.n_states, self.n_states))
        B[self.edge_row, self.edge_col] = np.exp(
            -s * self.edge_f + beta * self.edge_g
        )
        return B


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
    states = enumerate_words(r, k)
    index = {w: i for i, w in enumerate(states)}
    words = []
    rows, cols, fs, gs = [], [], [], []
    for u in states:
        for a in range(1, r + 1):
            if a == u[-1]:
                continue
            w = u + (a,)
            v = u[1:] + (a,) if k > 1 else (a,)
            f, _, g = cylinder_values(db, w)
            words.append(w)
            rows.append(index[u])
            cols.append(index[v])
            fs.append(f)
            gs.append(g)
    return CylinderPotential(
        r=r,
        k=k,
        states=tuple(states),
        words=tuple(words),
        edge_row=np.array(rows, dtype=np.int64),
        edge_col=np.array(cols, dtype=np.int64),
        edge_f=np.array(fs),
        edge_g=np.array(gs),
    )


def refinement_gap(pot_k: CylinderPotential, pot_k1: CylinderPotential):
    """Largest change of (f, g) when memory k is refined to k + 1.

    A (k+2)-word evaluates the same physical bounce as its centered
    (k+1)-subword, so the gap measures how fast the cylinder
    approximation converges.
    """
    if pot_k1.k != pot_k.k + 1:
        raise ValueError("potentials must have consecutive memories")
    delta = (pot_k1.k // 2) - (pot_k.k // 2)
    edge = {w: i for i, w in enumerate(pot_k.words)}
    parent = [edge[w[delta : delta + pot_k.k + 1]] for w in pot_k1.words]
    gap_f = np.abs(pot_k1.edge_f - pot_k.edge_f[parent]).max()
    gap_g = np.abs(pot_k1.edge_g - pot_k.edge_g[parent]).max()
    return float(gap_f), float(gap_g)


def leading_eigenvalue(B: np.ndarray, tol: float = POWER_TOL, max_iter: int = 200000):
    """Perron eigenvalue of a nonnegative irreducible matrix by power
    iteration with two-sided eigenvalue brackets.

    At each step the bracket [min_i (Bx)_i / x_i, max_i (Bx)_i / x_i]
    encloses the eigenvalue; iteration stops once its width drops below
    ``tol`` times the eigenvalue.
    """
    n = B.shape[0]
    x = np.full(n, 1.0 / n)
    lam = np.nan
    for _ in range(max_iter):
        y = B @ x
        norm = float(np.sum(y))
        if norm <= 0.0 or not np.isfinite(norm):
            raise PowerIterationError("transfer matrix iterate left the positive cone")
        ratios = y / x
        lo = float(np.min(ratios))
        hi = float(np.max(ratios))
        lam = 0.5 * (lo + hi)
        x = y / norm
        if hi - lo <= tol * abs(lam):
            return lam
    raise PowerIterationError(
        f"power iteration stalled: bracket width {hi - lo:.3e} at eigenvalue {lam:.6g}"
    )


def pressure(pot: CylinderPotential, s: float, beta: float) -> float:
    """Topological pressure of -s f + beta g at memory k."""
    return float(np.log(leading_eigenvalue(pot.matrix(s, beta))))


def pressure_periodic(db, s: float, beta: float, n: int) -> float:
    """Pressure approximant (1/n) log of the n-periodic-point sum of
    exp(-s S_n f + beta S_n g), assembled from primitive orbit data."""
    if n > db.n_max:
        raise DomainError(f"period {n} beyond database n_max={db.n_max}")
    sel = n % db.n == 0
    length, reps = db.n[sel], n // db.n[sel]
    d_gamma = np.log(np.abs(db.lam[sel]))
    terms = length * np.exp(-s * reps * db.T[sel] - beta * reps * d_gamma)
    # a running sum adds the terms in record order, as a loop would
    total = np.add.accumulate(terms)[-1] if terms.size else 0.0
    if total <= 0.0:
        raise NumericalError("empty periodic-point sum")
    return float(np.log(total) / n)


def _bisect_root(fun, lo, hi, flo, fhi, tol):
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if abs(fm) <= tol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    raise NumericalError("pressure bisection failed to reach tolerance")


def solve_abscissa(
    db,
    beta: float,
    method: str = "transfer",
    k: int = 6,
    n: int = 10,
    tol: float = PRESSURE_TOL,
    pot: CylinderPotential | None = None,
) -> float:
    """Root in s of the pressure at fixed beta.

    ``method`` selects the transfer-operator pressure at memory ``k``
    (reusing ``pot`` if given) or the n-periodic-point approximant.
    beta = 0, 1/2, 1 give the growth, half, and full abscissas.
    """
    if method == "transfer":
        if pot is None:
            pot = build_potentials(db, k)
        fun = lambda s: pressure(pot, s, beta)
    elif method == "periodic":
        fun = lambda s: pressure_periodic(db, s, beta, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    lo = hi = 0.0
    flo = fhi = fun(0.0)
    if abs(flo) <= tol:
        return 0.0
    step = 0.25
    for _ in range(60):
        if flo > 0.0:
            # pressure decreases in s; move right for the root
            hi = lo + step
            fhi = fun(hi)
            if fhi <= 0.0:
                break
            lo, flo = hi, fhi
        else:
            lo = hi - step
            flo = fun(lo)
            if flo >= 0.0:
                break
            hi, fhi = lo, flo
        step *= 2.0
    else:
        raise NumericalError("could not bracket the pressure root")
    if flo > 0.0 >= fhi:
        return float(_bisect_root(fun, lo, hi, flo, fhi, tol))
    return float(_bisect_root(fun, hi, lo, fhi, flo, tol))


def sign_check_b1(pot: CylinderPotential, dead_band: float = 1e-6):
    """Sign of P(g): positive, negative, or 0 inside the dead band.

    The sign of the full abscissa b1 must match: P(g) > 0 forces b1 > 0
    and vice versa.
    """
    value = pressure(pot, 0.0, 1.0)
    if abs(value) <= dead_band:
        return 0, value
    return (1 if value > 0 else -1), value


def twisted_spectral_test(pot: CylinderPotential, s: float, beta: float = 1.0):
    """Leading eigenvalue of the transfer matrix and spectral radius of
    its half-period parity twist at (s, beta).

    One reflection advances the boundary phase by half a period, so the
    twist multiplies every transition weight by exp(i pi) = -1 and the
    twisted matrix is -B.  Its spectral radius is taken from the full
    spectrum, max |eigvals(-B)|, so it is measured, not assumed; a
    strict-contraction certificate has to come from
    :func:`twisted_unit_gap` instead.
    """
    B = pot.matrix(s, beta)
    lam = leading_eigenvalue(B)
    return lam, float(np.max(np.abs(np.linalg.eigvals(-B))))


def twisted_unit_gap(pot: CylinderPotential, s: float, beta: float = 1.0) -> float:
    """Distance of the twisted spectrum from the point 1.

    min |1 - mu| over eigenvalues mu of -B(s, beta).  A positive gap at
    s = b1 certifies that the twisted determinant is nonzero there even
    though the twisted spectral radius equals the untwisted one.
    """
    B = pot.matrix(s, beta)
    mu = np.linalg.eigvals(-B)
    return float(np.min(np.abs(1.0 - mu)))
