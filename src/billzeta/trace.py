"""Test-function machinery over the orbit length spectrum.

The atomic distribution F_D carries a weighted Dirac mass at every
(primitive, repetition) orbit length, with the alternating sign
(-1)^m.  Pairings against a scaled bump window rho(m_j (t - l_j)) probe
the length spectrum at scale 1/m_j around l_j; the Gaussian weight is
the corresponding two-point object with its dual frequency-side
evaluation; the shell search collects full-weight mass in unit windows
and compares it against an exponential threshold.

The bump is built as an autocorrelation, so its Fourier transform is a
(scaled) square of the base bump's transform: nonnegativity holds by
construction, including for the quadrature approximation, because the
computed value is literally a square.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IncompleteDataError, NumericalError
from .zeta import orbit_atoms


class BumpFunction:
    """Even smooth window rho = c (phi * phi) with phi the standard
    bump on [-1/2, 1/2].

    Support is [-1, 1]; the scale c is fixed so the minimum of rho over
    [-1/2, 1/2] (attained at the endpoints, since an autocorrelation of
    a positive bump decreases away from 0) equals ``margin``.
    """

    def __init__(self, margin: float = 1.05, nodes: int = 256):
        self.margin = float(margin)
        x, w = np.polynomial.legendre.leggauss(nodes)
        # nodes mapped to [-1/2, 1/2] for transforms of phi itself
        self._x = 0.5 * x
        self._w = 0.5 * w
        self._phi_x = self._phi(self._x)
        self._unit_x = x
        self._unit_w = w
        self.scale = 1.0
        self.scale = self.margin / self._autocorr(np.array([0.5]))[0]

    @staticmethod
    def _phi(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 0.5
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (0.25 - t[inside] ** 2))
        return out

    def _autocorr(self, t):
        """(phi * phi)(t) by Gauss-Legendre on the overlap interval."""
        t = np.asarray(t, dtype=float)
        lo = np.maximum(-0.5, t - 0.5)
        hi = np.minimum(0.5, t + 0.5)
        width = np.clip(hi - lo, 0.0, None)
        mid = 0.5 * (lo + hi)
        # u-nodes per evaluation point: shape (points, nodes)
        u = mid[:, None] + 0.5 * width[:, None] * self._unit_x[None, :]
        vals = self._phi(u) * self._phi(u - t[:, None])
        return 0.5 * width * (vals @ self._unit_w)

    def value(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        if np.any(inside):
            out[inside] = self.scale * self._autocorr(t[inside])
        return float(out[0]) if scalar else out

    def __call__(self, t):
        return self.value(t)

    def phi_hat(self, lam):
        """Transform of the base bump, entire in lam."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        ker = np.exp(-1j * np.outer(lam, self._x))
        out = ker @ (self._w * self._phi_x)
        return out

    def fourier(self, lam):
        """rho-hat(lam) = c * phi-hat(lam)^2; real and >= 0 on the real
        axis by construction (it is computed as a square)."""
        scalar = np.ndim(lam) == 0
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        ph = self.phi_hat(lam)
        out = self.scale * (ph.real**2 + ph.imag**2)
        return float(out[0]) if scalar else out

    def fourier_complex(self, lam):
        ph = self.phi_hat(lam)
        out = self.scale * ph * ph
        return out if out.shape != (1,) else complex(out[0])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted sum of Dirac masses on orbit lengths."""

    kind: str
    tau: np.ndarray
    weight: np.ndarray
    cutoff: float
    min_flight: float

    @property
    def n_atoms(self) -> int:
        return len(self.tau)


MEASURE_KINDS = ("half", "even", "dirichlet", "full")


def build_measure(db, kind: str = "dirichlet", T_max=None) -> AtomicMeasure:
    """Atomic measure over all orbit atoms up to the cutoff.

    Kinds: "half" (tau_sharp |det|^{-1/2}), "even" (twice the half
    weight on even reflection counts), "dirichlet" (half weight carrying
    (-1)^m), "full" (tau_sharp |det|^{-1}).
    """
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    if T_max is None:
        T_max = (db.n_max + 1) * db.config.d0
    atoms = orbit_atoms(db, T_max=T_max)
    base = atoms["w_half"]
    if kind == "half":
        w = base
    elif kind == "even":
        w = np.where(atoms["m"] % 2 == 0, 2.0 * base, 0.0)
    elif kind == "dirichlet":
        w = atoms["parity"] * base
    else:
        w = atoms["w_full"]
    return AtomicMeasure(
        kind=kind,
        tau=atoms["tau"].copy(),
        weight=np.asarray(w, dtype=float),
        cutoff=float(T_max),
        min_flight=float(db.config.d0),
    )


def pair(measure: AtomicMeasure, bump: BumpFunction, ell: float, m: float) -> float:
    """<measure, rho_j> with rho_j(t) = rho(m (t - ell)).

    Only atoms with |tau - ell| < 1/m contribute.  The cutoff must reach
    ell + 1/m: an atom beyond the cutoff could otherwise land inside
    the window and silently bias the pairing.
    """
    if ell < measure.min_flight:
        raise DomainError(f"window center {ell} below the shortest flight")
    if m < max(1.0, 1.0 / measure.min_flight):
        raise DomainError(f"window scale m={m} too small")
    if measure.cutoff < ell + 1.0 / m:
        raise IncompleteDataError(
            f"measure cutoff {measure.cutoff:.3f} cannot certify the window "
            f"[{ell - 1.0 / m:.3f}, {ell + 1.0 / m:.3f}]"
        )
    sel = np.abs(measure.tau - ell) < 1.0 / m
    if not np.any(sel):
        return 0.0
    vals = bump.value(m * (measure.tau[sel] - ell))
    return float(np.sum(measure.weight[sel] * np.atleast_1d(vals)))


def window_count(measure: AtomicMeasure, ell: float, m: float) -> int:
    return int(np.sum(np.abs(measure.tau - ell) < 1.0 / m))


@dataclass(frozen=True)
class IkawaScan:
    rows: tuple
    special_rows: tuple
    fit_c: float
    fit_c0: float
    gamma0_word: tuple
    gamma0_T: float


def ikawa_scan(
    db,
    beta: float,
    alpha0: float,
    j_max: int,
    ell_grid=None,
    gamma0=(1, 2),
    bump: BumpFunction | None = None,
) -> IkawaScan:
    """Window scan of the signed pairing against e^{-alpha0 ell}.

    Rows cover ``ell_grid`` (default: the special sequence) with
    m_j = e^{beta ell_j}; each row is (ell, m, |pairing|, threshold,
    pass, atom count).  The special sequence ell_j = j T(gamma0),
    j = 1..j_max, isolates the repetitions of a chosen short cycle; a
    linear regression of log |pairing| against ell fits the empirical
    lower-bound constants (c, c0) with |pairing| ~ c e^{-c0 ell}.
    """
    if bump is None:
        bump = BumpFunction()
    t0 = float(db.T[db.row(gamma0)])
    measure = build_measure(db, "dirichlet")
    special_ells = [j * t0 for j in range(1, j_max + 1)]
    if ell_grid is None:
        ell_grid = special_ells
    horizon = measure.cutoff

    def scan(ells):
        rows = []
        for ell in ells:
            m = float(np.exp(beta * ell))
            if ell + 1.0 / m > horizon:
                raise IncompleteDataError(
                    f"window at ell={ell:.3f} reaches beyond the cutoff {horizon:.3f}"
                )
            val = abs(pair(measure, bump, float(ell), m))
            thr = float(np.exp(-alpha0 * ell))
            rows.append(
                (
                    float(ell),
                    m,
                    val,
                    thr,
                    val >= thr,
                    window_count(measure, float(ell), m),
                )
            )
        return rows

    rows = scan(ell_grid)
    special = scan(special_ells)
    ells = np.array([r[0] for r in special])
    vals = np.array([r[2] for r in special])
    if np.any(vals <= 0.0):
        raise NumericalError("empty special window; cannot fit decay constants")
    slope, intercept = np.polyfit(ells, np.log(vals), 1)
    return IkawaScan(
        rows=tuple(rows),
        special_rows=tuple(special),
        fit_c=float(np.exp(intercept)),
        fit_c0=float(-slope),
        gamma0_word=tuple(gamma0),
        gamma0_T=t0,
    )


@dataclass(frozen=True)
class GaussianWeight:
    direct: float
    quadrature: float
    quad_error: float
    lower_bound: float
    diagonal_sum: float

    @property
    def bound_holds(self) -> bool:
        return self.direct >= self.lower_bound - 1e-12 * max(1.0, abs(self.direct))


def gaussian_weight(
    db,
    t: float,
    sigma: float,
    xi_max: float = 40.0,
    step: float = 0.05,
    bump: BumpFunction | None = None,
    tail_tol: float = 1e-10,
) -> GaussianWeight:
    """Gaussian-weighted two-point sum around t and its dual form.

    Direct: sqrt(2 pi) sum over atom pairs of w w' exp(-(tau-tau')^2 /
    (2 sigma)) rho(tau-t) rho(tau'-t) with w = tau_sharp |det|^{-1/2}.
    Dual: sigma^{1/2} integral of |S(t, xi)|^2 exp(-sigma xi^2 / 2)
    with S(t, xi) = sum w e^{i xi tau} rho(tau - t), by trapezoid on
    [-xi_max, xi_max].  The reported quadrature error combines a
    step-halving estimate with the analytic truncation tail.

    Also evaluates the diagonal lower bound
    sqrt(2 pi) min_{|u|<=1/2} rho(u)^2 * sum_{|tau-t|<=1/2} tau_sharp/|det|.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma must lie in (0, 1)")
    if bump is None:
        bump = BumpFunction()
    measure = build_measure(db, "half")
    if measure.cutoff < t + 1.0:
        raise IncompleteDataError(
            f"cutoff {measure.cutoff:.3f} cannot cover the window at t={t}"
        )
    sel = np.abs(measure.tau - t) < 1.0
    tau = measure.tau[sel]
    wr = measure.weight[sel] * np.atleast_1d(bump.value(tau - t))

    # direct double sum, reduced row by row
    if len(tau):
        K = np.exp(-((tau[:, None] - tau[None, :]) ** 2) / (2.0 * sigma))
        rows = wr * (K @ wr)
        direct = float(np.sqrt(2.0 * np.pi) * np.sum(rows))
    else:
        direct = 0.0

    # frequency side
    n_half = int(round(xi_max / step))
    xi = np.linspace(-xi_max, xi_max, 2 * n_half + 1)
    s_max = float(np.sum(np.abs(wr)))
    # |S|^2 <= s_max^2, so the discarded tail of the xi integral is
    # bounded by the Gaussian tail below
    tail = s_max**2 * np.sqrt(2.0 * np.pi) * math.erfc(xi_max * np.sqrt(sigma / 2.0))
    if tail > tail_tol:
        raise NumericalError(
            f"frequency cutoff xi_max={xi_max} leaves a tail bound {tail:.2e}"
        )

    def quad(xi_grid):
        if len(tau) == 0:
            return 0.0
        S = np.exp(1j * np.outer(xi_grid, tau)) @ wr
        y = (S.real**2 + S.imag**2) * np.exp(-sigma * xi_grid**2 / 2.0)
        h = xi_grid[1] - xi_grid[0]
        return float(np.sqrt(sigma) * h * (0.5 * y[0] + np.sum(y[1:-1]) + 0.5 * y[-1]))

    g_h = quad(xi)
    xi_fine = np.linspace(-xi_max, xi_max, 4 * n_half + 1)
    g_h2 = quad(xi_fine)
    # step halving + analytic tail + float accumulation at scale |G|
    quad_error = (
        abs(g_h - g_h2)
        + tail
        + 256.0 * np.finfo(float).eps * max(1.0, abs(g_h2))
    )

    full = build_measure(db, "full", T_max=measure.cutoff)
    diag_sum = float(np.sum(full.weight[np.abs(full.tau - t) <= 0.5]))
    c_min = float(np.sqrt(2.0 * np.pi) * bump.value(0.5) ** 2)
    return GaussianWeight(
        direct=direct,
        quadrature=g_h2,
        quad_error=quad_error,
        lower_bound=c_min * diag_sum,
        diagonal_sum=diag_sum,
    )


@dataclass(frozen=True)
class ShellReport:
    centers: np.ndarray
    sums: np.ndarray
    counts: np.ndarray
    thresholds: np.ndarray
    qualifying: np.ndarray

    @property
    def t_sequence(self):
        return self.centers[self.qualifying]

    def summary(self) -> str:
        n_q = int(np.sum(self.qualifying))
        if n_q == 0:
            return "no qualifying shell below t_max"
        dens = n_q / max(1, len(self.centers))
        return f"{n_q} qualifying shells (density {dens:.2f})"


def lemma41_search(db, b1: float, eps: float, t_max: float, u: float | None = None) -> ShellReport:
    """Unit-shell scan of the full-weight length mass.

    Shells [t - 1/2, t + 1/2] at integer centers collect
    a_gamma = tau_sharp / |det(Id - P)|; a shell qualifies when its sum
    reaches e^{(b1 - 2 eps) t}.  When b1 = 0 the threshold is replaced
    by e^{-u t / 2} with user-supplied small u > 0.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    measure = build_measure(db, "full")
    if t_max + 0.5 > measure.cutoff:
        raise IncompleteDataError(
            f"t_max={t_max} reaches beyond the cutoff {measure.cutoff:.3f}"
        )
    if b1 == 0.0:
        if u is None or u <= 0.0:
            raise DomainError("b1 = 0 requires a small positive u for the threshold")
        rate = -0.5 * u
    else:
        rate = b1 - 2.0 * eps
    centers = np.arange(1.0, np.floor(t_max) + 0.5)
    sums = np.zeros_like(centers)
    counts = np.zeros(len(centers), dtype=np.int64)
    for i, c in enumerate(centers):
        sel = np.abs(measure.tau - c) <= 0.5
        sums[i] = np.sum(measure.weight[sel])
        counts[i] = np.sum(sel)
    thresholds = np.exp(rate * centers)
    qualifying = sums >= thresholds
    return ShellReport(
        centers=centers,
        sums=sums,
        counts=counts,
        thresholds=thresholds,
        qualifying=qualifying,
    )


def resonance_side(poles, bump: BumpFunction, ell: float, m: float) -> float:
    """Heuristic resonance-side value for a pairing window (experimental).

    Sums multiplicity * e^{Re s * ell} amplitudes through the window's
    transform evaluated at the complex resonance frequency; poles off
    the real axis contribute with their conjugates.  No convergence or
    correspondence claim is made; this exists for side-by-side tables.
    """
    total = 0.0
    for p in poles:
        s = p.s
        amp = p.multiplicity * np.exp(s * ell) * bump.fourier_complex(-1j * s / m) / m
        total += float(amp.real) * (2.0 if abs(s.imag) > 1e-12 else 1.0)
    return total


def experimental_compare(db, poles, beta: float, ells, bump: BumpFunction | None = None):
    """Orbit-side pairing vs heuristic resonance-side sum (experimental)."""
    if bump is None:
        bump = BumpFunction()
    measure = build_measure(db, "dirichlet")
    rows = []
    for ell in ells:
        m = float(np.exp(beta * ell))
        orbit = pair(measure, bump, float(ell), m)
        res = resonance_side(poles, bump, float(ell), m)
        ratio = orbit / res if res != 0.0 else np.nan
        rows.append((float(ell), m, orbit, res, ratio))
    return rows
