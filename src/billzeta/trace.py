"""Test-function machinery over the orbit length spectrum.

The atomic distribution F_D carries a weighted Dirac mass at every
(primitive, repetition) orbit length, with the alternating sign
(-1)^m.  Pairings against a scaled bump window rho(m_j (t - l_j)) probe
the length spectrum at scale 1/m_j around l_j; the Gaussian weight is
the corresponding two-point object with its dual frequency-side
evaluation; the shell search collects full-weight mass in unit windows
and compares it against an exponential threshold.

The bump is built as an autocorrelation, so its Fourier transform,
:meth:`BumpFunction.fourier_complex`, is a (scaled) square of the base
bump's transform: on the real axis, where the even base bump's transform
is real, it is nonnegative up to the quadrature's rounding.

The bump's integrals use the 256-node Gauss-Legendre rule on [-1, 1].
It is a constant, so it is stored here as the exact bits numpy's
``np.polynomial.legendre.leggauss(256)`` returns rather than recomputed
(a dense 256 x 256 eigenproblem, about 8 ms) when the window is built at
import.  The rule is exactly antisymmetric in its nodes and symmetric in
its weights, so only the 128 positive nodes and their weights are kept,
as one hex string of little-endian doubles.  To regenerate it::

    x, w = np.polynomial.legendre.leggauss(256)
    np.concatenate((x[128:], w[128:])).astype("<f8").tobytes().hex()
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IncompleteDataError, NumericalError
from .zeta import orbit_atoms

# the positive half of the 256-node Gauss-Legendre rule: 128 nodes in
# increasing order, then their 128 weights
_HALF_RULE = np.frombuffer(
    bytes.fromhex(
        "240900366315793f10df44c2cccf923f3c58b6c687599f3ffe2aeb4b07f1a53f"
        "7a573eff7234ac3f909f04b5643bb13fae35d381e65bb43f2ea93928a07bb73f"
        "066416f2729aba3f006c253240b8bd3f3dfc96a2746ac03fb8d297c927f8c13f"
        "209c47482a85c33f3c75a1df6c11c53fb117ff57e09cc63f4674ae817527c83f"
        "00ff86351db1c93f4ca77e55c839cb3f80763ecd67c1cc3f07cfb692ec47ce3f"
        "7a46b3a647cdcf3f810ab70ab5a8d03f2c8a917b226ad13f5a2451b8e42ad23f"
        "0df7f059f4ead23f300248004aaad33f2daa5152de68d43f46f475fea926d53f"
        "fb79d1baa5e3d53fa4107d45ca9fd63f9522d564105bd73ffcb6c0e77015d83f"
        "c725f8a5e4ced83fe2744b806487d93f045ce860e93eda3f76ec9f3b6cf5da3f"
        "0fda2b0ee6aadb3fcd6273e04f5fdc3f5bd2cfc4a212dd3fe59e50d8d7c4dd3f"
        "a81cff42e875de3f87c52138cd25df3f38127ff67fd4df3f29f14fe4fc40e03f"
        "64b888021a97e03f1f69530794ece03f5bfd5caa6741e13f0d24b6a99195e13f"
        "8d47f3c90ee9e13f01544cd6db3be23f7e3cbca0f58de23fb03d200259dfe23f"
        "dadc56da0230e33ff2a15e10f07fe33fb38b74921dcfe33f783c3256881de43f"
        "bbdeab582d6be43f04c08d9e09b8e43f3ca139341a04e53f2cbbe32d5c4fe53f"
        "1c76afa7cc99e53f6dd3cbc568e3e53f21888fb42d2ce63f32c794a81874e63f"
        "abbad4de26bbe63f79aac29c5501e73fe2cf6630a246e73fa1d478f0098be73f"
        "9dfc793c8acee73f3df9ce7c2011e83f5a65d922ca52e83fd3e810a98493e83f"
        "d4021c934dd3e83fca79e86d2212e93f2e70c3cf0050e93f1f1d7158e68ce93f"
        "f72744b1d0c8e93fe8a5348dbd03ea3fc9b8f6a8aa3dea3f2bce10cb9576ea3f"
        "e27df1c37caeea3f2a07056e5de5ea3f916bcaad351beb3fdb26e8710350eb3f"
        "158340b3c483eb3f0788057577b6eb3f4d85ccc419e8eb3f4d36a1baa918ec3f"
        "537f18792548ec3f1ac3622d8b76ec3f0dd05d0fd9a3ec3f9364a6610dd0ec3f"
        "af49a97126fbec3f6203b4972225ed3f13160537004eed3f6ae0dbbdbd75ed3f"
        "040988a5599ced3f687f7872d2c1ed3f9c0f4ab426e6ed3fe987d5055509ee3f"
        "26703d0d5c2bee3f1652fb7b3a4cee3f5b92ec0eef6bee3f76d95e8e788aee3f"
        "6e0c1cced5a7ee3fa1d475ad05c4ee3f65b6501707dfee3f14b62e02d9f8ee3f"
        "308b39707a11ef3f57614c6fea28ef3fe326fd18283fef3f1969a5923254ef3f"
        "12be6a0d0968ef3fbebc46c6aa7aef3f0c840e06178cef3f0bd379214d9cef3f"
        "b5b529794cabef3f74cdae7914b9ef3f70438f9ba4c5ef3f2e824c63fcd0ef3f"
        "e7f768611bdbef3f097f6e3201e4ef3f1f0ef77eadebef3fee96bcfb1ff2ef3f"
        "438cc16958f7ef3f21e7e09656fbef3fa9ddc7601afeef3fed9a88d4a3ffef3f"
        "9a722da94e15893fcada0a115814893f82f23dea6a12893f25ebb647870f893f"
        "3926dd45ad0b893f111e8e0add06893f46f11bc51601893f0b924bae5afa883f"
        "9d975208a9f2883f71b3d41e02ea883fbec9e04666e0883f58adedded5d5883f"
        "977ed64e51ca883fdeaed607d9bd883fe9a685846db0883fe811d2480fa2883f"
        "8dccfce1be92883f047893e67c82883f16b26af64971883feef197ba265f883f"
        "bd096be5134c883fb04d67321238883f52603c662223883f93a5be4e450d883f"
        "695adfc27bf6873f7154a4a2c6de873fed661fd726c6873ffa6f65529dac873f"
        "1c0c850f2b92873ff9f27c12d176873f1ffa3168905a873f7ac264266a3d873f"
        "bc0da76b5f1f873fb8bb505f7100873f2b757431a1e0863ff7fbd31af0bf863f"
        "6e2ad45c5f9e863f309a7041f07b863f0ef92e1ba458863fcb0812457c34863f"
        "d64a8c227a0f863f555b721f9fe9853ff3f6ecafecc2853f02b16a50649b853f"
        "275791850773853f86042fdcd749853f04e52ae9d61f853fe1a7754906f5843f"
        "37a5f9a167c9843fdcb28a9ffc9c843f23add5f6c66f843fb5b24f64c841843f"
        "f61025ac0213843f53e8279a77e3833f8b83be0129b3833f0465d1bd1882833f"
        "b807b9b04850833f4a5d2bc4ba1d833f0afb28e970ea823f0c07ea176db6823f"
        "3fdaca4fb181823f365e38973f4c823f98229cfb1916823f3730489142df813f"
        "19996273bba7813fd5c2d0c3866f813f107122aba636813fc38b7c581dfd803f"
        "90a78301edc2803f874b46e21788803f6bfa263da04c803f83fdc55a8810803f"
        "86d9d513a5a77f3f9a0bdc3e022d7f3fb87142ec2cb17e3fa01072dd29347e3f"
        "32496adffdb57d3f79ad91caad367d3fd85686823eb67c3f9ed9edf5b4347c3f"
        "f8c6441e16b27b3f9dc4adff662e7b3f2f3ec0a8aca97a3fceae5632ec237a3f"
        "49805cbf2a9d793fff919b7c6d15793f245689a0b98c783f0d91136b1403783f"
        "67c36c258378773f252cd8210bed763f617d75bbb160763ffd2d0c567cd3753f"
        "3a8dd65d7045753f655e4c4793b6743f444bed8eea26743fb6e90ab97b96733f"
        "a28c92514c05733fbfa9d6eb6173723f2d235822c2e0713f96268f96724d713f"
        "8ed4b3f078b9703f73ae86dfda24703f3c7e31303c1f6f3f790727ab90f36d3f"
        "a12e01b2bec66c3f668622d2d1986b3f688acba3d5696a3f5ccca8c9d539693f"
        "77fa60f0dd08683ff28f22cef9d6663f4477312235a4653fada274b49b70643f"
        "54b40355393c633ff6dfb5db1907623f0d70b12749d1603f6ccbfc3da6355f3f"
        "c0b93b5c87c75c3f69d1558f4d585a3f58e71fc810e8573f4ed5ca02e976553f"
        "f5c36447ee04533f6eae3cac3892503f95a113bbc03d4c3f60dbc06bfb55473f"
        "4dc6e92e536d423f68d54430fc073b3f6727f5ff9a34313ff39e519224911d3f"
    ),
    dtype="<f8",
).reshape(2, 128)


BUMP_MARGIN = 1.05  # least value of the bump rho on [-1/2, 1/2]
XI_STEP = 0.05  # trapezoid step of the Gaussian weight's frequency integral
TAIL_TOL = 1e-10  # largest Gaussian tail the frequency cutoff may leave
SIGMA_MIN = 1e-4  # least Gaussian width; its frequency grid has about 1e5 nodes


def gauss_legendre_256():
    """Nodes and weights of the 256-node Gauss-Legendre rule on [-1, 1],
    nodes increasing, from the stored positive half."""
    x, w = _HALF_RULE
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


class BumpFunction:
    """Even smooth window rho = c (phi * phi) with phi the standard
    bump on [-1/2, 1/2].

    Support is [-1, 1]; the scale c is fixed so the minimum of rho over
    [-1/2, 1/2] (attained at the endpoints, since an autocorrelation of
    a positive bump decreases away from 0) equals ``BUMP_MARGIN``.
    """

    def __init__(self):
        x, w = gauss_legendre_256()
        # nodes mapped to [-1/2, 1/2] for transforms of phi itself
        self._x = 0.5 * x
        self._w = 0.5 * w
        self._phi_x = self._phi(self._x)
        self._unit_x = x
        self._unit_w = w
        self.scale = 1.0
        self.scale = BUMP_MARGIN / self._autocorr(np.array([0.5]))[0]

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

    def phi_hat(self, lam):
        """Transform of the base bump, entire in lam."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        ker = np.exp(-1j * np.outer(lam, self._x))
        out = ker @ (self._w * self._phi_x)
        return out

    def fourier_complex(self, lam):
        ph = self.phi_hat(lam)
        out = self.scale * ph * ph
        return out if out.shape != (1,) else complex(out[0])


# the test window rho: it takes no parameters, so every pairing shares one
RHO = BumpFunction()
# sqrt(2 pi) min_{|u|<=1/2} rho(u)^2, the constant of the diagonal lower bound
DIAG_CONST = float(np.sqrt(2.0 * np.pi) * RHO.value(0.5) ** 2)
# the short cycle whose repetitions place the windows of :func:`ikawa_scan`
GAMMA0 = (1, 2)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted sum of Dirac masses on orbit lengths."""

    tau: np.ndarray
    weight: np.ndarray
    cutoff: float
    min_flight: float


MEASURE_KINDS = ("half", "dirichlet", "full")


def build_measure(db, kind: str = "dirichlet") -> AtomicMeasure:
    """Atomic measure over all orbit atoms up to the cutoff ``db.horizon``.

    Kinds: "half" (tau_sharp |det|^{-1/2}), "dirichlet" (half weight
    carrying (-1)^m), "full" (tau_sharp |det|^{-1}).
    """
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    atoms = orbit_atoms(db, T_max=db.horizon)
    base = atoms["w_half"]
    if kind == "half":
        w = base
    elif kind == "dirichlet":
        w = atoms["parity"] * base
    else:
        w = atoms["w_full"]
    return AtomicMeasure(
        tau=atoms["tau"].copy(),
        weight=np.asarray(w, dtype=float),
        cutoff=float(db.horizon),
        min_flight=float(db.config.d0),
    )


def pair(measure: AtomicMeasure, ell: float, m: float) -> float:
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
    return float(np.sum(measure.weight[sel] * RHO.value(m * (measure.tau[sel] - ell))))


def window_count(measure: AtomicMeasure, ell: float, m: float) -> int:
    return int(np.sum(np.abs(measure.tau - ell) < 1.0 / m))


@dataclass(frozen=True)
class IkawaScan:
    rows: tuple
    fit_c: float
    fit_c0: float
    gamma0_T: float


def ikawa_scan(db, beta: float, alpha0: float, j_max: int) -> IkawaScan:
    """Window scan of the signed pairing against e^{-alpha0 ell}.

    Rows cover the special sequence ell_j = j T(``GAMMA0``), j = 1..j_max,
    which isolates the repetitions of a short cycle, with
    m_j = e^{beta ell_j}; each row is (ell, m, |pairing|, threshold,
    pass, atom count).  A linear regression of log |pairing| against ell
    fits the empirical lower-bound constants (c, c0) with
    |pairing| ~ c e^{-c0 ell}.  A ``beta`` or ``alpha0`` whose m_j or
    threshold e^{-alpha0 ell_j} overflows raises ``DomainError`` at that
    ell_j; :func:`pair` checks each window against the cutoff.
    """
    t0 = float(db.T[db.row(GAMMA0)])
    measure = build_measure(db, "dirichlet")
    rows = []
    for j in range(1, j_max + 1):
        ell = j * t0
        with np.errstate(over="ignore"):
            m = float(np.exp(beta * ell))
            thr = float(np.exp(-alpha0 * ell))
        if math.isinf(m) or math.isinf(thr):
            what = (f"beta={beta} overflows the window scale e^(beta ell)" if math.isinf(m)
                    else f"alpha0={alpha0} overflows the threshold e^(-alpha0 ell)")
            raise DomainError(f"{what} at ell={ell:.3f}")
        val = abs(pair(measure, ell, m))
        rows.append((ell, m, val, thr, val >= thr, window_count(measure, ell, m)))
    ells = np.array([r[0] for r in rows])
    vals = np.array([r[2] for r in rows])
    if np.any(vals <= 0.0):
        raise NumericalError("empty special window; cannot fit decay constants")
    slope, intercept = np.polyfit(ells, np.log(vals), 1)
    return IkawaScan(
        rows=tuple(rows),
        fit_c=float(np.exp(intercept)),
        fit_c0=float(-slope),
        gamma0_T=t0,
    )


@dataclass(frozen=True)
class GaussianWeight:
    direct: float
    quadrature: float
    quad_error: float
    lower_bound: float

    @property
    def bound_holds(self) -> bool:
        return self.direct >= self.lower_bound - 1e-12 * max(1.0, abs(self.direct))


def gaussian_weight(db, t: float, sigma: float) -> GaussianWeight:
    """Gaussian-weighted two-point sum around t and its dual form.

    Direct: sqrt(2 pi) sum over atom pairs of w w' exp(-(tau-tau')^2 /
    (2 sigma)) rho(tau-t) rho(tau'-t) with w = tau_sharp |det|^{-1/2}.
    Dual: sigma^{1/2} integral of |S(t, xi)|^2 exp(-sigma xi^2 / 2)
    with S(t, xi) = sum w e^{i xi tau} rho(tau - t), by trapezoid of
    step about ``XI_STEP / 2`` on [-xi_max, xi_max], where the integrand
    is evaluated once; xi_max = 40 sqrt(0.1 / min(sigma, 0.1)) keeps the
    erfc argument of the tail bound at 8.94 or more, and the cost grows
    as 1/sqrt(sigma).  A tail bound above ``TAIL_TOL`` raises
    ``NumericalError``.  The reported quadrature error combines a
    step-halving estimate (every other node) with the analytic tail.

    Also evaluates the diagonal lower bound
    sqrt(2 pi) min_{|u|<=1/2} rho(u)^2 * sum_{|tau-t|<=1/2} tau_sharp/|det|.
    """
    if not SIGMA_MIN <= sigma < 1.0:
        raise DomainError(f"sigma must lie in [{SIGMA_MIN:g}, 1)")
    measure = build_measure(db, "half")
    if measure.cutoff < t + 1.0:
        raise IncompleteDataError(
            f"cutoff {measure.cutoff:.3f} cannot cover the window at t={t}"
        )
    sel = np.abs(measure.tau - t) < 1.0
    tau = measure.tau[sel]
    wr = measure.weight[sel] * RHO.value(tau - t)

    # direct double sum, reduced row by row; an empty window sums to 0.0
    K = np.exp(-((tau[:, None] - tau[None, :]) ** 2) / (2.0 * sigma))
    rows = wr * (K @ wr)
    direct = float(np.sqrt(2.0 * np.pi) * np.sum(rows))

    # frequency side
    xi_max = 40.0 * math.sqrt(0.1 / min(sigma, 0.1))
    n_half = int(round(xi_max / XI_STEP))
    s_max = float(np.sum(np.abs(wr)))
    # |S|^2 <= s_max^2, so the discarded tail of the xi integral is
    # bounded by the Gaussian tail below
    tail = s_max**2 * np.sqrt(2.0 * np.pi) * math.erfc(xi_max * np.sqrt(sigma / 2.0))
    if tail > TAIL_TOL:
        raise NumericalError(
            f"frequency cutoff xi_max={xi_max} leaves a tail bound {tail:.2e}"
        )

    # the integrand on the fine grid; its even nodes are, to the bit,
    # np.linspace(-xi_max, xi_max, 2 * n_half + 1), the coarse grid
    xi = np.linspace(-xi_max, xi_max, 4 * n_half + 1)
    S = np.exp(1j * np.outer(xi, tau)) @ wr
    y = (S.real**2 + S.imag**2) * np.exp(-sigma * xi**2 / 2.0)

    def trapezoid(step):
        ys, h = y[::step], xi[step] - xi[0]
        return float(np.sqrt(sigma) * h * (0.5 * ys[0] + np.sum(ys[1:-1]) + 0.5 * ys[-1]))

    g_h = trapezoid(2)
    g_h2 = trapezoid(1)
    # step halving + analytic tail + float accumulation at scale |G|
    quad_error = (
        abs(g_h - g_h2)
        + tail
        + 256.0 * np.finfo(float).eps * max(1.0, abs(g_h2))
    )

    full = build_measure(db, "full")
    diag_sum = float(np.sum(full.weight[np.abs(full.tau - t) <= 0.5]))
    return GaussianWeight(
        direct=direct,
        quadrature=g_h2,
        quad_error=quad_error,
        lower_bound=DIAG_CONST * diag_sum,
    )


@dataclass(frozen=True)
class ShellReport:
    centers: np.ndarray
    sums: np.ndarray
    counts: np.ndarray
    thresholds: np.ndarray
    qualifying: np.ndarray

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


def resonance_side(poles, ell: float, m: float) -> float:
    """Heuristic resonance-side value for a pairing window (experimental).

    Sums multiplicity * e^{Re s * ell} amplitudes through the window's
    transform evaluated at the complex resonance frequency; poles off
    the real axis contribute with their conjugates.  No convergence or
    correspondence claim is made; this exists for side-by-side tables.
    """
    total = 0.0
    for p in poles:
        s = p.s
        amp = p.multiplicity * np.exp(s * ell) * RHO.fourier_complex(-1j * s / m) / m
        total += float(amp.real) * (2.0 if abs(s.imag) > 1e-12 else 1.0)
    return total


def experimental_compare(db, poles, beta: float, ells):
    """Orbit-side pairing vs heuristic resonance-side sum (experimental)."""
    measure = build_measure(db, "dirichlet")
    rows = []
    for ell in ells:
        m = float(np.exp(beta * ell))
        orbit = pair(measure, float(ell), m)
        res = resonance_side(poles, float(ell), m)
        ratio = orbit / res if res != 0.0 else np.nan
        rows.append((float(ell), m, orbit, res, ratio))
    return rows
