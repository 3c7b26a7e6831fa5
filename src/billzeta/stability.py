"""Linear stability of periodic orbits via two independent routes.

Route one transports wavefront curvature around the cycle to its
periodic state and multiplies the per-flight expansion factors.  Route
two multiplies 2x2 flight/reflection blocks into a monodromy matrix
whose expanding eigenvalue must agree with route one; disagreement
raises.  Each reflection flips orientation, so the signed eigenvalue
carries a factor (-1) per bounce.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import curvature_fixpoint
from .errors import HyperbolicityError, NumericalError
from .orbits import PeriodicOrbit

CURVATURE_TOL = 1e-13
MAX_SWEEPS = 500
CROSS_CHECK_RTOL = 1e-8


def wavefront_green(kappa: float, y: float) -> float:
    """Integrand whose doubled flight integral gives -log(1 + f*kappa)."""
    return -0.5 * kappa / (1.0 + kappa * y)


def boundary_kicks(config, orbit: PeriodicOrbit) -> np.ndarray:
    idx = np.array(orbit.word, dtype=np.int64) - 1
    kb = 1.0 / config.radii[idx]
    return 2.0 * kb / orbit.cos_incidence


def unstable_curvatures(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Post-reflection curvature of the expanding wavefront at each bounce.

    Starts from the boundary curvatures and sweeps the cycle map until
    the sup-norm change per sweep is below 1e-13.
    """
    idx = np.array(orbit.word, dtype=np.int64) - 1
    kappa0 = np.ascontiguousarray(1.0 / config.radii[idx])
    kicks = np.ascontiguousarray(boundary_kicks(config, orbit))
    flights = np.ascontiguousarray(orbit.flights)
    kappa, _, ok = curvature_fixpoint(flights, kicks, kappa0, CURVATURE_TOL, MAX_SWEEPS)
    if not ok:
        raise NumericalError(
            f"curvature transport for {orbit.word} did not settle in {MAX_SWEEPS} sweeps"
        )
    return kappa


def expansion_factor(orbit: PeriodicOrbit, kappa: np.ndarray):
    """Per-bounce expansion factors ``1 + f_i kappa_i`` and their product."""
    factors = 1.0 + orbit.flights * kappa
    return factors, float(np.prod(factors))


def monodromy(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Signed 2x2 monodromy: flight blocks [[1, f], [0, 1]], reflection
    blocks [[1, 0], [2 k_B / cos phi, 1]], and a factor -1 per bounce."""
    kicks = boundary_kicks(config, orbit)
    n = orbit.n
    M = np.eye(2)
    for i in range(n):
        F = np.array([[1.0, orbit.flights[i]], [0.0, 1.0]])
        j = (i + 1) % n
        R = np.array([[1.0, 0.0], [kicks[j], 1.0]])
        M = R @ F @ M
    if n % 2 == 1:
        M = -M
    return M


def expanding_eigenvalue(M: np.ndarray) -> float:
    """Signed eigenvalue of a unit-determinant 2x2 matrix with |trace| > 2."""
    tr = float(np.trace(M))
    if abs(tr) <= 2.0:
        raise HyperbolicityError(f"monodromy trace {tr} is not hyperbolic")
    return 0.5 * (tr + np.sign(tr) * np.sqrt(tr * tr - 4.0))


@dataclass(frozen=True)
class StabilityRecord:
    """Stability data per primitive period, cross-checked both ways."""

    word: tuple
    T: float
    kappa: np.ndarray
    factors: np.ndarray
    lam_abs: float
    sign: int
    trace: float

    @property
    def lam(self) -> float:
        return self.sign * self.lam_abs

    @property
    def d_gamma(self) -> float:
        """Expansion exponent per primitive period (positive)."""
        return float(np.log(self.lam_abs))


def stability_record(config, orbit: PeriodicOrbit) -> StabilityRecord:
    kappa = unstable_curvatures(config, orbit)
    factors, lam_abs = expansion_factor(orbit, kappa)
    M = monodromy(config, orbit)
    lam_mono = expanding_eigenvalue(M)
    sign = -1 if orbit.n % 2 == 1 else 1
    if not np.isclose(lam_mono, sign * lam_abs, rtol=CROSS_CHECK_RTOL, atol=0.0):
        raise HyperbolicityError(
            f"stability mismatch for {orbit.word}: curvature route {sign * lam_abs}, "
            f"monodromy route {lam_mono}"
        )
    return StabilityRecord(
        word=orbit.word,
        T=orbit.T,
        kappa=kappa,
        factors=factors,
        lam_abs=float(lam_abs),
        sign=sign,
        trace=float(np.trace(M)),
    )


def det_one_minus_poincare(lam_signed: float, r: int = 1) -> float:
    """|det(Id - P^r)| for the r-fold traversal, from the signed
    expanding eigenvalue: |2 - Lambda^r - Lambda^{-r}|."""
    t = lam_signed**r
    return abs(2.0 - t - 1.0 / t)


def weight_tables(record: StabilityRecord, r_max: int):
    """Per-repetition weight tables for the zeta-type series.

    Returns dict with arrays over r = 1..r_max: ``det`` (|det(Id-P^r)|),
    ``half`` (tau_sharp / det^{1/2}), ``full`` (tau_sharp / det), and
    ``unstable`` (tau_sharp / |Lambda|^r).
    """
    r_vals = np.arange(1, r_max + 1)
    det = np.array([det_one_minus_poincare(record.lam, r) for r in r_vals])
    half = record.T / np.sqrt(det)
    full = record.T / det
    unstable = record.T * record.lam_abs ** (-r_vals.astype(float))
    return {"r": r_vals, "det": det, "half": half, "full": full, "unstable": unstable}
