"""Linear stability of periodic orbits via two independent routes.

Route one transports wavefront curvature around the cycle to its
periodic state and multiplies the per-flight expansion factors.  Route
two multiplies 2x2 flight/reflection blocks into a monodromy matrix
whose expanding eigenvalue must agree with route one; disagreement
raises.  Each reflection flips orientation, so the signed eigenvalue
carries a factor (-1) per bounce.

Both routes run over ``(M, n)`` arrays, one row per orbit of length
``n``: :func:`stability_records` certifies a whole length in one batch
from the columns :func:`orbits.solve_orbits` returns and gives back the
curvatures and signed eigenvalues as columns, with no object per cycle.
:func:`stability_record` (a :class:`StabilityRecord`),
:func:`unstable_curvatures` and :func:`monodromy` are its one-row calls.
Nothing mixes rows, so a row's result does not depend on its batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HyperbolicityError, NumericalError
from .orbits import PeriodicOrbit, _word

CURVATURE_TOL = 1e-13
MAX_SWEEPS = 500
CROSS_CHECK_RTOL = 1e-8


def wavefront_green(kappa: float, y: float) -> float:
    """Integrand whose doubled flight integral gives -log(1 + f*kappa)."""
    return -0.5 * kappa / (1.0 + kappa * y)


def _kicks(config, labels, cos_incidence):
    """Reflection kicks ``2 k_B / cos(phi)`` and boundary curvatures
    ``k_B`` along equal-length words, ``(M, n)`` each."""
    kb = 1.0 / config.radii[labels - 1]
    return 2.0 * kb / cos_incidence, kb


def _one_row(config, orbit: PeriodicOrbit):
    """Labels, flights, kicks and boundary curvatures of one orbit, as
    one-row arrays."""
    labels = np.array([orbit.word], dtype=np.int64)
    return (labels, orbit.flights[None], *_kicks(config, labels, orbit.cos_incidence[None]))


def _curvature_sweeps(flights, kicks, kappa0, tol=CURVATURE_TOL, max_sweeps=MAX_SWEEPS):
    """Periodic point of the curvature transport map, one row per cycle.

    ``kappa[:, i]`` is the outgoing (post-reflection) wavefront curvature
    at bounce ``i``; a flight of length ``f`` maps ``k`` to ``k/(1+f k)``
    and the reflection at bounce ``j`` adds ``kicks[:, j]``.  Each sweep
    goes around the cycle bounce by bounce, and a row stops after the
    first sweep that moves it less than ``tol`` in sup norm.  Returns
    (kappa, sweeps per row, settled per row).
    """
    kappa = np.array(kappa0, dtype=float)
    m, n = kappa.shape
    sweeps = np.zeros(m, dtype=np.int64)
    live = np.ones(m, dtype=bool)
    for _ in range(max_sweeps):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        k, f, kick = kappa[rows], flights[rows], kicks[rows]
        diff = np.zeros(rows.size)
        for i in range(n):
            j = (i + 1) % n
            new = k[:, i] / (1.0 + f[:, i] * k[:, i]) + kick[:, j]
            d = np.abs(new - k[:, j])
            diff = np.where(d > diff, d, diff)
            k[:, j] = new
        kappa[rows] = k
        sweeps[rows] += 1
        live[rows] = ~(diff < tol)
    return kappa, sweeps, ~live


def _curvatures(labels, flights, kicks, kb):
    kappa, _, settled = _curvature_sweeps(flights, kicks, kb)
    if not settled.all():
        word = _word(labels, np.flatnonzero(~settled)[0])
        raise NumericalError(
            f"curvature transport for {word} did not settle in {MAX_SWEEPS} sweeps"
        )
    return kappa


def _monodromies(flights, kicks):
    """:func:`monodromy` of every row, ``(M, 2, 2)``."""
    m, n = flights.shape
    mono = np.zeros((m, 2, 2))
    mono[:, 0, 0] = mono[:, 1, 1] = 1.0
    for i in range(n):
        j = (i + 1) % n
        mono[:, 0] += flights[:, i, None] * mono[:, 1]
        mono[:, 1] += kicks[:, j, None] * mono[:, 0]
    return -mono if n % 2 == 1 else mono


def unstable_curvatures(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Post-reflection curvature of the expanding wavefront at each bounce.

    Starts from the boundary curvatures and sweeps the cycle map until
    the sup-norm change per sweep is below 1e-13.
    """
    return _curvatures(*_one_row(config, orbit))[0]


def expansion_factor(orbit: PeriodicOrbit, kappa: np.ndarray):
    """Per-bounce expansion factors ``1 + f_i kappa_i`` and their product."""
    factors = 1.0 + orbit.flights * kappa
    return factors, float(np.prod(factors))


def monodromy(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Signed 2x2 monodromy: flight blocks [[1, f], [0, 1]], reflection
    blocks [[1, 0], [2 k_B / cos phi, 1]], and a factor -1 per bounce."""
    _, flights, kicks, _ = _one_row(config, orbit)
    return _monodromies(flights, kicks)[0]


def expanding_eigenvalue(M: np.ndarray):
    """Signed eigenvalue of unit-determinant 2x2 matrices ``(..., 2, 2)``
    with |trace| > 2."""
    tr = np.trace(M, axis1=-2, axis2=-1)
    bad = np.flatnonzero(~(np.abs(tr) > 2.0))
    if bad.size:
        raise HyperbolicityError(
            f"monodromy trace {np.ravel(tr)[bad[0]]} is not hyperbolic"
        )
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


def stability_records(config, labels, flights, cos_incidence):
    """Stability of equal-length orbits in one batch, both routes per row.

    ``labels``, ``flights`` and ``cos_incidence`` are the ``(M, n)``
    columns of :func:`orbits.solve_orbits`.  Returns the periodic
    curvatures ``kappa``, ``(M, n)``, and the signed expanding
    eigenvalues ``lam``, ``(M,)``.

    Raises
    ------
    NumericalError
        If a row's curvature transport does not settle.
    HyperbolicityError
        If a row's monodromy is not hyperbolic, or its expanding
        eigenvalue disagrees with the curvature route beyond a relative
        1e-8.
    DomainError
        If the batch is empty or the three arrays are not of one
        ``(M, n)`` shape.
    """
    labels = np.asarray(labels, dtype=np.int64)
    flights, cos_incidence = np.asarray(flights, float), np.asarray(cos_incidence, float)
    shapes = {labels.shape, flights.shape, cos_incidence.shape}
    if labels.ndim != 2 or not labels.size or len(shapes) != 1:
        raise DomainError("a stability batch needs at least one orbit and a single length")
    kicks, kb = _kicks(config, labels, cos_incidence)
    kappa = _curvatures(labels, flights, kicks, kb)
    lam_abs = np.prod(1.0 + flights * kappa, axis=1)
    lam_mono = expanding_eigenvalue(_monodromies(flights, kicks))
    sign = -1 if labels.shape[1] % 2 == 1 else 1
    agree = np.isclose(lam_mono, sign * lam_abs, rtol=CROSS_CHECK_RTOL, atol=0.0)
    bad = np.flatnonzero(~agree)
    if bad.size:
        i = bad[0]
        raise HyperbolicityError(
            f"stability mismatch for {_word(labels, i)}: curvature route "
            f"{sign * lam_abs[i]}, monodromy route {lam_mono[i]}"
        )
    return kappa, sign * lam_abs


def stability_record(config, orbit: PeriodicOrbit) -> StabilityRecord:
    """The one-row batch of :func:`stability_records`, with the expansion
    factors and the monodromy trace."""
    labels, flights, kicks, _ = _one_row(config, orbit)
    kappa, lam = stability_records(config, labels, flights, orbit.cos_incidence[None])
    return StabilityRecord(
        word=orbit.word,
        T=orbit.T,
        kappa=kappa[0],
        factors=1.0 + orbit.flights * kappa[0],
        lam_abs=abs(float(lam[0])),
        sign=-1 if orbit.n % 2 == 1 else 1,
        trace=float(np.trace(_monodromies(flights, kicks)[0])),
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
