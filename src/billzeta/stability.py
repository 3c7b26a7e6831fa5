"""Linear stability of periodic orbits via two independent routes.

Route one transports wavefront curvature around the cycle to its
periodic state and multiplies the per-flight expansion factors.  Route
two multiplies 2x2 flight/reflection blocks into a monodromy matrix
whose expanding eigenvalue must agree with route one; disagreement
raises.  Each reflection flips orientation, so the signed eigenvalue
carries a factor (-1) per bounce.

Both routes run over ``(M, W)`` arrays, one row per orbit, each row's
first n entries its bounces and zeros after them, in a batch of one
length as in a batch of several:
:func:`stability_records` certifies a batch of any lengths from the
columns :func:`orbits.solve_orbits` returns and gives back the
curvatures and signed eigenvalues as columns, with no object per cycle.
Their loops over the bounces read columns, so both take the ``(W, M)``
transpose once and read each column as a contiguous row.  A padding
column has flight 0 and kick 0, so it passes the curvature and the
monodromy on unchanged from a row's last bounce to its first, and the
product of the expansion factors is taken over each length's own
``(M_n, n)`` block.  The curvature sweeps run on the whole batch, and
a settled row is held by a mask.  :func:`stability_record` (a
:class:`StabilityRecord`), :func:`unstable_curvatures` and
:func:`monodromy` are its one-row calls.  Nothing mixes rows, so a row's
result does not depend on its batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HyperbolicityError, NumericalError
from .orbits import PeriodicOrbit, _cells, _check_words, _first_failure, _length_blocks, _word

CURVATURE_TOL = 1e-13
MAX_SWEEPS = 500
CROSS_CHECK_RTOL = 1e-8


def wavefront_green(kappa: float, y: float) -> float:
    """Integrand whose doubled flight integral gives -log(1 + f*kappa)."""
    return -0.5 * kappa / (1.0 + kappa * y)


def _kicks(config, labels, cos_incidence):
    """Reflection kicks ``2 k_B / cos(phi)`` and boundary curvatures
    ``k_B`` along padded words, ``(M, W)`` each; both are 0 in the
    padding (label 0)."""
    kb = np.append(1.0 / config.radii, 0.0)[labels - 1]
    kicks = np.divide(2.0 * kb, cos_incidence, out=np.zeros_like(kb), where=labels != 0)
    return kicks, kb


def _one_row(config, orbit: PeriodicOrbit):
    """Labels, flights, kicks and boundary curvatures of one orbit, as
    one-row arrays."""
    labels = np.array([orbit.word], dtype=np.int64)
    return (labels, orbit.flights[None], *_kicks(config, labels, orbit.cos_incidence[None]))


def _curvature_sweeps(flights, kicks, kappa0):
    """Periodic point of the curvature transport map, one row per cycle.

    ``kappa[:, i]`` is the outgoing (post-reflection) wavefront curvature
    at bounce ``i``; a flight of length ``f`` maps ``k`` to ``k/(1+f k)``
    and the reflection at bounce ``j`` adds ``kicks[:, j]``.  Each sweep
    goes around the cycle bounce by bounce over the whole batch, and a
    row takes sweeps until one moves it less than ``CURVATURE_TOL`` in
    sup norm, or ``MAX_SWEEPS`` of them; then a mask holds it.  Returns
    (kappa, sweeps per row, settled per row).

    A padding cell (flight and kick 0) holds k/(1+f k) of its row's last
    bounce and never decides when the row settles: from the second sweep
    on it moves by the last bounce's move over (1+f k)(1+f k') > 1, up to
    rounding, and in the first sweep from the boundary curvatures k_B each
    bounce moves by more than its kick 2 k_B/cos(phi) less k_B, so > k_B.
    """
    kappa = np.array(kappa0, dtype=float).T.copy()
    flights, kicks = flights.T.copy(), kicks.T.copy()
    n, m = kappa.shape
    sweeps = np.zeros(m, dtype=np.int64)
    live = np.ones(m, dtype=bool)
    for _ in range(MAX_SWEEPS):
        if not live.any():
            break
        k = kappa.copy()
        diff = np.zeros(m)
        for i in range(n):
            j = (i + 1) % n
            new = k[i] / (1.0 + flights[i] * k[i]) + kicks[j]
            d = np.abs(new - k[j])
            diff = np.where(d > diff, d, diff)
            k[j] = new
        kappa = np.where(live, k, kappa)
        sweeps += live
        live &= ~(diff < CURVATURE_TOL)
    return kappa.T.copy(), sweeps, ~live


def _unsettled(labels, i, n):
    return NumericalError(
        f"curvature transport for {_word(labels, i, n)} did not settle in {MAX_SWEEPS} sweeps"
    )


def _monodromies(flights, kicks, n=None):
    """:func:`monodromy` of every row, ``(M, 2, 2)``; ``n`` holds the
    row lengths, whose parity gives the sign (W for every row when
    None)."""
    m, width = flights.shape
    # mono[a, b] is entry (a, b) of every row
    flights, kicks = flights.T.copy(), kicks.T.copy()
    mono = np.zeros((2, 2, m))
    mono[0, 0] = mono[1, 1] = 1.0
    for i in range(width):
        j = (i + 1) % width
        mono[0] += flights[i] * mono[1]
        mono[1] += kicks[j] * mono[0]
    mono *= np.where((width if n is None else n) % 2 == 1, -1.0, 1.0)
    return np.ascontiguousarray(np.moveaxis(mono, -1, 0))


def unstable_curvatures(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Post-reflection curvature of the expanding wavefront at each bounce.

    Starts from the boundary curvatures and sweeps the cycle map until
    the sup-norm change per sweep is below ``CURVATURE_TOL``.
    """
    labels, flights, kicks, kb = _one_row(config, orbit)
    kappa, _, settled = _curvature_sweeps(flights, kicks, kb)
    if not settled[0]:
        raise _unsettled(labels, 0, orbit.n)
    return kappa[0]


def expansion_factor(orbit: PeriodicOrbit, kappa: np.ndarray):
    """Per-bounce expansion factors ``1 + f_i kappa_i`` and their product."""
    factors = 1.0 + orbit.flights * kappa
    return factors, float(np.prod(factors))


def monodromy(config, orbit: PeriodicOrbit) -> np.ndarray:
    """Signed 2x2 monodromy: flight blocks [[1, f], [0, 1]], reflection
    blocks [[1, 0], [2 k_B / cos phi, 1]], and a factor -1 per bounce."""
    _, flights, kicks, _ = _one_row(config, orbit)
    return _monodromies(flights, kicks)[0]


def _not_hyperbolic(tr):
    return HyperbolicityError(f"monodromy trace {tr} is not hyperbolic")


def _eigenvalue(tr):
    """Signed expanding eigenvalue for the traces with |trace| > 2, and a
    finite value for the others."""
    hyperbolic = np.abs(tr) > 2.0
    return 0.5 * (tr + np.sign(tr) * np.sqrt(np.where(hyperbolic, tr * tr - 4.0, 0.0))), hyperbolic


def expanding_eigenvalue(M: np.ndarray):
    """Signed eigenvalue of unit-determinant 2x2 matrices ``(..., 2, 2)``
    with |trace| > 2."""
    tr = np.trace(M, axis1=-2, axis2=-1)
    lam, hyperbolic = _eigenvalue(tr)
    bad = np.flatnonzero(~hyperbolic)
    if bad.size:
        raise _not_hyperbolic(np.ravel(tr)[bad[0]])
    return lam


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


def stability_records(config, labels, flights, cos_incidence):
    """Stability of orbits of any lengths in one batch, both routes per
    row.

    ``labels``, ``flights`` and ``cos_incidence`` are the ``(M, W)``
    columns of :func:`orbits.solve_orbits`, words padded with zeros.
    Returns the periodic curvatures ``kappa``, ``(M, W)`` with 0 in the
    padding, and the signed expanding eigenvalues ``lam``, ``(M,)``.

    Raises
    ------
    NumericalError
        If a row's curvature transport does not settle.
    HyperbolicityError
        If a row's monodromy is not hyperbolic, or its expanding
        eigenvalue disagrees with the curvature route beyond a relative
        1e-8.
    DomainError
        If the batch is empty, the three arrays are not of one
        ``(M, W)`` shape, the zeros of ``labels`` are not padding, or a
        word uses a label outside 1..r or repeats a label cyclically.

    A bad batch or word raises first.  Otherwise the error raised is
    that of the shortest length with a failing row, the first failing
    check there in the order above and its first failing row: the error
    a batch per length, shortest first, would raise.
    """
    labels = np.asarray(labels, dtype=np.int64)
    flights, cos_incidence = np.asarray(flights, float), np.asarray(cos_incidence, float)
    shapes = {labels.shape, flights.shape, cos_incidence.shape}
    if labels.ndim != 2 or not labels.size or len(shapes) != 1:
        raise DomainError("a stability batch needs at least one orbit and one (M, W) shape")
    m, width = labels.shape
    n = np.count_nonzero(labels, axis=1)
    cells = _cells(n, width)
    if not np.array_equal(labels != 0, cells) or n.min() < 2:
        raise DomainError("stability labels must be words of length 2 or more, padded with zeros")
    _check_words(config, labels, n)
    kicks, kb = _kicks(config, labels, cos_incidence)
    kappa, _, settled = _curvature_sweeps(flights, kicks, kb)
    kappa[~cells] = 0.0
    lam_abs = np.empty(m)
    for rows, block in _length_blocks(n, width):
        lam_abs[rows] = np.prod(1.0 + flights[block] * kappa[block], axis=1)
    tr = np.trace(_monodromies(flights, kicks, n), axis1=-2, axis2=-1)
    lam_mono, hyperbolic = _eigenvalue(tr)
    lam = np.where(n % 2 == 1, -lam_abs, lam_abs)
    agree = np.isclose(lam_mono, lam, rtol=CROSS_CHECK_RTOL, atol=0.0)
    failure = _first_failure(n, (
        np.flatnonzero(~settled), np.flatnonzero(~hyperbolic), np.flatnonzero(~agree)
    ))
    if failure is not None:
        i, check = failure
        if check == 0:
            raise _unsettled(labels, i, n[i])
        if check == 1:
            raise _not_hyperbolic(tr[i])
        raise HyperbolicityError(
            f"stability mismatch for {_word(labels, i, n[i])}: curvature route "
            f"{lam[i]}, monodromy route {lam_mono[i]}"
        )
    return kappa, lam


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

