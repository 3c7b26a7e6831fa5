"""Periodic billiard orbits for a prescribed itinerary.

The reflection points on disk boundaries are parameterized by polar
angles; the periodic orbit is the critical point of the cyclic length
functional, found by damped Newton iteration with analytic gradient and
Hessian.  :func:`solve_orbits` runs the iteration on an ``(M, n)`` array
of angles, one row per cycle of length ``n``, then certifies every row:
the residual, the incidence angles and the reflection law over
``(M, n)`` arrays, and the clearance of each flight from every disk over
``(M, n, r)``.  It returns those arrays as columns, one row per cycle,
and builds no object per cycle.  Every row follows exactly the steps it
would take alone, so a whole length is solved and certified in one
batch, and :func:`solve_orbit` is the one-row batch, returned as a
:class:`PeriodicOrbit`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

SOLVER_TOL = 1e-12
REFLECTION_TOL = 1e-10
MAX_ITER = 200
MAX_HALVINGS = 30
# below this residual the full Newton step is taken without a decrease
# test, which is under float resolution there
FULL_STEP_RESIDUAL = 1e-6


@dataclass(frozen=True)
class PeriodicOrbit:
    word: tuple
    angles: np.ndarray
    flights: np.ndarray
    T: float
    cos_incidence: np.ndarray
    residual: float
    shadow_margin: float

    @property
    def n(self) -> int:
        return len(self.word)


def _word(labels, i):
    """Row ``i`` of ``labels`` as a word, for messages."""
    return tuple(labels[i].tolist())


def _check_words(config, words):
    """Labels of equal-length itineraries as an ``(M, n)`` array, after
    the length, label-range and consecutive-repeat checks on all rows at
    once.  The first bad word raises, and in a batch of mixed lengths it
    does so before the batch is refused."""
    if len({len(w) for w in words}) != 1:
        for word in words:
            _check_words(config, [word])
        raise DomainError("an orbit batch needs at least one word and a single length")
    labels = np.array(words, dtype=np.int64)
    short = np.full(len(labels), labels.shape[1] < 2)
    outside = np.any((labels < 1) | (labels > config.r), axis=1)
    repeat = np.any(labels == np.roll(labels, -1, axis=1), axis=1)
    bad = np.flatnonzero(short | outside | repeat)
    if bad.size:
        i = bad[0]
        word = _word(labels, i)
        if short[i]:
            raise DomainError(f"itinerary {word} is too short")
        if outside[i]:
            raise DomainError(f"itinerary {word} uses labels outside 1..{config.r}")
        raise DomainError(f"itinerary {word} repeats a label consecutively")
    return labels


def _disks(config, words):
    """Center coordinates and radii along equal-length words, as ``(M, n)``
    arrays."""
    idx = np.asarray(words, dtype=np.int64) - 1
    return config.centers[idx, 0], config.centers[idx, 1], config.radii[idx]


def _next(a):
    """Cyclic shift along the last axis: column i holds column i+1."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _prev(a):
    """Cyclic shift along the last axis: column i holds column i-1."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


def _default_angles(cx, cy):
    mx = 0.5 * (_prev(cx) + _next(cx))
    my = 0.5 * (_prev(cy) + _next(cy))
    return np.arctan2(my - cy, mx - cx)


def default_angles(config, word) -> np.ndarray:
    """Initial boundary angles: each point faces the midpoint of the
    previous and next disk centers."""
    cx, cy, _ = _disks(config, [tuple(word)])
    return _default_angles(cx, cy)[0]


# ---------------------------------------------------------------------------
# length functional over (M, n) rows; nothing mixes rows, and row sums
# run column by column so a row's value does not depend on its batch


def _row_sum(a):
    total = a[:, 0].copy()
    for i in range(1, a.shape[1]):
        total += a[:, i]
    return total


def _frame(cx, cy, rad, theta):
    """Points p, tangents t = dp/dtheta, unit flight directions u and
    flight lengths f; flight i runs from bounce i to bounce i+1."""
    c, s = np.cos(theta), np.sin(theta)
    px, py = cx + rad * c, cy + rad * s
    ex, ey = _next(px) - px, _next(py) - py
    f = np.sqrt(ex * ex + ey * ey)
    return px, py, -rad * s, rad * c, ex / f, ey / f, f


def _length(cx, cy, rad, theta):
    return _row_sum(_frame(cx, cy, rad, theta)[6])


def _gradient(cx, cy, rad, theta):
    # flight i contributes -<u_i, t_i> at bounce i and +<u_i, t_{i+1}>
    # at bounce i+1
    _, _, tx, ty, ux, uy, _ = _frame(cx, cy, rad, theta)
    return (_prev(ux) * tx + _prev(uy) * ty) - (ux * tx + uy * ty)


def _hessian(cx, cy, rad, theta):
    """Cyclic tridiagonal Hessian of the length, ``(M, n, n)``."""
    px, py, tx, ty, ux, uy, f = _frame(cx, cy, rad, theta)
    # p'' = -(p - c); the tangent projected off the flight is (I - u u^T) t
    ax, ay = cx - px, cy - py
    txj, tyj = _next(tx), _next(ty)
    axj, ayj = _next(ax), _next(ay)
    di = ux * tx + uy * ty
    qxi, qyi = tx - ux * di, ty - uy * di
    dj = ux * txj + uy * tyj
    qxj, qyj = txj - ux * dj, tyj - uy * dj
    start = (qxi * tx + qyi * ty) / f - (ux * ax + uy * ay)
    end = (qxj * txj + qyj * tyj) / f + (ux * axj + uy * ayj)
    cross = -(qxj * tx + qyj * ty) / f

    m, n = theta.shape
    r = np.arange(n)
    nxt = (r + 1) % n
    H = np.zeros((m, n, n))
    H[:, r, r] = start + _prev(end)
    H[:, r, nxt] += cross
    H[:, nxt, r] += cross
    return H


def _positive_definite(H):
    """Which matrices of the stack ``H`` are positive definite: all of
    them when one stacked Cholesky succeeds, else those whose smallest
    eigenvalue is positive."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(H)[:, 0] > 0.0
    return np.ones(len(H), dtype=bool)


def _damped_step(cx, cy, rad, theta, g, gnorm):
    """One damped Newton step per row: returns the new angles and which
    rows moved.

    A row takes the Newton step when its Hessian is positive definite,
    else the step -g.  Near convergence a Newton step is taken in full;
    otherwise it is halved until the length decreases, and a Newton row
    that finds no decrease retries along -g.  A row that finds no
    decrease either way does not move.
    """
    H = _hessian(cx, cy, rad, theta)
    newton = _positive_definite(H)
    delta = -g
    if newton.any():
        delta[newton] = np.linalg.solve(H[newton], -g[newton][..., None])[..., 0]

    new = theta.copy()
    moved = newton & (gnorm < FULL_STEP_RESIDUAL)
    new[moved] += delta[moved]
    L0 = _length(cx, cy, rad, theta)
    pending = ~moved
    for direction in (delta, -g):
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            trial = theta[rows] + lam * direction[rows]
            ok = _length(cx[rows], cy[rows], rad[rows], trial) < L0[rows]
            new[rows[ok]] = trial[ok]
            moved[rows[ok]] = True
            pending[rows[ok]] = False
            lam *= 0.5
        pending &= newton
    return new, moved


def _newton(cx, cy, rad, theta, tol=SOLVER_TOL, max_iter=MAX_ITER):
    """Damped Newton iteration on the cyclic length, one row per orbit.

    Rows iterate until the sup norm of their gradient is at most ``tol``,
    they stall, or ``max_iter`` steps pass.  Returns the angles and the
    residual (gradient sup norm) per row.
    """
    theta = np.array(theta, dtype=float)
    g = _gradient(cx, cy, rad, theta)
    gnorm = np.max(np.abs(g), axis=1)
    live = gnorm > tol
    for _ in range(max_iter):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        disks = cx[rows], cy[rows], rad[rows]
        new, moved = _damped_step(*disks, theta[rows], g[rows], gnorm[rows])
        theta[rows] = new
        g[rows] = _gradient(*disks, new)
        gnorm[rows] = np.max(np.abs(g[rows]), axis=1)
        live[rows] = moved & (gnorm[rows] > tol)
    return theta, gnorm


def solve_orbits(
    config,
    words,
    theta0=None,
    tol: float = SOLVER_TOL,
    max_iter: int = MAX_ITER,
) -> dict:
    """Solve the periodic orbits of equal-length cyclic itineraries in one
    batch, one row per word.

    Parameters
    ----------
    config : Configuration
        Must pass :func:`billzeta.geometry.validate`.
    words : sequence of sequences of int
        Cyclic itineraries of one length, 1-based disk labels, no
        immediate repeats.
    theta0 : array, optional
        Starting boundary angles, shape ``(len(words), n)``; defaults to
        :func:`default_angles` of each word.
    tol : float
        Convergence target for the sup norm of the length gradient.

    Every row goes through the same Newton steps and checks as it would
    alone, so the orbits do not depend on which words share the batch.

    Returns
    -------
    dict
        ``labels`` (the words), ``angles``, ``flights`` and
        ``cos_incidence`` as ``(M, n)`` arrays; ``T``, ``residual`` (sup
        norm of the length gradient) and ``shadow_margin`` (least
        clearance of a flight from a disk it does not touch) as ``(M,)``
        arrays.  Row ``i`` is ``words[i]``.

    Raises
    ------
    SolverError
        For the first row that misses ``tol`` (carries its residual) or
        fails the independent reflection-law check.
    DomainError
        If the batch is empty or mixes lengths, an itinerary is
        inadmissible, or a segment crosses an obstacle.
    """
    labels = _check_words(config, words)
    m, n = labels.shape
    cx, cy, rad = _disks(config, labels)
    if theta0 is None:
        theta0 = _default_angles(cx, cy)
    theta = np.array(theta0, dtype=float)
    if theta.shape != (m, n):
        raise DomainError(f"theta0 must have shape ({m}, {n})")

    theta, gnorm = _newton(cx, cy, rad, theta, tol, max_iter)
    stalled = np.flatnonzero(~(gnorm <= tol))
    if stalled.size:
        i = stalled[0]
        raise SolverError(
            f"orbit solve for {_word(labels, i)} stalled at residual {gnorm[i]:.3e}",
            residual=float(gnorm[i]),
        )
    theta = np.mod(theta, 2.0 * np.pi)
    px, py, _, _, ux, uy, flights = _frame(cx, cy, rad, theta)
    nx, ny = np.cos(theta), np.sin(theta)

    # outgoing direction must leave the disk; its normal component is
    # the cosine of the incidence angle
    cos_inc = ux * nx + uy * ny
    bad = np.argwhere(cos_inc <= 0.0)
    if bad.size:
        i = bad[0, 0]
        raise SolverError(
            f"orbit for {_word(labels, i)} is tangential or enters its own disk",
            residual=float(gnorm[i]),
        )

    # the incoming direction reflected in the normal must be the outgoing one
    vx, vy = _prev(ux), _prev(uy)
    twice = 2.0 * (vx * nx + vy * ny)
    miss = np.hypot(vx - twice * nx - ux, vy - twice * ny - uy)
    bad = np.argwhere(miss > REFLECTION_TOL)
    if bad.size:
        i, j = bad[0]
        raise SolverError(
            f"reflection law violated at bounce {j} of {_word(labels, i)}",
            residual=float(gnorm[i]),
        )

    # clearance of every flight from every disk it does not touch:
    # distance from each center to each segment, minus the radius,
    # over (M, n, r)
    ex, ey = (_next(px) - px)[..., None], (_next(py) - py)[..., None]
    xk = config.centers[:, 0] - px[..., None]
    yk = config.centers[:, 1] - py[..., None]
    along = np.clip((xk * ex + yk * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    gx, gy = xk - along * ex, yk - along * ey
    margin = np.sqrt(gx * gx + gy * gy) - config.radii
    idx = labels - 1
    disk = np.arange(config.r)
    own = (disk == idx[..., None]) | (disk == _next(idx)[..., None])
    margin[own] = np.inf
    crossing = np.argwhere(margin <= 0.0)
    if crossing.size:
        i, j, k = crossing[0]
        raise DomainError(f"segment {j} of orbit {_word(labels, i)} crosses disk {k + 1}")

    return {
        "labels": labels,
        "angles": theta,
        "flights": flights,
        "cos_incidence": cos_inc,
        "T": flights.sum(axis=1),
        "residual": gnorm,
        "shadow_margin": margin.min(axis=(1, 2)),
    }


def solve_orbit(
    config,
    word,
    theta0=None,
    tol: float = SOLVER_TOL,
    max_iter: int = MAX_ITER,
) -> PeriodicOrbit:
    """Solve for the periodic orbit with the given cyclic itinerary: the
    one-row batch of :func:`solve_orbits`, which gives the parameters and
    the errors raised."""
    start = None if theta0 is None else np.asarray(theta0, dtype=float)[None]
    rows = solve_orbits(config, [word], start, tol, max_iter)
    return PeriodicOrbit(
        word=_word(rows["labels"], 0),
        angles=rows["angles"][0],
        flights=rows["flights"][0],
        T=float(rows["T"][0]),
        cos_incidence=rows["cos_incidence"][0],
        residual=float(rows["residual"][0]),
        shadow_margin=float(rows["shadow_margin"][0]),
    )


def orbit_with_repetition(orbit: PeriodicOrbit, r: int):
    """Length data of the r-fold traversal: (tau, tau_sharp, bounces)."""
    if r < 1:
        raise DomainError("repetition count must be >= 1")
    return r * orbit.T, orbit.T, r * orbit.n
