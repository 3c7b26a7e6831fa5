"""Periodic billiard orbits for a prescribed itinerary.

The reflection points on disk boundaries are parameterized by polar
angles; the periodic orbit is the critical point of the cyclic length
functional, found by damped Newton iteration with analytic gradient and
Hessian.  Bounce i couples only to bounces i-1 and i+1, so the Hessian
is cyclic tridiagonal and is kept as two ``(M, n)`` bands, its diagonal
and its cyclic off-diagonal, computed with the length and gradient from
one frame of points, tangents and flights per Newton trial: the trial's
length is its decrease test, and an accepted trial's derivatives are the
next step's.  A bordered LDL^T of the bands, vectorised over rows and
looping over the ``n`` columns, tests positive definiteness (every pivot
positive) and gives the Newton step; its pivot product is det H, which
Hill's formula ties to the monodromy.  :func:`solve_orbits` runs the
iteration on an ``(M, n)`` array of angles, one row per cycle of length
``n``, then certifies every row from one more frame: the residual, the
incidence angles and the reflection law over ``(M, n)`` arrays, and the
clearance of each flight from the r - 2 disks it does not touch over
``(M, n, r - 2)``.  It returns those arrays as columns, one row per
cycle, and builds no object per cycle.  Every row follows exactly the
steps it would take alone, so a whole length is solved and certified in
one batch, and :func:`solve_orbit` is the one-row batch, returned as a
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


def _flights(cx, cy, rad, c, s):
    """Points p at the angles of cosine ``c`` and sine ``s``, flight
    vectors e and flight lengths f; flight i runs from bounce i to bounce
    i+1."""
    px, py = cx + rad * c, cy + rad * s
    ex, ey = _next(px) - px, _next(py) - py
    return px, py, ex, ey, np.sqrt(ex * ex + ey * ey)


def _derivatives(cx, cy, rad, theta):
    """Length, gradient and Hessian bands at ``theta``, from one frame.

    The Hessian of the cyclic length is cyclic tridiagonal; it is
    returned as its diagonal ``d`` and its off-diagonal ``e``, with
    ``e[:, i] = H[i, i+1 mod n]``, both ``(M, n)``.
    """
    c, s = np.cos(theta), np.sin(theta)
    px, py, ex, ey, f = _flights(cx, cy, rad, c, s)
    # tangents t = dp/dtheta and unit flight directions u
    tx, ty, ux, uy = -rad * s, rad * c, ex / f, ey / f
    # flight i contributes -<u_i, t_i> to the gradient at bounce i and
    # +<u_i, t_{i+1}> at bounce i+1
    di = ux * tx + uy * ty
    g = (_prev(ux) * tx + _prev(uy) * ty) - di
    # p'' = -(p - c); the tangent projected off the flight is (I - u u^T) t
    ax, ay = cx - px, cy - py
    txj, tyj = _next(tx), _next(ty)
    axj, ayj = _next(ax), _next(ay)
    qxi, qyi = tx - ux * di, ty - uy * di
    dj = ux * txj + uy * tyj
    qxj, qyj = txj - ux * dj, tyj - uy * dj
    start = (qxi * tx + qyi * ty) / f - (ux * ax + uy * ay)
    end = (qxj * txj + qyj * tyj) / f + (ux * axj + uy * ayj)
    cross = -(qxj * tx + qyj * ty) / f
    return _row_sum(f), g, start + _prev(end), cross


def _cyclic_solve(d, e, r):
    """Solve ``H x = r`` for cyclic tridiagonal ``H``, one row per matrix,
    by a bordered LDL^T factorisation.

    Row k of ``H`` has diagonal ``d[k]`` and ``H[i, i+1 mod n] =
    e[k, i]``.  Its leading ``n-1`` block is tridiagonal and factors
    with multipliers ``l``; the last row and column are the border,
    whose multipliers ``z`` come from a forward solve, and the Schur
    complement is the last pivot.  For n = 2 both off-diagonal terms
    land on ``H[0, 1]``.  The loops run over the columns only, so
    nothing mixes rows.

    Returns ``x``, the pivots and which rows are positive definite (all
    pivots positive).  The pivots of a row after its first non-positive
    one are set to 1, so no row divides by zero; its ``x`` is then
    meaningless.
    """
    m, n = d.shape
    # columns as contiguous rows
    d, e, r = d.T.copy(), e.T.copy(), r.T.copy()
    border = np.zeros((n - 1, m))
    border[0] += e[-1]
    border[-1] += e[-2]
    pivots = np.empty((n, m))
    l = np.empty((n - 2, m))
    z = np.empty((n - 1, m))
    definite = np.ones(m, dtype=bool)
    schur = d[-1].copy()
    p, y = d[0], border[0]
    for i in range(n - 1):
        if i:
            p = d[i] - l[i - 1] * e[i - 1]
            y = border[i] - l[i - 1] * y
        definite &= p > 0.0
        pivots[i] = p = np.where(definite, p, 1.0)
        z[i] = y / p
        schur -= z[i] * y
        if i < n - 2:
            l[i] = e[i] / p
    definite &= schur > 0.0
    pivots[-1] = np.where(definite, schur, 1.0)

    # forward with the unit lower factor, then the pivots, then back
    u = [r[0]]
    last = r[-1] - z[0] * u[0]
    for i in range(1, n - 1):
        u.append(r[i] - l[i - 1] * u[-1])
        last -= z[i] * u[i]
    x = np.empty_like(r)
    x[-1] = xn = last / pivots[-1]
    for i in range(n - 2, -1, -1):
        xi = u[i] / pivots[i] - z[i] * xn
        if i < n - 2:
            xi -= l[i] * x[i + 1]
        x[i] = xi
    return x.T, pivots.T, definite


def _damped_step(cx, cy, rad, theta, local, gnorm):
    """One damped Newton step per row: returns the new angles, the
    length, gradient and Hessian bands there, and which rows moved.

    ``local`` holds the length, gradient ``g`` and Hessian bands at
    ``theta`` (:func:`_derivatives`).  The bordered LDL^T of the bands
    (:func:`_cyclic_solve`) both tests the Hessian, which is positive
    definite when every pivot is positive, and gives the Newton step;
    a row that fails the test takes the step -g.  Near convergence a
    Newton step is taken in full; otherwise it is halved until the
    length decreases, and a Newton row that finds no decrease retries
    along -g.  A row that finds no decrease either way does not move
    and keeps ``local``.  Every trial is one :func:`_derivatives` frame,
    whose length is the decrease test, so the accepted trial's
    derivatives are returned without another frame.
    """
    L0, g, d, e = local
    delta, _, newton = _cyclic_solve(d, e, -g)
    delta = np.where(newton[:, None], delta, -g)
    full = newton & (gnorm < FULL_STEP_RESIDUAL)

    new, moved, pending = None, np.zeros_like(full), np.ones_like(full)
    for direction in (delta, -g):
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            at = rows if rows.size < len(theta) else slice(None)
            trial = theta[at] + lam * direction[at]
            values = _derivatives(cx[at], cy[at], rad[at], trial)
            ok = full[at] | (values[0] < L0[at])
            if new is None:
                # the first trial, over every row
                if ok.all():
                    return trial, values, ok
                new, local = theta.copy(), [a.copy() for a in local]
            rows = rows[ok]
            new[rows] = trial[ok]
            for a, b in zip(local, values):
                a[rows] = b[ok]
            moved[rows] = True
            pending[rows] = False
            lam *= 0.5
        pending &= newton
    return new, local, moved


def _newton(cx, cy, rad, theta, tol=SOLVER_TOL, max_iter=MAX_ITER):
    """Damped Newton iteration on the cyclic length, one row per orbit.

    Rows iterate until the sup norm of their gradient is at most ``tol``,
    they stall, or ``max_iter`` steps pass.  Returns the angles and the
    residual (gradient sup norm) per row.
    """
    theta = np.array(theta, dtype=float)
    local = _derivatives(cx, cy, rad, theta)
    gnorm = np.max(np.abs(local[1]), axis=1)
    live = gnorm > tol
    for _ in range(max_iter):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        if rows.size == len(theta):
            rows = slice(None)
        theta[rows], values, moved = _damped_step(
            cx[rows], cy[rows], rad[rows], theta[rows], [a[rows] for a in local], gnorm[rows]
        )
        for a, b in zip(local, values):
            a[rows] = b
        gnorm[rows] = np.max(np.abs(values[1]), axis=1)
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
    nx, ny = np.cos(theta), np.sin(theta)
    px, py, ex, ey, flights = _flights(cx, cy, rad, nx, ny)
    ux, uy = ex / flights, ey / flights

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

    # clearance of every flight from the r - 2 disks it does not touch:
    # distance from each center to each segment, minus the radius,
    # over (M, n, r - 2)
    idx = labels - 1
    disk = np.arange(config.r)
    missed = (disk != idx[..., None]) & (disk != _next(idx)[..., None])
    other = (np.flatnonzero(missed) % config.r).reshape(m, n, config.r - 2)
    ex, ey = ex[..., None], ey[..., None]
    xk = config.centers[other, 0] - px[..., None]
    yk = config.centers[other, 1] - py[..., None]
    along = np.clip((xk * ex + yk * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    gx, gy = xk - along * ex, yk - along * ey
    margin = np.sqrt(gx * gx + gy * gy) - config.radii[other]
    crossing = np.argwhere(margin <= 0.0)
    if crossing.size:
        i, j, k = crossing[0]
        k = other[i, j, k]
        raise DomainError(f"segment {j} of orbit {_word(labels, i)} crosses disk {k + 1}")

    return {
        "labels": labels,
        "angles": theta,
        "flights": flights,
        "cos_incidence": cos_inc,
        "T": flights.sum(axis=1),
        "residual": gnorm,
        "shadow_margin": margin.min(axis=(1, 2), initial=np.inf),
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

