"""Periodic billiard orbits for a prescribed itinerary.

The reflection points on disk boundaries are parameterized by polar
angles; the periodic orbit is the critical point of the cyclic length
functional, found by damped Newton iteration with analytic gradient and
Hessian.  The iteration runs on an ``(M, n)`` array of angles, one row
per cycle of length ``n``, and every row follows exactly the steps it
would take alone, so a whole length is solved in one batch.  The solved
orbit is checked against the reflection law and against every obstacle
it must clear.
"""

from dataclasses import dataclass

import numpy as np

from . import symbolic
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
    points: np.ndarray
    flights: np.ndarray
    T: float
    cos_incidence: np.ndarray
    residual: float
    shadow_margin: float

    @property
    def n(self) -> int:
        return len(self.word)


def _check_word(config, word):
    word = tuple(int(s) for s in word)
    if len(word) < 2:
        raise DomainError(f"itinerary {word} is too short")
    if any(s < 1 or s > config.r for s in word):
        raise DomainError(f"itinerary {word} uses labels outside 1..{config.r}")
    if not symbolic.is_cyclically_admissible(word):
        raise DomainError(f"itinerary {word} repeats a label consecutively")
    return word


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


def default_angles(config, word) -> np.ndarray:
    """Initial boundary angles: each point faces the midpoint of the
    previous and next disk centers."""
    cx, cy, _ = _disks(config, [tuple(word)])
    mx = 0.5 * (_prev(cx) + _next(cx))
    my = 0.5 * (_prev(cy) + _next(cy))
    return np.arctan2(my - cy, mx - cx)[0]


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
    newton = np.linalg.eigvalsh(H)[:, 0] > 0.0
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


def solve_angles(config, words):
    """Newton-solved boundary angles of equal-length words, one row per
    word, each started from :func:`default_angles`.

    Rows that miss the tolerance are returned where they stopped;
    :func:`solve_orbit` re-certifies every row.
    """
    theta0 = np.array([default_angles(config, w) for w in words])
    return _newton(*_disks(config, words), theta0)[0]


def solve_orbit(
    config,
    word,
    theta0=None,
    tol: float = SOLVER_TOL,
    max_iter: int = MAX_ITER,
) -> PeriodicOrbit:
    """Solve for the periodic orbit with the given cyclic itinerary.

    Parameters
    ----------
    config : Configuration
        Must pass :func:`billzeta.geometry.validate`.
    word : sequence of int
        Cyclic itinerary, 1-based disk labels, no immediate repeats.
    theta0 : array, optional
        Starting boundary angles; defaults to :func:`default_angles`.
    tol : float
        Convergence target for the sup norm of the length gradient.

    Raises
    ------
    SolverError
        If the iteration misses ``tol`` (carries the best residual) or
        the reflection law fails its independent check.
    DomainError
        If the itinerary is inadmissible or a segment crosses an
        obstacle.
    """
    word = _check_word(config, word)
    n = len(word)
    theta = np.array(
        default_angles(config, word) if theta0 is None else theta0, dtype=float
    )
    if theta.shape != (n,):
        raise DomainError(f"theta0 must have shape ({n},)")

    cx, cy, rad = _disks(config, [word])
    theta, gnorm = _newton(cx, cy, rad, theta[None], tol, max_iter)
    residual = float(gnorm[0])
    if not residual <= tol:
        raise SolverError(
            f"orbit solve for {word} stalled at residual {residual:.3e}",
            residual=residual,
        )
    theta = np.mod(theta[0], 2.0 * np.pi)
    bounce = np.arange(n)
    nxt = (bounce + 1) % n

    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    points = np.stack([cx[0], cy[0]], axis=1) + rad[0][:, None] * normals
    diffs = points[nxt] - points
    flights = np.linalg.norm(diffs, axis=1)
    u = diffs / flights[:, None]

    # outgoing direction must leave the disk; its normal component is
    # the cosine of the incidence angle
    cos_inc = np.einsum("ij,ij->i", u, normals)
    if np.any(cos_inc <= 0.0):
        raise SolverError(
            f"orbit for {word} is tangential or enters its own disk",
            residual=residual,
        )

    # the incoming direction reflected in the normal must be the outgoing one
    v_in = u[bounce - 1]
    v_out = v_in - 2.0 * np.einsum("ij,ij->i", v_in, normals)[:, None] * normals
    bad = np.flatnonzero(np.linalg.norm(v_out - u, axis=1) > REFLECTION_TOL)
    if bad.size:
        raise SolverError(
            f"reflection law violated at bounce {bad[0]} of {word}",
            residual=residual,
        )

    # clearance of every flight from every disk it does not touch:
    # distance from each center to each segment, minus the radius
    idx = np.array(word) - 1
    x = config.centers[None, :, :] - points[:, None, :]
    along = np.einsum("ikj,ij->ik", x, diffs) / np.einsum("ij,ij->i", diffs, diffs)[
        :, None
    ]
    gap = x - np.clip(along, 0.0, 1.0)[:, :, None] * diffs[:, None, :]
    margin = np.sqrt(np.einsum("ikj,ikj->ik", gap, gap)) - config.radii[None, :]
    margin[bounce, idx] = np.inf
    margin[bounce, idx[nxt]] = np.inf
    crossing = np.argwhere(margin <= 0.0)
    if crossing.size:
        i, k = crossing[0]
        raise DomainError(f"segment {i} of orbit {word} crosses disk {k + 1}")

    return PeriodicOrbit(
        word=word,
        angles=theta,
        points=points,
        flights=flights,
        T=float(flights.sum()),
        cos_incidence=cos_inc,
        residual=residual,
        shadow_margin=float(margin.min()),
    )


def orbit_with_repetition(orbit: PeriodicOrbit, r: int):
    """Length data of the r-fold traversal: (tau, tau_sharp, bounces)."""
    if r < 1:
        raise DomainError("repetition count must be >= 1")
    return r * orbit.T, orbit.T, r * orbit.n
