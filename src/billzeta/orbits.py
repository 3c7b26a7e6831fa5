"""Periodic billiard orbits for prescribed itineraries.

The reflection points on disk boundaries are parameterized by polar
angles; the periodic orbit is the critical point of the cyclic length
functional, found by damped Newton iteration with analytic gradient and
Hessian.  Bounce i couples only to bounces i-1 and i+1, so the Hessian
is cyclic tridiagonal and is kept as two ``(M, W)`` bands, its diagonal
and its cyclic off-diagonal, computed with the length and gradient from
one frame of points, tangents and flights per Newton trial: the trial's
length is its decrease test, and an accepted trial's derivatives are the
next step's.  A bordered LDL^T of the bands, vectorised over rows and
looping over the columns, tests positive definiteness (every pivot
positive) and gives the Newton step; its pivot product is det H, which
Hill's formula ties to the monodromy.

:func:`solve_orbits` solves words of several lengths in one batch, one
row per word, each padded with zeros after its last bounce to the width
W of the longest; the Newton iteration and the certification both run
on these ``(M, W)`` rows.  A row of length n keeps its bounces in
columns 0..n-1, and the LDL^T takes its border at column n-1.  The
padding columns n..W-1 are frozen at flight 0, gradient 0 and Hessian
diagonal 1 with no coupling, so a row takes bit for bit the steps it
takes in a batch of its own length, until the sup norm of its gradient
is at most ``SOLVER_TOL``.  The rows step together, each Newton trial
over the whole batch, and a converged or stalled row is held by a mask.
Cyclic neighbours are read through flat gather indices built once per
batch and passed, with the padding cells, to every Newton helper.  The
certification checks every bounce, with the padding masked out: the
residual, the incidence angles, the reflection law and the clearance of
each flight from the r - 2 disks it does not touch.  The padded arrays
are returned as they are, with no object per cycle, and a row's result
does not depend on which words share its batch.  :func:`solve_orbit` is
the one-row batch, returned as a :class:`PeriodicOrbit`.
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


# ---------------------------------------------------------------------------
# batches of words of several lengths


def _cells(n, width):
    """Which cells of padded words hold a bounce: the first ``n`` of a
    row of length ``n``."""
    return np.arange(width) < n[:, None]


def _length_blocks(n, width):
    """(rows, block) for every length in ``n``: the rows of that length
    and the index of their own ``(rows, length)`` block of padded
    ``(M, width)`` arrays.  A sum or product along a block takes each
    row's terms in the order a batch of its own length does."""
    if n.min() == width:
        return [(slice(None), (slice(None), slice(None)))]
    blocks = []
    for length in np.flatnonzero(np.bincount(n)):
        rows = np.flatnonzero(n == length)
        blocks.append((rows, (rows, slice(None, length))))
    return blocks


def _word(labels, i, n):
    """Row ``i`` of padded ``labels``, of length ``n``, as a word, for
    messages."""
    return tuple(labels[i, :n].tolist())


def _first_failure(n, checks):
    """The failure to raise: the shortest length with a failing row, the
    first of ``checks`` that fails at that length and its first failing
    row, as if every length were a batch of its own.  ``checks`` holds
    the failing rows of each check in ascending order.  Returns (row,
    check), or None when nothing fails."""
    first = None
    for check, rows in enumerate(checks):
        if rows.size:
            i = rows[np.argmin(n[rows])]
            if first is None or n[i] < n[first[0]]:
                first = (i, check)
    return first


def _batch(words):
    """Padded labels ``(M, W)`` and lengths of ``words``: a sequence of
    words of any lengths, or an ``(M, W)`` int array of words padded
    with zeros after their last label; a row with a zero before a
    nonzero label is a word of length W."""
    if isinstance(words, np.ndarray) and words.ndim == 2:
        labels = np.asarray(words, dtype=np.int64)
        n = np.count_nonzero(labels, axis=1)
        n[np.any((labels != 0) != _cells(n, labels.shape[1]), axis=1)] = labels.shape[1]
        return labels, n
    n = np.array([len(word) for word in words], dtype=np.int64)
    labels = np.zeros((len(n), n.max(initial=0)), dtype=np.int64)
    for length in np.flatnonzero(np.bincount(n)):
        rows = np.flatnonzero(n == length)
        labels[rows, :length] = np.array([words[i] for i in rows], dtype=np.int64)
    return labels, n


def _check_words(config, labels, n):
    """Refuse the first word that is too short, uses a label outside
    1..r or repeats a label cyclically, checked on all rows at once."""
    m, width = labels.shape
    if m == 0:
        raise DomainError("an orbit batch needs at least one word")
    if width < 2:
        raise DomainError(f"itinerary {_word(labels, 0, n[0])} is too short")
    cells = _cells(n, width)
    short = n < 2
    outside = np.any(((labels < 1) | (labels > config.r)) & cells, axis=1)
    # each label against the next, and the last against the first
    repeat = np.any((labels[:, 1:] == labels[:, :-1]) & cells[:, 1:], axis=1)
    repeat |= labels[np.arange(m), np.maximum(n - 1, 0)] == labels[:, 0]
    bad = np.flatnonzero(short | outside | repeat)
    if bad.size:
        i = bad[0]
        word = _word(labels, i, n[i])
        if short[i]:
            raise DomainError(f"itinerary {word} is too short")
        if outside[i]:
            raise DomainError(f"itinerary {word} uses labels outside 1..{config.r}")
        raise DomainError(f"itinerary {word} repeats a label consecutively")


def _neighbours(n, width):
    """Flat indices of the next and of the previous bounce of every cell
    of padded ``(M, width)`` rows of lengths ``n``, for ``take`` on
    arrays of those rows; a padding cell is its own neighbour."""
    col = np.arange(width)
    own = col + np.arange(0, len(n) * width, width)[:, None]
    last = (n - 1)[:, None]
    nxt = np.where(col < last, own + 1, np.where(col == last, own - last, own))
    prv = np.where(col == 0, own + last, np.where(col <= last, own - 1, own))
    return nxt, prv


def _disks(config, words):
    """Center coordinates and radii along padded words, as ``(M, W)``
    arrays; a padding cell (label 0) gets zeros."""
    idx = np.asarray(words, dtype=np.int64) - 1
    table = np.zeros((3, config.r + 1))
    table[:2, :-1], table[2, :-1] = config.centers.T, config.radii
    return table[0][idx], table[1][idx], table[2][idx]


def _default_angles(cx, cy, nxt, prv):
    mx = 0.5 * (cx.take(prv) + cx.take(nxt))
    my = 0.5 * (cy.take(prv) + cy.take(nxt))
    return np.arctan2(my - cy, mx - cx)


def default_angles(config, word) -> np.ndarray:
    """Initial boundary angles: each point faces the midpoint of the
    previous and next disk centers."""
    cx, cy, _ = _disks(config, [tuple(word)])
    return _default_angles(cx, cy, *_neighbours(np.array([len(word)]), len(word)))[0]


# ---------------------------------------------------------------------------
# length functional over (M, W) rows; nothing mixes rows, and row sums
# run column by column so a row's value does not depend on its batch


def _row_sum(a):
    total = a[:, 0].copy()
    for i in range(1, a.shape[1]):
        total += a[:, i]
    return total


def _flights(cx, cy, rad, c, s, nxt):
    """Points p at the angles of cosine ``c`` and sine ``s``, flight
    vectors e and flight lengths f; flight i runs from bounce i to the
    bounce at flat index ``nxt[i]``."""
    px, py = cx + rad * c, cy + rad * s
    ex, ey = px.take(nxt) - px, py.take(nxt) - py
    return px, py, ex, ey, np.sqrt(ex * ex + ey * ey)


def _derivatives(cx, cy, rad, theta, links):
    """Length, gradient and Hessian bands at ``theta``, from one frame.

    The Hessian of the cyclic length is cyclic tridiagonal; it is
    returned as its diagonal ``d`` and its off-diagonal ``e``, with
    ``e[:, i]`` its entry between bounce i and the next, both ``(M,
    W)``.  ``links`` holds the neighbour indices of the cells
    (:func:`_neighbours`) and the padding cells, None when there are
    none.  A padding cell has radius 0 and is its own neighbour, so its
    flight, gradient and coupling are 0; it divides by 1 instead of its
    flight 0 and gets diagonal 1.
    """
    (nxt, prv), pad = links
    c, s = np.cos(theta), np.sin(theta)
    px, py, ex, ey, f = _flights(cx, cy, rad, c, s, nxt)
    length = _row_sum(f)
    if pad is not None:
        f += pad
    # the frame's live arrays set the solve's peak memory, so results are
    # written over inputs that are done with and temporaries are dropped
    # tangents t = dp/dtheta and unit flight directions u
    tx, ty = np.multiply(-rad, s, out=s), np.multiply(rad, c, out=c)
    ux, uy = np.divide(ex, f, out=ex), np.divide(ey, f, out=ey)
    # flight i contributes -<u_i, t_i> to the gradient at bounce i and
    # +<u_i, t_{i+1}> at bounce i+1
    di = ux * tx
    di += uy * ty
    g = ux.take(prv)
    g *= tx
    g += uy.take(prv) * ty
    g -= di
    # p'' = -(p - c); the tangent projected off the flight is (I - u u^T) t
    ax, ay = np.subtract(cx, px, out=px), np.subtract(cy, py, out=py)
    del px, py
    qxi, qyi = tx - ux * di, ty - uy * di
    start = (qxi * tx + qyi * ty) / f - (ux * ax + uy * ay)
    del qxi, qyi, di
    axj = ux * ax.take(nxt)
    axj += uy * ay.take(nxt)
    del ax, ay
    txj, tyj = tx.take(nxt), ty.take(nxt)
    dj = ux * txj + uy * tyj
    qxj, qyj = txj - ux * dj, tyj - uy * dj
    del dj
    end = (qxj * txj + qyj * tyj) / f + axj
    del txj, tyj, axj
    cross = -(qxj * tx + qyj * ty) / f
    d = start + end.take(prv)
    if pad is not None:
        d += pad
    return length, g, d, cross


def _cyclic_solve(d, e, r, last=None):
    """Solve ``H x = r`` for cyclic tridiagonal ``H``, one row per matrix,
    by a bordered LDL^T factorisation.

    Row k of ``H`` has diagonal ``d[k]`` and ``H[i, i+1 mod n] =
    e[k, i]``.  Its leading ``n-1`` block is tridiagonal and factors
    with multipliers ``l``; the last row and column are the border,
    whose multipliers ``z`` come from a forward solve, and the Schur
    complement is the last pivot.  For n = 2 both off-diagonal terms
    land on ``H[0, 1]``.  The loops run over the columns only, so
    nothing mixes rows.

    In a padded batch ``last`` gives each row's border, its column n-1;
    its padding after that must have diagonal 1 and ``e`` and ``r`` 0.
    The chain takes the border column and the padding as unit pivots
    with no coupling, so a row's own columns get the pivots and steps of
    a batch of its own length, and the padding gets pivot 1 and ``x`` 0.

    Returns ``x``, the pivots and which rows are positive definite (all
    pivots positive).  The pivots of a row after its first non-positive
    one are set to 1, so no row divides by zero; its ``x`` is then
    meaningless.
    """
    m, n = d.shape
    # columns as contiguous rows; row k's border is at flat index ``at[k]``
    d, e, r = d.T.copy(), e.T.copy(), r.T.copy()
    at = (np.full(m, n - 1) if last is None else last) * m + np.arange(m)
    flat_d, flat_e, flat_r = d.reshape(-1), e.reshape(-1), r.reshape(-1)
    schur, rn = flat_d[at], flat_r[at]
    border = np.zeros((n - 1, m))
    border[0] += flat_e[at]
    border.reshape(-1)[at - m] += flat_e[at - m]
    flat_e[at - m] = flat_e[at] = flat_r[at] = 0.0
    flat_d[at] = 1.0
    pivots = np.ones((n, m))
    l = np.empty((n - 2, m))
    z = np.empty((n - 1, m))
    definite = np.ones(m, dtype=bool)
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
    pivots.reshape(-1)[at] = schur = np.where(definite, schur, 1.0)

    # forward with the unit lower factor, then the pivots, then back
    u = [r[0]]
    rn -= z[0] * u[0]
    for i in range(1, n - 1):
        u.append(r[i] - l[i - 1] * u[-1])
        rn -= z[i] * u[i]
    x = np.zeros_like(r)
    xn = rn / schur
    for i in range(n - 2, -1, -1):
        xi = u[i] / pivots[i] - z[i] * xn
        if i < n - 2:
            xi -= l[i] * x[i + 1]
        x[i] = xi
    x.reshape(-1)[at] = xn
    return x.T, pivots.T, definite


def _damped_step(cx, cy, rad, theta, local, gnorm, links, live):
    """One damped Newton step for the ``live`` rows: returns the new
    angles, the length, gradient and Hessian bands there, and which rows
    moved, a subset of ``live``.

    ``local`` holds the length, gradient ``g`` and Hessian bands at
    ``theta`` (:func:`_derivatives`, with the same ``links``).  The
    bordered LDL^T of the bands (:func:`_cyclic_solve`) both tests the
    Hessian, which is positive definite when every pivot is positive,
    and gives the Newton step; a row that fails the test takes the step
    -g.  Near convergence a Newton step is taken in full; otherwise it
    is halved until the length decreases, and a Newton row that finds no
    decrease retries along -g.  Every trial is one :func:`_derivatives`
    frame over the whole batch, whose length is the decrease test, so
    the accepted trial's derivatives are returned without another frame.
    A row that does not move, live or not, keeps ``theta`` and ``local``.
    """
    L0, g, d, e = local
    # each row's last bounce is the one before its first
    delta, _, newton = _cyclic_solve(d, e, -g, links[0][1][:, 0] % theta.shape[1])
    delta = np.where(newton[:, None], delta, -g)
    full = newton & (gnorm < FULL_STEP_RESIDUAL)

    new, moved = None, np.zeros_like(live)
    for direction, candidates in ((delta, live), (-g, live & newton)):
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            pending = candidates & ~moved
            if not pending.any():
                break
            trial = theta + lam * direction
            values = _derivatives(cx, cy, rad, trial, links)
            ok = pending & (full | (values[0] < L0))
            if new is None:
                if ok.all():
                    return trial, values, ok
                new, local = theta.copy(), [a.copy() for a in local]
            new[ok] = trial[ok]
            for a, b in zip(local, values):
                a[ok] = b[ok]
            moved |= ok
            lam *= 0.5
    return new, local, moved


def _newton(cx, cy, rad, theta, links, max_iter):
    """Damped Newton iteration on the cyclic length, one row per orbit.

    Rows iterate until the sup norm of their gradient is at most
    ``SOLVER_TOL``, they stall, or ``max_iter`` steps pass; ``links`` as
    for :func:`_derivatives`.  Every step runs on the whole batch and
    moves only live rows.  Returns the angles and the residual (gradient
    sup norm) per row.
    """
    local = _derivatives(cx, cy, rad, theta, links)
    gnorm = np.max(np.abs(local[1]), axis=1)
    live = gnorm > SOLVER_TOL
    for _ in range(max_iter):
        if not live.any():
            break
        theta, local, moved = _damped_step(cx, cy, rad, theta, local, gnorm, links, live)
        gnorm = np.max(np.abs(local[1]), axis=1)
        live = moved & (gnorm > SOLVER_TOL)
    return theta, gnorm


def _solve(disks, cells, links, theta0, max_iter):
    """The Newton iteration on padded rows from ``theta0``, its padding
    ignored, or from :func:`default_angles` when it is None.  Returns the
    angles in [0, 2 pi), 0 in the padding, and the residual per row."""
    start = _default_angles(disks[0], disks[1], *links) if theta0 is None else theta0
    pad = None if cells.all() else ~cells
    theta, gnorm = _newton(*disks, np.where(cells, start, 0.0), (links, pad), max_iter)
    return np.mod(theta, 2.0 * np.pi), gnorm


def _clearance(config, labels, px, py, ex, ey, pad, nxt):
    """Clearance of every flight from the r - 2 disks it does not touch:
    the distance from each center to the segment, minus the radius, and
    the disks' indices, ``(M, W, r - 2)`` each.  A padding cell, label
    0, gets disks 2..r-1 and divides by 1 for its flight's length."""
    # the k-th disk a flight misses: k stepped past the lower, then the higher, of its two
    a, b = labels - 1, (labels - 1).take(nxt)
    other = np.arange(config.r - 2)
    other = other + (other >= np.minimum(a, b)[..., None])
    other += other >= np.maximum(a, b)[..., None]
    ex, ey = ex[..., None], ey[..., None]
    xk = config.centers[other, 0] - px[..., None]
    yk = config.centers[other, 1] - py[..., None]
    along = np.clip((xk * ex + yk * ey) / (ex * ex + ey * ey + pad[..., None]), 0.0, 1.0)
    xk -= along * ex
    yk -= along * ey
    return np.sqrt(xk * xk + yk * yk) - config.radii[other], other


def _certify(config, labels, disks, theta, cells, nxt, prv):
    """Flights and incidence cosines of the cells of padded rows, where
    they break the reflection law, and the clearance of the flights
    (:func:`_clearance`); neighbours are at flat indices ``nxt`` and
    ``prv``.  A padding cell has flight 0, divides by 1 and breaks no law."""
    pad = ~cells
    nx, ny = np.cos(theta), np.sin(theta)
    px, py, ex, ey, flights = _flights(*disks, nx, ny, nxt)
    margin, other = _clearance(config, labels, px, py, ex, ey, pad, nxt)
    f = flights + pad
    ux, uy = np.divide(ex, f, out=ex), np.divide(ey, f, out=ey)
    # outgoing direction must leave the disk; its normal component is
    # the cosine of the incidence angle
    cos_inc = ux * nx + uy * ny
    # the incoming direction reflected in the normal must be the outgoing one
    vx, vy = ux.take(prv), uy.take(prv)
    twice = 2.0 * (vx * nx + vy * ny)
    vx -= twice * nx
    vx -= ux
    vy -= twice * ny
    vy -= uy
    skewed = (np.sqrt(vx * vx + vy * vy) > REFLECTION_TOL) & cells
    return flights, cos_inc, skewed, margin, other


def solve_orbits(config, words, theta0=None, max_iter: int = MAX_ITER) -> dict:
    """Solve the periodic orbits of cyclic itineraries in one batch, one
    row per word.

    Parameters
    ----------
    config : Configuration
        Must pass :func:`billzeta.geometry.validate`.
    words : sequence of sequences of int, or (M, W) int array
        Cyclic itineraries of any lengths, 1-based disk labels, no
        immediate repeats.  An array holds one word per row, padded
        with zeros after its last label, as
        :func:`billzeta.symbolic.enumerate_cycles` returns them; a row
        with a zero before a label is a word of length W.
    theta0 : array, optional
        Starting boundary angles, shape ``(M, W)``, each row's first n
        entries used; defaults to :func:`default_angles` of each word.
    max_iter : int
        Newton steps a row may take to bring the sup norm of its length
        gradient to ``SOLVER_TOL``.

    Every row goes through the same Newton steps and checks as it would
    in a batch of its own length, so the orbits do not depend on which
    words share the batch.

    Returns
    -------
    dict
        ``labels`` (the words), ``angles``, ``flights`` and
        ``cos_incidence`` as ``(M, W)`` arrays, each row's first n
        entries its bounces and 0 after them (``(M, n)`` when every
        word has length n); ``n`` (the lengths), ``T``, ``residual``
        (sup norm of the length gradient) and ``shadow_margin`` (least
        clearance of a flight from a disk it does not touch) as
        ``(M,)`` arrays.  Row ``i`` is ``words[i]``.

    Raises
    ------
    SolverError
        For a row that misses ``SOLVER_TOL`` (carries its residual), is
        tangential or fails the independent reflection-law check.
    DomainError
        If the batch is empty, an itinerary is inadmissible, or a
        segment crosses an obstacle.

    The first inadmissible word raises.  Otherwise the error raised is
    that of the shortest length with a failing row, the first failing
    check there in the order above (a missed ``SOLVER_TOL``, tangency, the
    reflection law, a crossing) and its first failing row: the error a
    batch per length, shortest first, would raise.
    """
    labels, n = _batch(words)
    _check_words(config, labels, n)
    m, width = labels.shape
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=float)
        if theta0.shape != (m, width):
            raise DomainError(f"theta0 must have shape ({m}, {width})")
    cells = _cells(n, width)
    disks = _disks(config, labels)
    nxt, prv = _neighbours(n, width)
    theta, gnorm = _solve(disks, cells, (nxt, prv), theta0, max_iter)
    flights, cos_inc, skewed, margin, other = _certify(
        config, labels, disks, theta, cells, nxt, prv
    )
    crossing = (margin <= 0.0) & cells[..., None]
    failure = _first_failure(n, [np.flatnonzero(a) for a in (
        ~(gnorm <= SOLVER_TOL), ((cos_inc <= 0.0) & cells).any(axis=1), skewed.any(axis=1),
        crossing.any(axis=(1, 2)),
    )])
    if failure is not None:
        i, check = failure
        name, residual = _word(labels, i, n[i]), float(gnorm[i])
        if check == 0:
            raise SolverError(
                f"orbit solve for {name} stalled at residual {residual:.3e}", residual=residual
            )
        if check == 1:
            raise SolverError(
                f"orbit for {name} is tangential or enters its own disk", residual=residual
            )
        if check == 2:
            j = np.flatnonzero(skewed[i])[0]
            raise SolverError(f"reflection law violated at bounce {j} of {name}", residual=residual)
        j, k = np.argwhere(crossing[i])[0]
        raise DomainError(f"segment {j} of orbit {name} crosses disk {other[i, j, k] + 1}")

    T = np.empty(m)
    for rows, block in _length_blocks(n, width):
        T[rows] = flights[block].sum(axis=1)
    return {
        "labels": labels,
        "n": n,
        "angles": theta,
        "flights": flights,
        "cos_incidence": cos_inc,
        "T": T,
        "residual": gnorm,
        "shadow_margin": np.where(cells, margin.min(axis=2, initial=np.inf), np.inf).min(axis=1),
    }


def solve_orbit(config, word, theta0=None, max_iter: int = MAX_ITER) -> PeriodicOrbit:
    """Solve for the periodic orbit with the given cyclic itinerary: the
    one-row batch of :func:`solve_orbits`, which gives the parameters and
    the errors raised."""
    start = None if theta0 is None else np.asarray(theta0, dtype=float)[None]
    rows = solve_orbits(config, [word], start, max_iter)
    return PeriodicOrbit(
        word=_word(rows["labels"], 0, int(rows["n"][0])),
        angles=rows["angles"][0],
        flights=rows["flights"][0],
        T=float(rows["T"][0]),
        cos_incidence=rows["cos_incidence"][0],
        residual=float(rows["residual"][0]),
        shadow_margin=float(rows["shadow_margin"][0]),
    )
