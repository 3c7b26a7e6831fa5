"""Zeros of an exponential sum D(s) by the argument principle.

The search reads D through an evaluator with two methods: ``rows(z,
k=0, noise=False)`` gives D and its first k derivatives at the points z
and, with ``noise``, the truncation noise (last-shell magnitude) from the
same pass; ``last_shell_value(z)`` feeds the rectangle gate.  It also
reads ``trust_floor``, the leftmost Re s a search may reach, and ``N`` for
one message.  :class:`billzeta.zeta.DeterminantExpansion` is one
evaluator, ``tests/test_zeta.py::KnownZeros`` another.

The contour search evaluates D in batches.  A grid's cell sides are cut
into segments, every distinct sample on the grid lines is evaluated once
(a side shared by two cells is walked once), and the truncation-noise
guard is applied to the whole array.  Segments whose phase step exceeds
the limit are halved level by level, one batch per level, and the steps
are summed per cell into winding numbers.  The same pass sums each
cell's first argument-principle moment by parts, int s d(log D), from
the values and phase steps it already holds.  The Simpson moments of a
cell refine further and take D' at every node from the same guarded
pass as D.

Every zero is placed by the argument principle (Delves and Lyness).  A
cell of winding 1 is Newton-polished from the winding pass's first
moment; a cell of winding w >= 2 reports its Simpson first moment
divided by w, the centroid of its zeros.  That point must lie in the
closed cell, and for w >= 2 the second moment must show one cluster
rather than separate zeros; otherwise the winding or the moment is
wrong, and the search raises ``TrustRegionError`` (exit 3) rather than
report it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrustRegionError

GRID = (8, 8)  # default cells of a pole search, along Re s and Im s
TRUST_THRESHOLD = 3e-5  # last-shell level that bounds the trusted region
WINDING_TOL = 0.05  # allowed distance of a cell winding from an integer
SPREAD_TOL = 0.04  # allowed |sum (z - centroid)^2| of a cell's zeros / diagonal^2
NOISE_SAFETY = 3.0
MAX_HALVINGS = 44  # refinement depth cap of a contour segment
SAMPLES = 12  # segments per cell side of the winding and Simpson contours
NOISE_PROBE = 13  # points per side of the rectangle gate's noise probe
POLISH_STEPS, POLISH_TOL = 80, 1e-14  # Newton polish: step cap, last step


@dataclass(frozen=True)
class Pole:
    s: complex
    multiplicity: int
    residual: float
    trust_margin: float


def _guarded_values(exp, z, k=0):
    """D and its first ``k`` derivatives at the points ``z``, as the
    rows of a ``(k + 1, z.size)`` array.  Raises at the first point where
    D or the truncation noise (last-shell magnitude) is not finite, or D
    is indistinguishable from the noise: a contour through such a region
    can wind around noise artifacts instead of genuine zeros, so the
    search refuses to continue."""
    *rows, noise = exp.rows(z, k, noise=True)
    f, finite = rows[0], np.isfinite(rows[0]) & np.isfinite(noise)
    bad = np.flatnonzero(~finite | (np.abs(f) < NOISE_SAFETY * noise))
    if bad.size:
        i = bad[0]
        at = f"at s = {complex(z[i]):.6g}"
        if not finite[i]:
            raise TrustRegionError(
                f"D = {complex(f[i]):.6g} and its truncation noise {noise[i]:.2e} {at} "
                "are not both finite"
            )
        raise TrustRegionError(
            f"|D| = {abs(f[i]):.2e} {at} is below {NOISE_SAFETY} x "
            f"the truncation noise {noise[i]:.2e}; shift the grid or reduce the depth"
        )
    return np.array(rows)


def _refine(exp, za, zb, fa, fb, max_step):
    """Halve the segments [za, zb] level by level until the phase of D
    changes by at most ``max_step`` along every piece, or the piece is
    ``MAX_HALVINGS`` levels deep.  ``fa`` and ``fb`` hold the end values
    as :func:`_guarded_values` returns them, D and possibly D'; each
    level's midpoints are one guarded evaluation of the same rows.
    Returns the finished pieces as arrays (segment index, za, zb, fa, fb,
    phase step)."""
    seg = np.arange(za.size)
    pieces = []
    for depth in range(MAX_HALVINGS + 1):
        step = np.angle(fb[0] / fa[0])
        done = (np.abs(step) <= max_step) | (depth == MAX_HALVINGS)
        pieces.append((seg[done], za[done], zb[done], fa[:, done], fb[:, done], step[done]))
        if done.all():
            break
        seg, za, zb, fa, fb = (a[..., ~done] for a in (seg, za, zb, fa, fb))
        mid = 0.5 * (za + zb)
        fm = _guarded_values(exp, mid, len(fa) - 1)
        seg = np.concatenate((seg, seg))
        za, zb = np.concatenate((za, mid)), np.concatenate((mid, zb))
        fa, fb = np.concatenate((fa, fm), axis=1), np.concatenate((fm, fb), axis=1)
    return [np.concatenate(column, axis=-1) for column in zip(*pieces)]


def _simpson_sum(exp, za, zb, fa, fb):
    """Simpson rule for int s D'/D ds and int s^2 D'/D ds on each piece.
    D and D' at the piece ends come with the guarded values, D and D' at
    the midpoints are one batch; both moments weight the same D'/D."""
    mid = 0.5 * (za + zb)
    f_mid, d_mid = exp.rows(mid, 1)
    ga = za * fa[1] / fa[0]
    gb = zb * fb[1] / fb[0]
    gm = mid * d_mid / f_mid
    first = (zb - za) * (ga + 4.0 * gm + gb) / 6.0
    second = (zb - za) * (za * ga + 4.0 * mid * gm + zb * gb) / 6.0
    return first, second


def _grid_contours(exp, xs, ys, samples, max_step, moments):
    """Counterclockwise contour sums around every cell of the grid with
    lines ``xs`` x ``ys``, as a list of ``(nx, ny)`` arrays: with
    ``moments`` the two :func:`_simpson_sum` moments, else the phase
    change of D and the first moment taken by parts, int s D'/D ds =
    int s d(log D), by the midpoint rule: each piece adds
    (za + zb)/2 (log|D(zb)/D(za)| + i step).  A piece's phase step is
    local, so that sum needs no branch of log and no new value of D.

    Each cell side is cut into ``samples`` segments.  A side shared by
    two cells is one run of segments, added to one cell and subtracted
    from the other, and D (with D' for the moments) is evaluated once,
    with the noise guard, at every distinct sample on the grid lines.
    Segments are then refined by :func:`_refine` and each finished piece
    contributes in the +x or +y direction of its grid line.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    t = np.linspace(0.0, 1.0, samples + 1)[:-1]
    fine_x = np.append((xs[:-1, None] + np.diff(xs)[:, None] * t).ravel(), xs[-1])
    fine_y = np.append((ys[:-1, None] + np.diff(ys)[:, None] * t).ravel(), ys[-1])
    col = np.arange(fine_x.size) % samples == 0  # fine x on a vertical grid line
    row = np.arange(fine_y.size) % samples == 0  # fine y on a horizontal grid line
    z = fine_x[:, None] + 1j * fine_y[None, :]
    on_line = col[:, None] | row[None, :]
    values = _guarded_values(exp, z[on_line], int(moments))
    k = len(values)
    f = np.zeros((k,) + z.shape, dtype=complex)
    f[:, on_line] = values
    # segments along x on the horizontal lines, then along y on the vertical ones
    za = np.concatenate((z[:-1, row].ravel(), z[col, :-1].ravel()))
    zb = np.concatenate((z[1:, row].ravel(), z[col, 1:].ravel()))
    fa = np.concatenate((f[:, :-1, row].reshape(k, -1), f[:, col, :-1].reshape(k, -1)), axis=1)
    fb = np.concatenate((f[:, 1:, row].reshape(k, -1), f[:, col, 1:].reshape(k, -1)), axis=1)
    seg, pa, pb, pfa, pfb, step = _refine(exp, za, zb, fa, fb, max_step)
    if moments:
        contribs = _simpson_sum(exp, pa, pb, pfa, pfb)
    else:
        log_step = np.log(np.abs(pfb[0] / pfa[0])) + 1j * step
        contribs = (step, (0.5 * pa + 0.5 * pb) * log_step)
    n_h = nx * samples * (ny + 1)
    sums = []
    for contrib in contribs:
        total = np.zeros(za.size, dtype=contrib.dtype)
        np.add.at(total, seg, contrib)
        h = total[:n_h].reshape(nx, samples, ny + 1).sum(axis=1)
        v = total[n_h:].reshape(nx + 1, ny, samples).sum(axis=2)
        sums.append(h[:, :-1] + v[1:, :] - h[:, 1:] - v[:-1, :])
    return sums


def _winding_pass(exp, xs, ys, samples=SAMPLES):
    """Winding numbers of D around the cells of a grid and their first
    argument-principle moments by parts, two ``(nx, ny)`` arrays; phase
    steps are refined down to pi/2.  Where the winding is 1 the moment is
    the zero's position to about 1e-2 of the cell diagonal or better,
    close enough to start Newton."""
    phase, first = _grid_contours(exp, xs, ys, samples, 0.5 * np.pi, moments=False)
    return phase / (2.0 * np.pi), first / (2.0j * np.pi)


def _cell_winding(exp, re0, re1, im0, im1, samples=SAMPLES):
    return float(_winding_pass(exp, (re0, re1), (im0, im1), samples)[0][0, 0])


def _cell_moments(exp, re0, re1, im0, im1):
    """Sums of the zeros inside the cell and of their squares, counted
    with multiplicity (first and second moments by the argument
    principle, Simpson pieces refined down to a phase step of 0.1)."""
    sums = _grid_contours(exp, (re0, re1), (im0, im1), SAMPLES, 0.1, moments=True)
    return tuple(complex(total[0, 0] / (2.0j * np.pi)) for total in sums)


def _polish_zero(exp, s0):
    """Newton polish of a simple zero."""
    s = complex(s0)
    for _ in range(POLISH_STEPS):
        f, df = exp.rows(s, 1)
        if df == 0:
            break
        step = f / df
        s = s - step
        if abs(step) < POLISH_TOL:
            break
    return s


def _cell_zero(exp, re0, re1, im0, im1, w: int, seed):
    """Position of the ``w`` zeros inside a cell (Delves and Lyness).  A
    simple zero is Newton-polished from ``seed``, the first moment the
    winding pass took by parts.  For w >= 2 the position is their
    centroid, the first argument-principle moment over w, from a Simpson
    contour (:func:`_cell_moments`).  A centroid of zeros in a rectangle
    lies in that rectangle, so a point outside the closed cell means the
    winding or the moment is wrong and raises ``TrustRegionError``.

    For w >= 2 the zeros are reported as one multiple zero, so they must
    form one cluster: the second moment less w times the squared
    centroid, sum (z - centroid)^2, must stay below ``SPREAD_TOL`` times
    the squared cell diagonal, else ``TrustRegionError``."""
    if w == 1:
        s = _polish_zero(exp, seed)
    else:
        first, second = _cell_moments(exp, re0, re1, im0, im1)
        s = first / w
    if not (re0 <= s.real <= re1 and im0 <= s.imag <= im1):
        raise TrustRegionError(
            f"the {w} zero(s) of cell [{re0:.6g},{re1:.6g}]x[{im0:.6g},{im1:.6g}] "
            f"place at {complex(s):.6g}, outside the cell; the winding or the moment is "
            "wrong, use a finer grid"
        )
    if w > 1:
        spread = abs(second - w * s * s) / ((re1 - re0) ** 2 + (im1 - im0) ** 2)
        if not spread <= SPREAD_TOL:
            raise TrustRegionError(
                f"the {w} zeros of cell [{re0:.6g},{re1:.6g}]x[{im0:.6g},{im1:.6g}] "
                f"spread over {spread:.2e} of its squared diagonal (limit "
                f"{SPREAD_TOL}); they are not one multiple zero, use a finer grid"
            )
    return s


def _rect_noise(exp, re0, re1, im0, im1):
    """Worst last-shell magnitude sampled across the rectangle."""
    xs = np.linspace(re0, re1, NOISE_PROBE)
    ys = np.linspace(im0, im1, NOISE_PROBE)
    pts = (xs[:, None] + 1j * ys[None, :]).ravel()
    return float(np.max(np.abs(exp.last_shell_value(pts))))


def _grid_zeros(exp, xs, ys):
    """The zeros of D in the cells of the grid with lines ``xs`` x
    ``ys``, as :class:`Pole` objects in cell order.  The winding number
    of D around each cell must come out integer to ``WINDING_TOL``, and
    each cell of winding w >= 1 reports one zero of multiplicity w at
    :func:`_cell_zero`'s point, which must lie in the closed cell and,
    for w >= 2, stand for one cluster of zeros; else
    ``TrustRegionError``."""
    windings, seeds = _winding_pass(exp, xs, ys)
    poles = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            w = windings[i, j]
            w_int = int(round(w))
            if abs(w - w_int) > WINDING_TOL:
                raise TrustRegionError(
                    f"non-integer winding {w:.3f} in cell "
                    f"[{xs[i]:.6g},{xs[i+1]:.6g}]x[{ys[j]:.6g},{ys[j+1]:.6g}]; "
                    "rectangle too deep for this truncation order"
                )
            if w_int < 1:
                continue
            s_star = _cell_zero(exp, xs[i], xs[i + 1], ys[j], ys[j + 1], w_int, seeds[i, j])
            poles.append(
                Pole(
                    s=s_star,
                    multiplicity=w_int,
                    residual=abs(exp.rows(s_star)[0]),
                    trust_margin=float(s_star.real - exp.trust_floor),
                )
            )
    return poles


def find_poles(exp, rect, grid=GRID):
    """Zeros of the evaluator ``exp``'s D inside a rectangle.

    The rectangle must be finite and non-empty (else ``DomainError``)
    and lie in the trusted region: its left edge right of the trust
    floor, and the sampled last-shell contribution below
    ``TRUST_THRESHOLD`` across the whole rectangle (truncation
    noise grows upward as well as leftward, and phase slips in noisy
    territory can fake integer windings).  The rectangle is cut into
    grid cells, searched by :func:`_grid_zeros` with every contour sample
    keeping |D| above the local noise.  The zeros are sorted by
    (Im s, Re s).
    """
    re0, re1, im0, im1 = map(float, rect)
    if not (np.isfinite([re0, re1, im0, im1]).all() and re0 < re1 and im0 < im1):
        raise DomainError(f"rectangle {[re0, re1, im0, im1]} is not finite and non-empty")
    if np.isnan(exp.trust_floor) or re0 < exp.trust_floor - 1e-12:
        raise TrustRegionError(
            f"rectangle reaches Re s = {re0}, left of the trust floor "
            f"{exp.trust_floor:.4f} for N={exp.N}"
        )
    noise = _rect_noise(exp, re0, re1, im0, im1)
    if noise > TRUST_THRESHOLD:
        raise TrustRegionError(
            f"last-shell contribution reaches {noise:.2e} on the rectangle, "
            f"above the trusted level {TRUST_THRESHOLD:.2e}; "
            "rectangle too deep for this truncation order"
        )
    nx, ny = grid
    xs = np.linspace(re0, re1, nx + 1)
    ys = np.linspace(im0, im1, ny + 1)
    return sorted(_grid_zeros(exp, xs, ys), key=lambda p: (p.s.imag, p.s.real))


def track_zero(exp, s0, multiplicity: int, radius: float = 0.1):
    """Re-locate a known zero cluster on another truncation.

    Searches the one cell of a box of the given radius centered at
    ``s0`` by :func:`_grid_zeros`, the rule :func:`find_poles` uses, and
    refuses (``TrustRegionError``) a box that holds no zero.  Unlike
    :func:`find_poles` this skips the rectangle-level gate: it is meant
    for comparing one established zero across truncation orders, and the
    contour noise guard still protects every sample.  Returns (winding,
    position).
    """
    box = _grid_zeros(
        exp, (s0.real - radius, s0.real + radius), (s0.imag - radius, s0.imag + radius)
    )
    if not box:
        raise TrustRegionError(
            f"tracking box at {complex(s0):.6g} holds no zero, expected about {multiplicity}"
        )
    return box[0].multiplicity, box[0].s


def real_zero(exp, lo: float, hi: float, tol=1e-13) -> float:
    """Real zero of D by bisection; D is real on the real axis."""
    flo = exp.rows(lo)[0].real
    fhi = exp.rows(hi)[0].real
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise TrustRegionError(f"no sign change of D on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = exp.rows(mid)[0].real
        if fm == 0.0 or hi - lo < tol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)
