import re
import warnings

import numpy as np
import pytest

from billzeta import orbits
from billzeta.database import build_database
from billzeta.errors import BilliardError, DomainError, SolverError
from billzeta.geometry import Configuration, Disk
from billzeta.orbits import (
    MAX_ITER,
    SOLVER_TOL,
    _cyclic_solve,
    _damped_step,
    _derivatives,
    _disks,
    _neighbours,
    _newton,
    default_angles,
    solve_orbit,
    solve_orbits,
)
from billzeta.symbolic import is_cyclically_admissible
from tests.conftest import cycles, equilateral_config, records, unequal_four_disks


def dense(d, e):
    """The ``(M, n, n)`` cyclic tridiagonal matrices with diagonal ``d``
    and ``H[i, i+1 mod n] = e[:, i]``; for n = 2 both off-diagonal terms
    add up on ``H[0, 1]``."""
    m, n = d.shape
    r = np.arange(n)
    nxt = (r + 1) % n
    H = np.zeros((m, n, n))
    H[:, r, r] = d
    H[:, r, nxt] += e
    H[:, nxt, r] += e
    return H


def full_links(theta):
    """The links of rows that all have as many bounces as ``theta`` has
    columns: their neighbour indices, and no padding cells."""
    m, width = theta.shape
    return _neighbours(np.full(m, width), width), None


def first_bad_word_message(config, words):
    """Message of the word-at-a-time check: the first word that is too
    short, uses a label outside 1..r, or repeats a label cyclically."""
    for word in words:
        word = tuple(int(s) for s in word)
        if len(word) < 2:
            return f"itinerary {word} is too short"
        if any(s < 1 or s > config.r for s in word):
            return f"itinerary {word} uses labels outside 1..{config.r}"
        if not is_cyclically_admissible(word):
            return f"itinerary {word} repeats a label consecutively"
    return None


def test_two_cycle_closed_form(config):
    orbit = solve_orbit(config, (1, 2))
    assert abs(orbit.T - 8.0) < 1e-12
    assert orbit.residual < 1e-12
    assert np.allclose(orbit.flights, [4.0, 4.0], atol=1e-12)
    # head-on bounce
    assert np.allclose(orbit.cos_incidence, [1.0, 1.0], atol=1e-12)
    assert orbit.shadow_margin > 0.0


def test_three_cycle_closed_form(config):
    orbit = solve_orbit(config, (1, 2, 3))
    assert abs(orbit.T - (18.0 - 3.0 * np.sqrt(3.0))) < 1e-10
    assert np.ptp(orbit.flights) < 1e-12
    # incidence angle pi/6 by symmetry
    assert np.allclose(orbit.cos_incidence, np.sqrt(3.0) / 2.0, atol=1e-12)


def test_time_reversal_same_period(config):
    a = solve_orbit(config, (1, 2, 3))
    b = solve_orbit(config, (1, 3, 2))
    assert abs(a.T - b.T) < 1e-12


def test_all_short_cycles_converge(db8):
    for rec in records(db8):
        assert rec.residual < 1e-12
        assert rec.shadow_margin > 0.5
        assert abs(np.sum(rec.flights) - rec.T) < 1e-12
        assert rec.T >= rec.n * 4.0 - 1e-9


def test_bad_words_rejected(config):
    for word in [(1, 1), (1,), (0, 1), (1, 4), (1, 2, 2, 1)]:
        with pytest.raises(BilliardError):
            solve_orbit(config, word)


def test_solver_is_deterministic(config):
    a = solve_orbit(config, (1, 2, 1, 3, 2, 3))
    b = solve_orbit(config, (1, 2, 1, 3, 2, 3))
    assert np.array_equal(a.angles, b.angles)


def test_default_angles_point_toward_next_disk(config):
    word = (1, 2, 3)
    theta = default_angles(config, word)
    assert theta.shape == (3,)
    assert np.all(np.isfinite(theta))


def test_newton_rows_do_not_depend_on_their_batch(config):
    words = cycles(3, 6, 6)
    cx, cy, rad = _disks(config, words)
    start = np.array([default_angles(config, w) for w in words])
    solved, _ = _newton(cx, cy, rad, start, full_links(start), MAX_ITER)
    near = solved + 1e-7
    far = start + 2.0

    def min_eig(theta):
        _, _, d, e = _derivatives(cx, cy, rad, theta, full_links(theta))
        return np.linalg.eigvalsh(dense(d, e))[:, 0]

    def residual(theta):
        return np.abs(_derivatives(cx, cy, rad, theta, full_links(theta))[1]).max(axis=1)

    # three branches: near rows take the full Newton step, default starts
    # the halved Newton step, far starts (indefinite Hessian) the halved -g
    assert np.all(min_eig(near) > 0.0) and np.all(residual(near) < 1e-6)
    assert np.all(min_eig(start) > 0.0) and np.all(residual(start) > 1e-6)
    assert np.all(min_eig(far) <= 0.0)

    groups = (far, near, start)
    theta0 = np.stack(groups, axis=1).reshape(-1, 6)
    bx, by, brad = (np.repeat(a, len(groups), axis=0) for a in (cx, cy, rad))
    theta, res = _newton(bx, by, brad, theta0, full_links(theta0), MAX_ITER)
    for i in range(len(theta0)):
        one = theta0[i : i + 1]
        alone, alone_res = _newton(bx[i : i + 1], by[i : i + 1], brad[i : i + 1], one,
                                   full_links(one), MAX_ITER)
        assert np.array_equal(theta[i], alone[0])
        assert res[i] == alone_res[0]
    assert res.max() <= SOLVER_TOL
    # every start reaches the same orbit
    lengths = _derivatives(bx, by, brad, theta, full_links(theta))[0].reshape(-1, len(groups))
    assert np.ptp(lengths, axis=1).max() < 1e-12

    # a step returns the length, gradient and Hessian bands of the angles
    # it returns, bit for bit, in each branch and for a row that does not
    # move: on two disks on the x axis, the 6-bounce orbit turned to the
    # far sides is a maximum of the length whose gradient is at rounding
    # level, so no trial along -g decreases the length
    two = Configuration((Disk((0.0, 0.0), 1.0), Disk((6.0, 0.0), 1.0)))
    sx, sy, srad = _disks(two, [(1, 2, 1, 2, 1, 2)])
    disks = [np.concatenate(a) for a in ((bx, sx), (by, sy), (brad, srad))]
    theta0 = np.concatenate((theta0, default_angles(two, (1, 2, 1, 2, 1, 2))[None] + np.pi))
    links = full_links(theta0)
    local = _derivatives(*disks, theta0, links)
    theta, values, moved = _damped_step(*disks, theta0, local, np.abs(local[1]).max(axis=1),
                                        links, np.ones(len(theta0), dtype=bool))
    assert moved[:-1].all() and not moved[-1]
    assert np.array_equal(theta[-1], theta0[-1])
    for a, b in zip(values, _derivatives(*disks, theta, links)):
        assert np.array_equal(a, b)

    # one padded batch of the rows above, which converge after different
    # numbers of steps, the fixture's (1, 2) from its default start, which
    # is converged already, and that maximum turned by about 1e-10, whose
    # residual is above SOLVER_TOL but along which no trial decreases the
    # length: each row is its lone solve, and the last two keep their start
    turned = theta0[-1] + 1e-10 * np.array([1.0, -2.0, 3.0, 1.0, -1.0, 2.0])
    pair = np.pad(default_angles(config, (1, 2)), (0, 4))
    mixed0 = np.concatenate((theta0[:-1], pair[None], turned[None]))
    n = np.array([6] * (len(mixed0) - 2) + [2, 6])
    pad = ~(np.arange(6) < n[:, None])
    mx, my, mrad = (np.concatenate(a) for a in zip(
        (bx, by, brad), _disks(config, [(1, 2, 0, 0, 0, 0)]), (sx, sy, srad)
    ))
    theta, res = _newton(mx, my, mrad, mixed0, (_neighbours(n, 6), pad), MAX_ITER)
    for i, k in enumerate(n):
        one = mixed0[i : i + 1, :k]
        alone, alone_res = _newton(mx[i : i + 1, :k], my[i : i + 1, :k], mrad[i : i + 1, :k],
                                   one, full_links(one), MAX_ITER)
        assert np.array_equal(theta[i, :k], alone[0]) and res[i] == alone_res[0]
    assert np.array_equal(theta[-2:], mixed0[-2:])
    assert res[-2] <= SOLVER_TOL < res[-1]


def test_batch_raises_for_the_first_row_left_above_tolerance(config):
    words = cycles(3, 6, 6)
    with pytest.raises(SolverError) as info:
        solve_orbits(config, words, max_iter=1)
    assert str(words[0]) in str(info.value)
    assert info.value.residual > SOLVER_TOL
    # a start that is already solved passes; only the stalled row is named
    solved = solve_orbits(config, words)
    start = solved["angles"].copy()
    start[3] = default_angles(config, words[3])
    with pytest.raises(SolverError, match=re.escape(str(words[3]))):
        solve_orbits(config, words, theta0=start, max_iter=1)


def test_batch_names_the_first_bad_word(config):
    good = cycles(3, 6, 6)
    batches = [
        good[:5] + [(1, 2, 3, 1, 2, 4)] + good[5:] + [(1, 1, 2, 3, 1, 2)],
        good[:3] + [(1, 2, 3, 1, 2, 1), (0, 2, 3, 1, 2, 3)],
        [(1, 2), (1,), (1, 2, 3)],
        [(1, 2, 3), (1, 2), (3, 3)],
        [np.array([2, 3, 1, 2, 3, 3])],
    ]
    for words in batches:
        message = first_bad_word_message(config, words)
        with pytest.raises(DomainError, match=re.escape(message)):
            solve_orbits(config, words)


def test_crossing_names_the_label_of_the_crossed_disk():
    # disk 3 sits just above the line from disk 1 to disk 2; the clearance
    # checks each flight against the disks it does not touch only, so the
    # message must map that gather back to the disk's label
    config = Configuration(tuple(
        Disk(center, 1.0) for center in ((0.0, 0.0), (10.0, 0.0), (5.0, 0.3), (5.0, 8.0))
    ))
    with pytest.raises(DomainError, match=re.escape("segment 0 of orbit (1, 2) crosses disk 3")):
        solve_orbits(config, [(1, 2), (2, 4)])
    with pytest.raises(DomainError,
                       match=re.escape("segment 2 of orbit (1, 4, 2) crosses disk 3")):
        solve_orbits(config, [(1, 4, 2)])
    # in a padded row the segment is counted within the row's own word
    for words in ([(1, 4, 2), (3, 4, 1, 4)], [(3, 4, 1, 4), (1, 4, 2)]):
        with pytest.raises(DomainError,
                           match=re.escape("segment 2 of orbit (1, 4, 2) crosses disk 3")):
            solve_orbits(config, words)


def test_padding_of_the_start_is_ignored(config):
    words = [(1, 2), (1, 2, 3), (1, 2, 1, 3, 2, 3)]
    start = np.zeros((3, 6))
    for i, word in enumerate(words):
        start[i, : len(word)] = default_angles(config, word) + 0.01
    noisy = start.copy()
    noisy[0, 2:], noisy[1, 3:] = np.nan, 1e300
    with np.errstate(all="raise"):
        clean, padded = (solve_orbits(config, words, theta0=a) for a in (start, noisy))
        for name, column in clean.items():
            assert np.array_equal(column, padded[name]), name


def test_two_disks_leave_no_disk_to_clear():
    config = Configuration((Disk((0.0, 0.0), 1.0), Disk((6.0, 0.0), 1.0)))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        orbit = solve_orbit(config, (1, 2))
    assert orbit.shadow_margin == np.inf
    assert orbit.T == 8.0


def test_batch_of_no_words_or_a_misshapen_start_is_domain_error(config):
    # words of different lengths share a padded batch
    mixed = solve_orbits(config, [(1, 2), (1, 2, 3)])
    assert mixed["n"].tolist() == [2, 3]
    assert mixed["labels"].tolist() == [[1, 2, 0], [1, 2, 3]]
    for words in ([], np.empty((0, 3), dtype=int)):
        with pytest.raises(DomainError):
            solve_orbits(config, words)
    with pytest.raises(DomainError):
        solve_orbits(config, [(1, 2), (1, 3)], theta0=np.zeros((1, 2)))
    with pytest.raises(DomainError):
        solve_orbits(config, [(1, 2), (1, 2, 3)], theta0=np.zeros((2, 2)))


def test_cyclic_solve_matches_dense_linear_algebra():
    rng = np.random.default_rng(3)
    for n in range(2, 15):
        e = rng.normal(size=(60, n))
        # diagonally dominant rows are positive definite; the rest have
        # a negative diagonal entry, a small diagonal, a small last
        # diagonal entry (only the Schur complement fails) or a zero
        # first pivot
        d = np.abs(e) + np.abs(np.roll(e, 1, axis=1)) + rng.uniform(0.1, 2.0, size=(60, n))
        d[1::5, rng.integers(n)] -= 5.0
        d[2::5] = rng.uniform(0.0, 0.3, size=(12, n))
        d[3::5, -1] = 0.01
        d[4, 0] = 0.0
        H = dense(d, e)
        r = rng.normal(size=(60, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, pivots, definite = _cyclic_solve(d, e, r)
        assert np.array_equal(definite, np.linalg.eigvalsh(H)[:, 0] > 0.0)
        assert 0 < definite.sum() < len(H) and not definite[4]
        exact = np.linalg.solve(H[definite], r[definite][..., None])[..., 0]
        error = np.abs(x[definite] - exact).max(axis=1)
        assert np.all(error <= 1e-13 * np.abs(exact).max(axis=1)), n
        assert np.allclose(pivots[definite].prod(axis=1), np.linalg.det(H[definite]),
                           rtol=1e-12, atol=0.0)

    # rows of lengths 2..W in one padded batch, each with its border at
    # its own last bounce: its columns solve as the unpadded call of its
    # length does, bit for bit, and the padding reads x 0 and pivot 1
    width = 9
    n = np.arange(2, width + 1)
    cells = np.arange(width) < n[:, None]
    # diagonally dominant: every row is positive definite
    d = rng.uniform(3.0, 4.0, size=(len(n), width))
    e = np.where(cells, rng.uniform(-1.0, 1.0, size=d.shape), 0.0)
    r = np.where(cells, rng.normal(size=d.shape), 0.0)
    d[~cells] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, pivots, definite = _cyclic_solve(d, e, r, n - 1)
    assert definite.all()
    assert np.all(x[~cells] == 0.0) and np.all(pivots[~cells] == 1.0)
    for k, length in enumerate(n):
        own = (slice(k, k + 1), slice(None, length))
        alone = _cyclic_solve(d[own], e[own], r[own])
        assert np.array_equal(x[own], alone[0]) and np.array_equal(pivots[own], alone[1])
        exact = np.linalg.solve(dense(d[own], e[own])[0], r[own][0])
        assert np.abs(x[own][0] - exact).max() <= 1e-13 * np.abs(exact).max()


@pytest.mark.parametrize("make_config", [equilateral_config, unequal_four_disks])
def test_two_cycle_solves_through_the_doubled_off_diagonal(make_config):
    config = make_config()
    (x1, y1), (x2, y2) = config.centers[:2]
    a1, a2 = config.radii[:2]
    closed = 2.0 * (np.hypot(x2 - x1, y2 - y1) - a1 - a2)
    start = default_angles(config, (1, 2))
    # the default start is the orbit itself; a tilted one takes Newton
    # steps on the 2 x 2 Hessian, whose H[0, 1] holds both flights'
    # terms.  With the exact Hessian it converges in 3 steps; with one
    # of the two terms dropped it needs 13
    for theta0 in (start, start + np.array([0.3, -0.2])):
        orbit = solve_orbit(config, (1, 2), theta0=theta0, max_iter=5)
        assert abs(orbit.T - closed) <= 1e-14
        assert orbit.residual <= SOLVER_TOL


@pytest.mark.parametrize("make_config", [equilateral_config, unequal_four_disks])
def test_hill_formula_ties_the_pivots_to_the_monodromy(make_config):
    # MacKay & Meiss, Phys. Lett. A 98 (1983) 92: det H equals
    # (-1)^n (tr M - 2) times the product of the off-diagonal terms, and
    # tr M = lam + 1/lam for the signed eigenvalue
    config = make_config()
    db = build_database(config, 8)
    for n in range(3, 9):
        rows = np.flatnonzero(db.n == n)
        a, b = db.bounds[rows[0]], db.bounds[rows[-1] + 1]
        words = db.word[a:b].reshape(-1, n)
        theta = db.angles[a:b].reshape(-1, n)
        _, _, d, e = _derivatives(*_disks(config, words), theta, full_links(theta))
        _, pivots, definite = _cyclic_solve(d, e, np.zeros_like(d))
        assert definite.all()
        lam = db.lam[rows]
        hill = (-1) ** n * (lam + 1.0 / lam - 2.0) * e.prod(axis=1)
        assert np.allclose(pivots.prod(axis=1), hill, rtol=1e-12, atol=0.0), n


def test_reflection_check_names_the_first_bounce(config, monkeypatch):
    # below 0 every bounce fails the check
    monkeypatch.setattr(orbits, "REFLECTION_TOL", -1.0)
    message = re.escape("reflection law violated at bounce 0 of (1, 2)")
    with pytest.raises(SolverError, match=message) as info:
        solve_orbit(config, (1, 2))
    assert info.value.residual <= SOLVER_TOL
    with pytest.raises(SolverError, match=message):
        solve_orbits(config, [(1, 2, 3), (1, 2), (1, 3)])


def test_batch_of_several_lengths_raises_for_the_shortest_failing_length():
    # disk 3 sits just above the line from disk 1 to disk 2: (1, 2) and
    # (1, 4, 2) both cross it, (3, 4) clears every disk
    config = Configuration(tuple(
        Disk(center, 1.0) for center in ((0.0, 0.0), (10.0, 0.0), (5.0, 0.3), (5.0, 8.0))
    ))
    words = [(1, 4, 2), (1, 2), (3, 4)]
    start = np.zeros((3, 3))
    for i, word in enumerate(words):
        start[i, : len(word)] = default_angles(config, word)
    # the longer word comes first but the shorter one is named
    with pytest.raises(DomainError, match=re.escape("segment 0 of orbit (1, 2) crosses disk 3")):
        solve_orbits(config, words)
    # a stall is checked before a crossing at the same length, even in a
    # later row; a stall at a longer length comes after both
    stalled = start.copy()
    stalled[[0, 2], 0] += 0.3
    with pytest.raises(SolverError, match=re.escape("orbit solve for (3, 4) stalled")):
        solve_orbits(config, words, theta0=stalled, max_iter=0)
    stalled = start.copy()
    stalled[0, 0] += 0.3
    with pytest.raises(DomainError, match=re.escape("segment 0 of orbit (1, 2) crosses disk 3")):
        solve_orbits(config, words, theta0=stalled, max_iter=0)
    with pytest.raises(DomainError, match=re.escape("segment 2 of orbit (1, 4, 2) crosses disk 3")):
        solve_orbits(config, [words[0], words[2]])
