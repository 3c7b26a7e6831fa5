import re

import numpy as np
import pytest

from billzeta.errors import BilliardError, DomainError, SolverError
from billzeta.orbits import (
    SOLVER_TOL,
    _positive_definite,
    default_angles,
    orbit_with_repetition,
    solve_orbit,
    solve_orbits,
)
from billzeta.symbolic import enumerate_cycles, is_cyclically_admissible


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
    for rec in db8.records:
        assert rec.residual < 1e-12
        assert rec.shadow_margin > 0.5
        assert abs(np.sum(rec.flights) - rec.T) < 1e-12
        assert rec.T >= rec.n * 4.0 - 1e-9


def test_bad_words_rejected(config):
    for word in [(1, 1), (1,), (0, 1), (1, 4), (1, 2, 2, 1)]:
        with pytest.raises(BilliardError):
            solve_orbit(config, word)


def test_repetition_length_data(config):
    orbit = solve_orbit(config, (1, 2, 3))
    tau, tau_sharp, bounces = orbit_with_repetition(orbit, 3)
    assert abs(tau - 3.0 * orbit.T) < 1e-12
    assert tau_sharp == orbit.T
    assert bounces == 9
    with pytest.raises(BilliardError):
        orbit_with_repetition(orbit, 0)


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
    from billzeta.orbits import _disks, _gradient, _hessian, _length, _newton

    words = [w for w in enumerate_cycles(3, 6) if len(w) == 6]
    cx, cy, rad = _disks(config, words)
    start = np.array([default_angles(config, w) for w in words])
    solved, _ = _newton(cx, cy, rad, start)
    near = solved + 1e-7
    far = start + 2.0

    def min_eig(theta):
        return np.linalg.eigvalsh(_hessian(cx, cy, rad, theta))[:, 0]

    def residual(theta):
        return np.abs(_gradient(cx, cy, rad, theta)).max(axis=1)

    # three branches: near rows take the full Newton step, default starts
    # the halved Newton step, far starts (indefinite Hessian) the halved -g
    assert np.all(min_eig(near) > 0.0) and np.all(residual(near) < 1e-6)
    assert np.all(min_eig(start) > 0.0) and np.all(residual(start) > 1e-6)
    assert np.all(min_eig(far) <= 0.0)

    groups = (far, near, start)
    theta0 = np.stack(groups, axis=1).reshape(-1, 6)
    bx, by, brad = (np.repeat(a, len(groups), axis=0) for a in (cx, cy, rad))
    theta, res = _newton(bx, by, brad, theta0)
    for i in range(len(theta0)):
        alone, alone_res = _newton(bx[i : i + 1], by[i : i + 1], brad[i : i + 1],
                                   theta0[i : i + 1])
        assert np.array_equal(theta[i], alone[0])
        assert res[i] == alone_res[0]
    assert res.max() <= SOLVER_TOL
    # every start reaches the same orbit
    lengths = _length(bx, by, brad, theta).reshape(-1, len(groups))
    assert np.ptp(lengths, axis=1).max() < 1e-12


def test_batch_raises_for_the_first_row_left_above_tolerance(config):
    words = [w for w in enumerate_cycles(3, 6) if len(w) == 6]
    with pytest.raises(SolverError) as info:
        solve_orbits(config, words, max_iter=1)
    assert str(words[0]) in str(info.value)
    assert info.value.residual > SOLVER_TOL
    # a start that is already solved passes; only the stalled row is named
    solved = solve_orbits(config, words)
    start = np.array([orbit.angles for orbit in solved])
    start[3] = default_angles(config, words[3])
    with pytest.raises(SolverError, match=re.escape(str(words[3]))):
        solve_orbits(config, words, theta0=start, max_iter=1)


def test_batch_names_the_first_bad_word(config):
    good = [w for w in enumerate_cycles(3, 6) if len(w) == 6]
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


def test_batch_of_mixed_lengths_or_no_words_is_domain_error(config):
    for words in ([(1, 2), (1, 2, 3)], []):
        with pytest.raises(DomainError):
            solve_orbits(config, words)
    with pytest.raises(DomainError):
        solve_orbits(config, [(1, 2), (1, 3)], theta0=np.zeros((1, 2)))


def test_positive_definite_mask_matches_eigvalsh():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(40, 5, 5)))
    eigs = rng.uniform(0.01, 2.0, size=(40, 5))
    eigs[::3, 0] = -0.5  # indefinite
    H = q @ (eigs[..., None] * np.swapaxes(q, 1, 2))
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    mixed = _positive_definite(H)
    assert mixed.dtype == bool and 0 < mixed.sum() < len(H)
    assert np.array_equal(mixed, np.linalg.eigvalsh(H)[:, 0] > 0.0)
    definite = H[mixed]
    assert _positive_definite(definite).all()
    assert (np.linalg.eigvalsh(definite)[:, 0] > 0.0).all()
