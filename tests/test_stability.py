import numpy as np
import pytest
from scipy.integrate import quad

from billzeta.errors import DomainError, HyperbolicityError
from billzeta.orbits import solve_orbit, solve_orbits
from billzeta.stability import (
    _curvature_sweeps,
    _kicks,
    det_one_minus_poincare,
    expanding_eigenvalue,
    expansion_factor,
    monodromy,
    stability_record,
    stability_records,
    unstable_curvatures,
    wavefront_green,
    weight_tables,
)
from tests.conftest import records


def test_two_cycle_curvature_and_factor(config):
    orbit = solve_orbit(config, (1, 2))
    kappa = unstable_curvatures(config, orbit)
    # fixed point of k -> k/(1+4k) + 2 on the symmetric bouncing orbit
    assert np.allclose(kappa, 1.0 + np.sqrt(6.0) / 2.0, atol=1e-12)
    factors, lam_abs = expansion_factor(orbit, kappa)
    per_bounce = 1.0 + 4.0 * (1.0 + np.sqrt(6.0) / 2.0)
    assert np.allclose(factors, per_bounce, atol=1e-10)
    assert abs(np.sqrt(lam_abs) - per_bounce) < 1e-10


def test_two_cycle_monodromy_trace_is_98(config):
    orbit = solve_orbit(config, (1, 2))
    rec = stability_record(config, orbit)
    assert abs(rec.trace - 98.0) < 1e-10
    assert rec.sign == 1
    assert abs(rec.lam - rec.lam_abs) == 0.0


def test_odd_cycles_have_negative_eigenvalue(config):
    orbit = solve_orbit(config, (1, 2, 3))
    rec = stability_record(config, orbit)
    assert rec.sign == -1
    assert rec.trace < -2.0
    assert rec.lam < 0.0


def test_dual_routes_agree(db8, config):
    for rec in records(db8):
        orbit = solve_orbit(config, rec.word)
        kappa = unstable_curvatures(config, orbit)
        _, lam_curv = expansion_factor(orbit, kappa)
        lam_mono = expanding_eigenvalue(monodromy(config, orbit))
        assert abs(lam_curv - abs(lam_mono)) <= 1e-9 * abs(lam_mono)


def test_poincare_determinant_matches_matrix(config):
    for word in [(1, 2), (1, 2, 3), (1, 2, 1, 3)]:
        orbit = solve_orbit(config, word)
        rec = stability_record(config, orbit)
        M = monodromy(config, orbit)
        for r in range(1, 6):
            # det(1 - M^r) = 2 - tr(M^r) for a unit-determinant section map;
            # the trace route stays stable while np.linalg.det cancels
            # catastrophically once the entries reach ~lam^r
            exact = abs(2.0 - np.trace(np.linalg.matrix_power(M, r)))
            assert abs(det_one_minus_poincare(rec.lam, r) - exact) <= 1e-9 * exact
        for r in (1, 2):
            direct = abs(np.linalg.det(np.eye(2) - np.linalg.matrix_power(M, r)))
            assert abs(det_one_minus_poincare(rec.lam, r) - direct) <= 1e-6 * direct


def test_weight_tables_consistent(config):
    orbit = solve_orbit(config, (1, 2))
    rec = stability_record(config, orbit)
    tables = weight_tables(rec, 4)
    lam = rec.lam
    for i, r in enumerate(tables["r"]):
        det = abs(2.0 - lam**r - lam ** (-r))
        assert abs(tables["det"][i] - det) < 1e-9 * det
        assert abs(tables["half"][i] - rec.T / np.sqrt(det)) < 1e-12 * rec.T
        assert abs(tables["full"][i] - rec.T / det) < 1e-12 * rec.T
        assert tables["unstable"][i] <= tables["full"][i] + 1e-12


def test_elliptic_matrix_rejected():
    c, s = np.cos(0.4), np.sin(0.4)
    with pytest.raises(HyperbolicityError):
        expanding_eigenvalue(np.array([[c, -s], [s, c]]))


def test_green_integral_reproduces_log_factor(config):
    orbit = solve_orbit(config, (1, 2, 3))
    kappa = unstable_curvatures(config, orbit)
    for k, f in zip(kappa, orbit.flights):
        integral, _ = quad(lambda y: wavefront_green(k, y), 0.0, f, epsabs=1e-14, epsrel=1e-13)
        assert abs(2.0 * integral + np.log1p(f * k)) < 1e-12


def test_curvature_rows_do_not_depend_on_their_batch(config):
    from billzeta.symbolic import enumerate_cycles

    words = [w for w in enumerate_cycles(3, 7) if len(w) == 7]
    solved = solve_orbits(config, words)
    labels, flights, cos_incidence = solved["labels"], solved["flights"], solved["cos_incidence"]
    kicks, kb = _kicks(config, labels, cos_incidence)
    settled, _, _ = _curvature_sweeps(flights, kicks, kb)
    # rows from the boundary curvatures, from just off the periodic state
    # and from the periodic state itself settle after 3, 2 and 1 sweeps
    starts = (kb, settled + 1e-12, settled)
    kappa0 = np.stack(starts, axis=1).reshape(-1, kb.shape[1])
    f, k = (np.repeat(a, len(starts), axis=0) for a in (flights, kicks))
    kappa, sweeps, ok = _curvature_sweeps(f, k, kappa0)
    assert ok.all() and set(sweeps.tolist()) == {1, 2, 3}
    for i in range(len(kappa0)):
        alone, alone_sweeps, _ = _curvature_sweeps(f[i : i + 1], k[i : i + 1], kappa0[i : i + 1])
        assert np.array_equal(kappa[i], alone[0])
        assert sweeps[i] == alone_sweeps[0]
    # every start reaches the same periodic state
    spread = np.ptp(kappa.reshape(len(words), len(starts), -1), axis=1)
    assert spread.max() < 1e-12

    batch_kappa, batch_lam = stability_records(config, labels, flights, cos_incidence)
    for i, word in enumerate(words):
        alone = stability_record(config, solve_orbit(config, word))
        assert np.array_equal(batch_kappa[i], alone.kappa)
        assert np.array_equal(1.0 + flights[i] * batch_kappa[i], alone.factors)
        assert (abs(batch_lam[i]), np.sign(batch_lam[i])) == (alone.lam_abs, alone.sign)


def test_stability_batch_of_mixed_lengths_or_no_orbits_is_domain_error(config):
    two, three = solve_orbit(config, (1, 2)), solve_orbit(config, (1, 2, 3))
    empty = np.empty((0, 2))
    for labels, flights, cos_incidence in (
        ([two.word], [three.flights], [two.cos_incidence]),
        ([two.word], [two.flights], [three.cos_incidence]),
        ([three.word], [two.flights], [two.cos_incidence]),
        (two.word, two.flights, two.cos_incidence),
        (empty.astype(int), empty, empty),
    ):
        with pytest.raises(DomainError):
            stability_records(config, labels, flights, cos_incidence)
