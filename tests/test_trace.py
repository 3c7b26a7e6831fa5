import hashlib
import math

import numpy as np
import pytest

from billzeta import cli, trace
from billzeta.contour import Pole
from billzeta.database import save_database
from billzeta.errors import DomainError, IncompleteDataError, NumericalError
from billzeta.stability import det_one_minus_poincare
from billzeta.thermo import solve_abscissa
from billzeta.trace import (
    GAMMA0,
    RHO,
    XI_STEP,
    BumpFunction,
    build_measure,
    experimental_compare,
    gauss_legendre_256,
    gaussian_weight,
    ikawa_scan,
    lemma41_search,
    pair,
    resonance_side,
    window_count,
)
from tests.conftest import record_for
from tests.oracles import fourier


@pytest.fixture(scope="module")
def bump():
    return BumpFunction()


def test_stored_rule_is_numpy_leggauss():
    x, w = gauss_legendre_256()
    want_x, want_w = np.polynomial.legendre.leggauss(256)
    # another LAPACK may move numpy's rule by an ulp; numpy 2.4.6 gave the stored bits
    np.testing.assert_array_max_ulp(x, want_x, maxulp=2)
    np.testing.assert_array_max_ulp(w, want_w, maxulp=2)
    if np.__version__ == "2.4.6":
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert np.all(np.diff(x) > 0.0) and x[128] > 0.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_bump_normalization(bump):
    assert abs(bump.value(0.5) - 1.05) < 1e-12
    assert abs(bump.value(-0.5) - 1.05) < 1e-12


def test_bump_support_and_symmetry(bump):
    assert bump.value(0.0) > bump.value(0.5) > 0.0
    for t in (2.11, -2.2, 5.0):
        assert bump.value(t) == 0.0
    grid = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(bump.value(grid), bump.value(-grid))


def test_bump_transform_is_nonnegative(bump):
    lams = np.linspace(-200.0, 200.0, 401)
    vals = fourier(bump, lams)
    assert np.all(vals >= 0.0)
    assert fourier(bump, 0.0) > 0.0


def test_bump_transform_consistency(bump):
    for lam in (0.0, 1.7, 12.0, -33.3):
        z = bump.phi_hat(lam) if hasattr(bump, "phi_hat") else None
        if z is None:
            break
        assert abs(fourier(bump, lam) - bump.scale * abs(z) ** 2) < 1e-12 * max(
            1.0, fourier(bump, lam)
        )


def test_bump_vectorization(bump):
    arr = bump.value(np.array([0.0, 0.5, 3.0]))
    assert arr.shape == (3,)
    assert np.isscalar(bump.value(0.25)) or np.ndim(bump.value(0.25)) == 0


def test_measure_kinds(db10):
    half = build_measure(db10, "half")
    dirichlet = build_measure(db10, "dirichlet")
    full = build_measure(db10, "full")
    assert half.cutoff == (db10.n_max + 1) * db10.config.d0
    assert np.all(half.weight > 0.0)
    assert np.all(full.weight > 0.0)
    assert np.all(np.abs(dirichlet.weight) == half.weight)
    for kind in ("odd", "even"):
        with pytest.raises(ValueError):
            build_measure(db10, kind)


def test_pair_short_window_exact_value(db12, bump):
    measure = build_measure(db12, "dirichlet")
    rec = record_for(db12, (1, 2))
    det = det_one_minus_poincare(rec.lam)
    expected = 3.0 * bump.value(0.0) * rec.T / np.sqrt(det)
    got = pair(measure, 8.0, 50.0)
    assert abs(got - expected) < 1e-12 * expected
    assert window_count(measure, 8.0, 50.0) == 3


def test_pair_domain_checks(db12):
    measure = build_measure(db12, "dirichlet")
    with pytest.raises(DomainError):
        pair(measure, 2.0, 10.0)
    with pytest.raises(DomainError):
        pair(measure, 10.0, 0.5)
    with pytest.raises(IncompleteDataError):
        pair(measure, 51.5, 1.2)


def test_ikawa_scan_special_sequence(db12):
    scan = ikawa_scan(db12, beta=1.0, alpha0=0.25, j_max=4)
    assert scan.gamma0_T == pytest.approx(8.0, abs=1e-12)
    assert len(scan.rows) == 4
    assert all(row[4] for row in scan.rows)
    lam12 = record_for(db12, (1, 2)).lam_abs
    expected_rate = np.log(lam12) / (2.0 * scan.gamma0_T)
    assert abs(scan.fit_c0 - expected_rate) < 0.02
    assert scan.fit_c > 0.0


def test_ikawa_scan_respects_horizon(db10):
    with pytest.raises(IncompleteDataError):
        ikawa_scan(db10, beta=1.0, alpha0=0.25, j_max=6)


def test_gaussian_weight_dual_agreement(db12):
    g = gaussian_weight(db12, 12.8, 0.1)
    assert abs(g.direct - g.quadrature) <= max(g.quad_error, 1e-8)
    assert g.direct > 0.0
    assert g.bound_holds
    assert g.lower_bound <= g.direct


def test_gaussian_weight_grid_lower_bound(db12, db_four7):
    for db in (db12, db_four7):
        for t in np.linspace(9.0, 14.0, 5):
            for sigma in (0.1, 0.3):
                g = gaussian_weight(db, float(t), sigma)
                assert g.bound_holds, (db.n_max, t, sigma)


def two_grid_quadrature(db, t, sigma):
    """(quadrature, quad_error) of :func:`gaussian_weight` by the rule it
    replaced: the integrand evaluated afresh on the trapezoid grid of
    step about XI_STEP and again on that of step about XI_STEP / 2, both
    out to the cutoff 40 sqrt(0.1 / sigma), and 40 from sigma = 0.1 up."""
    xi_max = 40.0 * np.sqrt(0.1 / min(sigma, 0.1))
    measure = build_measure(db, "half")
    sel = np.abs(measure.tau - t) < 1.0
    tau = measure.tau[sel]
    wr = measure.weight[sel] * np.atleast_1d(RHO.value(tau - t))
    n_half = int(round(xi_max / XI_STEP))
    s_max = float(np.sum(np.abs(wr)))
    tail = s_max**2 * np.sqrt(2.0 * np.pi) * math.erfc(xi_max * np.sqrt(sigma / 2.0))

    def quad(xi_grid):
        if len(tau) == 0:
            return 0.0
        S = np.exp(1j * np.outer(xi_grid, tau)) @ wr
        y = (S.real**2 + S.imag**2) * np.exp(-sigma * xi_grid**2 / 2.0)
        h = xi_grid[1] - xi_grid[0]
        return float(np.sqrt(sigma) * h * (0.5 * y[0] + np.sum(y[1:-1]) + 0.5 * y[-1]))

    g_h = quad(np.linspace(-xi_max, xi_max, 2 * n_half + 1))
    g_h2 = quad(np.linspace(-xi_max, xi_max, 4 * n_half + 1))
    error = abs(g_h - g_h2) + tail + 256.0 * np.finfo(float).eps * max(1.0, abs(g_h2))
    return g_h2, error


def test_one_grid_quadrature_equals_the_two_grid_rule(db12, db_four7):
    # t = 10.4 lies between the fixture's lengths 8.0 and 12.80: an empty window
    assert window_count(build_measure(db12, "half"), 10.4, 1.0) == 0
    for db, extra in ((db12, (10.4,)), (db_four7, ())):
        for t in (*cli.GAUSS_T_GRID, *extra):
            for sigma in (0.05, 0.1, 0.5):
                g = gaussian_weight(db, t, sigma)
                got = (float(g.quadrature).hex(), float(g.quad_error).hex())
                want = tuple(float(v).hex() for v in two_grid_quadrature(db, t, sigma))
                assert got == want, (db.n_max, t, sigma)
    empty = gaussian_weight(db12, 10.4, 0.1)
    assert float(empty.direct).hex() == float(empty.quadrature).hex() == "0x0.0p+0"


def test_spectrum_stage_on_unequal_four_disks(db_four7):
    # the three windows, the Gaussian grid and the shells of `trace` on a
    # cache that is not the fixture's (horizon 35.35)
    gauss = [gaussian_weight(db_four7, t, 0.1) for t in cli.GAUSS_T_GRID]
    assert len(gauss) == 11
    assert max(abs(g.direct - g.quadrature) for g in gauss) <= 1e-8
    assert all(g.bound_holds for g in gauss)

    scan = ikawa_scan(db_four7, beta=1.0, alpha0=0.25, j_max=3)
    gamma0 = record_for(db_four7, GAMMA0)
    assert scan.gamma0_T == gamma0.T
    assert [row[0] for row in scan.rows] == [j * gamma0.T for j in (1, 2, 3)]
    # each window isolates one repetition of GAMMA0, and every one passes
    assert all(row[4] and row[5] == 1 for row in scan.rows)
    assert abs(scan.fit_c0 - np.log(gamma0.lam_abs) / (2.0 * gamma0.T)) < 0.02

    b1 = solve_abscissa(db_four7, 1.0, "transfer", k=cli._memory(db_four7))
    t_max = float(int(db_four7.horizon) - 1)
    report = lemma41_search(db_four7, b1, 0.1, t_max)
    full = build_measure(db_four7, "full")
    assert report.counts.sum() == np.sum((full.tau >= 0.5) & (full.tau <= t_max + 0.5))
    q = report.qualifying
    assert np.all(report.sums[q] >= report.thresholds[q])
    assert np.all(report.sums[~q] < report.thresholds[~q])
    assert np.sum(q) >= 10


def test_gaussian_weight_domain_checks(db12, monkeypatch):
    for sigma in (1.5, 0.0, 0.5 * trace.SIGMA_MIN):
        with pytest.raises(DomainError):
            gaussian_weight(db12, 12.8, sigma)
    with pytest.raises(IncompleteDataError):
        gaussian_weight(db12, 51.5, 0.1)
    # at sigma = 0.1 the tail bound is sqrt(2 pi) s_max^2 erfc(8.94), erfc(8.94) ~ 1e-36
    monkeypatch.setattr(trace, "TAIL_TOL", 0.0)
    with pytest.raises(NumericalError, match="leaves a tail bound"):
        gaussian_weight(db12, 12.8, 0.1)


def test_shell_search_finds_mass(db12, abscissas):
    report = lemma41_search(db12, abscissas[1.0], eps=0.1, t_max=40.0)
    assert np.sum(report.qualifying) >= 10
    assert np.all(report.sums[report.qualifying] >= report.thresholds[report.qualifying])
    assert "qualifying" in report.summary()


def test_shell_search_eps_monotone(db12, abscissas):
    few = lemma41_search(db12, abscissas[1.0], eps=0.02, t_max=40.0)
    many = lemma41_search(db12, abscissas[1.0], eps=0.3, t_max=40.0)
    assert np.sum(many.qualifying) >= np.sum(few.qualifying)


def test_shell_search_zero_rate_branch(db12):
    with pytest.raises(DomainError):
        lemma41_search(db12, 0.0, eps=0.1, t_max=30.0)
    report = lemma41_search(db12, 0.0, eps=0.1, t_max=30.0, u=1.0)
    assert np.allclose(report.thresholds, np.exp(-0.5 * report.centers))
    assert np.sum(report.qualifying) > 0


def test_shell_search_empty_is_quiet(db12, abscissas):
    report = lemma41_search(db12, abscissas[1.0], eps=0.1, t_max=6.0)
    assert np.sum(report.qualifying) == 0
    assert report.summary() == "no qualifying shell below t_max"


def test_shell_search_horizon(db10, abscissas):
    with pytest.raises(IncompleteDataError):
        lemma41_search(db10, abscissas[1.0], eps=0.1, t_max=44.0)


def test_experimental_compare_is_finite(db10):
    poles = [
        Pole(complex(-0.12, 0.0), 1, 0.0, 0.1),
        Pole(complex(-0.26, 0.81), 2, 0.0, 0.1),
    ]
    rows = experimental_compare(db10, poles, 1.0, [8.0, 16.0])
    assert len(rows) == 2
    for ell, m, orbit, res, ratio in rows:
        assert np.isfinite(orbit)
        assert np.isfinite(res)
    assert resonance_side(poles, 8.0, np.exp(8.0)) == pytest.approx(
        rows[0][3], rel=1e-12
    )


# sha256 of the `trace --experimental-trace-compare` tables for the fixture
# at nmax 10 and 12, recorded with numpy 2.4.6 while the bump still called
# leggauss(256) on every construction: the stored rule must not move a byte.
# The trace_compare.csv digests were recorded again once the compare took
# each complex zero pair once and the simple real zero moved by 1 ulp
# (polished from the winding pass's moment), and again once the
# determinant sums became BLAS matrix products (the zeros moved by
# rounding, below 1e-11; recorded on scipy-openblas 0.3.31's SkylakeX
# kernels, which another CPU may not pick).
TRACE_DIGESTS = {
    10: {
        "trace_windows.csv": "653cb91fb419fda9a8c0ba0fac931c5771700376263454bafb6379cbe5a23d74",
        "trace_gaussian.csv": "cceabd16bcf90644bdbee1d3a117c15d8bee5cd5ec2271b2f319a416a682b9bb",
        "trace_shells.csv": "543e1043132e1c29711788985b1d25428ae88aba6cf337a7bfdf2c44d503facb",
        "trace_compare.csv": "eabc9d18a985224dad203c8c353cdc7933cf5a3d79087d4a7d824f2b4004e07e",
    },
    12: {
        "trace_windows.csv": "ea9d5eca5d517f5e941ed286fd38ef05c149cf681983c5262d1b40895fc01294",
        "trace_gaussian.csv": "cceabd16bcf90644bdbee1d3a117c15d8bee5cd5ec2271b2f319a416a682b9bb",
        "trace_shells.csv": "01f23a741b19399d8233685da00c8a7cfdcd36ca2327154a8de40ca3ffa40625",
        "trace_compare.csv": "d2e66007d9b03021e9ddc04079677732f539cefb1f62e686d6a7e1fd95dc0473",
    },
}


def test_trace_tables_are_pinned(tmp_path, db10, db12):
    for db in (db10, db12):
        cache, out = tmp_path / f"cache{db.n_max}", tmp_path / f"out{db.n_max}"
        save_database(db, cache)
        argv = ["trace", "--cache", str(cache), "--out", str(out), "--experimental-trace-compare"]
        assert cli.main(argv) == 0
        for name, digest in TRACE_DIGESTS[db.n_max].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (db.n_max, name)
