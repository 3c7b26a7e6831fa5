import tracemalloc

import numpy as np
import pytest

from billzeta import zeta
from billzeta.cli import _restrict
from billzeta.errors import DomainError, IncompleteDataError, TrustRegionError
from billzeta.zeta import (
    ATOM_BLOCK,
    PROBE_IM,
    TRUST_THRESHOLD,
    _cell_winding,
    _cell_windings,
    abscissa_estimate,
    build_determinant,
    counting_check,
    eta_direct,
    eta_tail_bound,
    eta_via_roots_of_unity,
    _guarded_values,
    find_poles,
    orbit_atoms,
    real_zero,
    reflection_shift_matrix,
    roots_of_unity_filter,
    series_full_power,
    signed_shell_partials,
    track_zero,
)
from tests.conftest import records


def cycle_expansion_value(exp, s):
    """D(s) by the cycle expansion (Newton identities) from the log atoms
    alone: with c_k the shell-k sum of the log atoms, d_0 = 1 and
    d_n = -(1/n) sum_k k c_k d_{n-k}; D = d_0 + ... + d_N."""
    terms = exp.log_coeff * np.exp(-s * exp.log_tau)
    c = [np.sum(terms[exp.log_shell == k]) for k in range(exp.N + 1)]
    d = [1.0 + 0.0j]
    for n in range(1, exp.N + 1):
        d.append(-sum(k * c[k] * d[n - k] for k in range(1, n + 1)) / n)
    return sum(d)


def brute_force_winding(exp, re0, re1, im0, im1, samples=160):
    """Winding of D around the cell from a dense uniform walk along its
    edges: the sum of the phases of successive ratios over 2 pi."""
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    path = np.concatenate(
        [a + (b - a) * t for a, b in zip(corners, corners[1:] + corners[:1])]
    )
    f = exp.value(np.append(path, path[0]))
    steps = np.angle(f[1:] / f[:-1])
    # fine enough that no turn of the phase fits between two samples
    assert np.max(np.abs(steps)) < 0.5
    return np.sum(steps) / (2.0 * np.pi)


def test_atoms_require_exactly_one_cutoff(db10):
    with pytest.raises(ValueError):
        orbit_atoms(db10)
    with pytest.raises(ValueError):
        orbit_atoms(db10, T_max=20.0, m_max=6)


def test_atoms_respect_horizon(db10):
    horizon = (db10.n_max + 1) * db10.config.d0
    atoms = orbit_atoms(db10, T_max=horizon)
    assert np.max(atoms["tau"]) <= horizon
    with pytest.raises(IncompleteDataError):
        orbit_atoms(db10, T_max=horizon + 1.0)


def test_atom_bookkeeping(db8):
    atoms = orbit_atoms(db8, m_max=8)
    assert np.max(atoms["m"]) <= 8
    assert np.allclose(atoms["tau"], atoms["r"] * atoms["tsharp"])
    assert np.array_equal(atoms["parity"], np.where(atoms["m"] % 2 == 0, 1.0, -1.0))
    assert np.allclose(atoms["w_half"], atoms["tsharp"] / np.sqrt(atoms["det"]))
    # repetitions of the three 2-cycles appear up to r = 4
    sel = np.isclose(atoms["tsharp"], 8.0, rtol=0.0, atol=1e-9)
    assert sorted(atoms["r"][sel]) == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


def reference_atoms(db, T_max=None, m_max=None):
    """The atoms built record by record, repetition by repetition."""
    rows = []
    for p_idx, rec in enumerate(records(db)):
        r = 1
        while (T_max is None or r * rec.T <= T_max) and (m_max is None or r * rec.n <= m_max):
            rows.append(
                (p_idx, r, r * rec.T, rec.T, r * rec.n, rec.det_one_minus_p(r), rec.lam_abs,
                 rec.sign)
            )
            r += 1
    p_idx, rep, tau, tsharp, m, det, lam_abs, sign = map(np.array, zip(*rows))
    return {
        "p_idx": p_idx,
        "r": rep,
        "tau": tau,
        "tsharp": tsharp,
        "m": m,
        "det": det,
        "lam_abs": lam_abs,
        "sign": sign,
        "w_half": tsharp / np.sqrt(det),
        "w_full": tsharp / det,
        "w_unstable": tsharp * lam_abs ** (-rep.astype(float)),
        "parity": np.where(m % 2 == 0, 1.0, -1.0),
    }


@pytest.mark.parametrize("name", ["db12", "db_four7"])
def test_atoms_equal_the_record_loop(request, name):
    db = request.getfixturevalue(name)
    horizon = (db.n_max + 1) * db.config.d0
    exact = 3 * records(db)[0].T
    assert exact <= horizon
    cutoffs = [{"m_max": db.n_max}, {"m_max": 5}, {"T_max": horizon}, {"T_max": exact}]
    for cutoff in cutoffs:
        got, want = orbit_atoms(db, **cutoff), reference_atoms(db, **cutoff)
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].dtype == want[key].dtype, (cutoff, key)
            assert got[key].tobytes() == want[key].tobytes(), (cutoff, key)
    # the cutoff r * T itself is an atom
    assert exact in orbit_atoms(db, T_max=exact)["tau"]


def test_atoms_are_memoised_read_only(db10):
    first, second = orbit_atoms(db10, m_max=7), orbit_atoms(db10, m_max=7)
    assert first is not second
    first["extra"] = None
    assert "extra" not in orbit_atoms(db10, m_max=7)
    for key, values in second.items():
        assert values is first[key]
        with pytest.raises(ValueError):
            values[0] = values[0]


def test_alternating_identity_at_random_points(db10):
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        s = complex(rng.uniform(-0.1, 0.8), rng.uniform(-4.0, 4.0))
        lhs = eta_direct(db10, s, dirichlet=True, m_max=10)
        rhs = eta_direct(db10, s, q=2, m_max=10) - eta_direct(db10, s, q=1, m_max=10)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_filter_matches_roots_of_unity(db10):
    rng = np.random.default_rng(7)
    for q in range(1, 7):
        s = complex(rng.uniform(0.0, 0.6), rng.uniform(-2.0, 2.0))
        direct = eta_direct(db10, s, q=q, m_max=10)
        summed = eta_via_roots_of_unity(db10, s, q, m_max=10)
        assert abs(direct - summed) < 1e-12 * max(1.0, abs(direct))


def test_shift_matrix_identities():
    for q in range(1, 7):
        A = reflection_shift_matrix(q)
        assert np.array_equal(np.linalg.matrix_power(A, q), np.eye(q, dtype=np.int64))
        for j in range(1, q):
            assert np.trace(np.linalg.matrix_power(A, j)) == 0


def test_filter_indicator():
    for q in range(1, 7):
        for m in range(1, 13):
            val = roots_of_unity_filter(m, q)
            want = q if m % q == 0 else 0.0
            assert abs(val - want) < 1e-12


def test_growth_estimates_match_pressure_roots(db12, abscissas):
    half, _, _ = abscissa_estimate(db12, weight="half")
    full, _, _ = abscissa_estimate(db12, weight="full")
    none, _, _ = abscissa_estimate(db12, weight="none")
    assert abs(half - abscissas[0.5]) < 0.02
    assert abs(full - abscissas[1.0]) < 0.02
    assert abs(none - abscissas[0.0]) < 0.02


def test_even_restriction_estimate_runs(db12, abscissas):
    est, err, shells = abscissa_estimate(db12, weight="half", parity="even")
    assert len(shells) == 6
    assert abs(est - abscissas[0.5]) < 0.05


def test_estimate_needs_enough_shells(db12):
    shallow = _restrict(db12, 5)
    with pytest.raises(IncompleteDataError):
        abscissa_estimate(shallow, weight="half")


def test_series_variants_are_finite(db10):
    for variant in ("det", "unstable"):
        val = series_full_power(db10, 0.2 + 0.3j, variant=variant, m_max=10)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_determinant_layers_agree(exp12):
    for s in (0.3, 0.5, 0.8 + 0.4j):
        direct = exp12.value(s)
        via_log = np.exp(exp12.log_value(s))
        assert abs(direct - via_log) < 1e-8 * abs(direct)


def test_expansion_matches_cycle_expansion_oracle(exp12, db_four7):
    rng = np.random.default_rng(20261018)
    points = rng.uniform(-0.3, 0.5, 400) + 1j * rng.uniform(-2.0, 2.0, 400)
    for exp in (exp12, build_determinant(db_four7, 7)):
        for s, value in zip(points, exp.value(points)):
            assert abs(value - cycle_expansion_value(exp, s)) < 1e-10, (exp.N, s)


def test_value_does_not_depend_on_the_batch(exp12):
    rng = np.random.default_rng(65)
    points = rng.uniform(-0.3, 0.5, 65) + 1j * rng.uniform(-2.0, 2.0, 65)
    assert points.size > ATOM_BLOCK  # the batch crosses a block boundary
    for method in (exp12.value, exp12.derivative, exp12.last_shell_value):
        batch = method(points)
        assert all(batch[k] == method(complex(p)) for k, p in enumerate(points))
    for method in (exp12.value_and_last_shell, exp12.value_and_derivative):
        first, second = method(points)
        assert all(
            (first[k], second[k]) == method(complex(p)) for k, p in enumerate(points)
        )


def oracle_atom_sum(coeff, tau, s, block=64):
    """sum_i coeff_i exp(-s tau_i) through one complex exp per term: the
    reference for the factored kernel."""
    points = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    values = np.empty(points.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, points.size, block):
            chunk = points[start : start + block]
            terms = np.empty((chunk.size, tau.size), dtype=complex)
            np.multiply.outer(-chunk.real, tau, out=terms.real)
            np.multiply.outer(-chunk.imag, tau, out=terms.imag)
            np.exp(terms, out=terms)
            terms.real *= coeff
            terms.imag *= coeff
            values[start : start + block] = terms.sum(axis=1)
    return complex(values[0]) if np.isscalar(s) else values


def oracle_sums(exp, s):
    """Every determinant sum by the oracle kernel, keyed by method."""
    last = exp.poly_shell == exp.N
    value = oracle_atom_sum(exp.poly_coeff, exp.poly_tau, s)
    derivative = oracle_atom_sum(-exp.poly_coeff * exp.poly_tau, exp.poly_tau, s)
    shell = oracle_atom_sum(exp.poly_coeff[last], exp.poly_tau[last], s)
    return {
        "value": value,
        "derivative": derivative,
        "last_shell_value": shell,
        "log_value": oracle_atom_sum(-exp.log_coeff, exp.log_tau, s),
        "log_derivative_series": oracle_atom_sum(
            exp.log_coeff * exp.log_tau, exp.log_tau, s
        ),
        "value_and_last_shell": (value, shell),
        "value_and_derivative": (value, derivative),
    }


def test_factored_kernel_equals_the_complex_exp_bitwise(exp12, db_four7):
    rng = np.random.default_rng(400)
    random = rng.uniform(-0.8, 1.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
    # grid lines share real or imaginary parts; axis points carry +0.0 and -0.0
    lines = (np.linspace(-0.31, -0.02, 7)[:, None] + 1j * np.linspace(0.2, 1.4, 13)).ravel()
    axis = np.array([complex(x, y) for x in (-0.12, 0.0, -0.0, 0.3) for y in (0.0, -0.0)])
    points = np.concatenate((random, lines, axis, lines[::-1]))
    scalars = [0.3, -0.12, complex(-0.12, -0.0), complex(0.25, 1.7), points[17]]
    for exp in (exp12, build_determinant(db_four7, 7)):
        want = oracle_sums(exp, points)
        for name, values in want.items():
            got = getattr(exp, name)(points)
            pairs = zip(got, values) if isinstance(values, tuple) else [(got, values)]
            for g, w in pairs:
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (exp.N, name)
        for s in scalars:
            for name, value in oracle_sums(exp, s).items():
                got = getattr(exp, name)(s)
                assert type(got) is type(value), (name, s)
                assert np.array(got).tobytes() == np.array(value).tobytes(), (name, s)


def record_loop_determinant(db, N, k_max=5):
    """Log atoms and sorted factor pool built record by record, then the
    expansion, as arrays: the reference for the columnar build."""
    log_rows, items = [], []
    for rec in records(db):
        if rec.n > N:
            continue
        for k in range(k_max + 1):
            items.append((rec.n, rec.T, rec.sign**k * rec.lam_abs ** (-(k + 0.5))))
            r = 1
            while r * rec.n <= N:
                log_rows.append(
                    (r * rec.n, r * rec.T,
                     rec.sign ** (k * r) * rec.lam_abs ** (-r * (k + 0.5)) / r)
                )
                r += 1
    log_rows.sort()
    items.sort()
    poly_coeff, poly_tau, poly_shell = zeta._expansion_atoms(items, N)
    return {
        "log_shell": np.array([row[0] for row in log_rows], dtype=np.int64),
        "log_tau": np.array([row[1] for row in log_rows]),
        "log_coeff": np.array([row[2] for row in log_rows]),
        "poly_coeff": poly_coeff,
        "poly_tau": poly_tau,
        "poly_shell": poly_shell,
    }


def oracle_trust_floor(arrays, N):
    """The probe scan of ``_trust_floor`` with the oracle kernel."""
    last = arrays["poly_shell"] == N
    xs = [0.5]
    while xs[-1] - 0.02 >= -0.75 - 1e-12:
        xs.append(xs[-1] - 0.02)
    for i, x in enumerate(xs):
        shell = oracle_atom_sum(
            arrays["poly_coeff"][last], arrays["poly_tau"][last], x + 1j * PROBE_IM
        )
        if np.max(np.abs(shell)) > TRUST_THRESHOLD:
            assert i > 0
            return xs[i - 1]
    return xs[-1]


def test_columnar_build_equals_the_record_loop(db13, db_four7):
    cases = [(_restrict(db13, N), N, 5) for N in range(9, 14)]
    cases += [(db13, 11, 2), (db_four7, 7, 5)]
    for db, N, k_max in cases:
        exp = build_determinant(db, N, k_max=k_max)
        want = record_loop_determinant(db, N, k_max)
        for key, values in want.items():
            got = getattr(exp, key)
            assert got.dtype == values.dtype, (N, key)
            assert got.tobytes() == values.tobytes(), (N, key)
        assert exp.trust_floor == oracle_trust_floor(want, N), N


def default_grid_samples(exp):
    """The on-line samples of the default leading-strip search, (5, 6)
    cells of 12 segments a side, as ``_grid_contours`` lays them out."""
    re0 = max(-0.45, exp.trust_floor + 0.01)
    xs, ys = np.linspace(re0, -0.02, 6), np.linspace(0.20, 1.40, 7)
    t = np.linspace(0.0, 1.0, 13)[:-1]
    fine_x = np.append((xs[:-1, None] + np.diff(xs)[:, None] * t).ravel(), xs[-1])
    fine_y = np.append((ys[:-1, None] + np.diff(ys)[:, None] * t).ravel(), ys[-1])
    on_line = (np.arange(fine_x.size) % 12 == 0)[:, None] | (np.arange(fine_y.size) % 12 == 0)
    return (fine_x[:, None] + 1j * fine_y[None, :])[on_line]


def peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_guarded_values_need_no_more_memory_than_the_oracle(db13):
    exp = build_determinant(db13, 13)
    z = default_grid_samples(exp)
    assert z.size == 823

    def oracle_guard(exp, z):
        last = exp.poly_shell == exp.N
        oracle_atom_sum(exp.poly_coeff, exp.poly_tau, z)
        oracle_atom_sum(exp.poly_coeff[last], exp.poly_tau[last], z)

    peak_bytes(_guarded_values, exp, z)  # first call: warm any caches
    assert peak_bytes(_guarded_values, exp, z) <= peak_bytes(oracle_guard, exp, z)


def test_trust_floors_match_the_scan_by_probe_line(db13, db_four7):
    # exact bits: the scan steps left from 0.5 by repeated subtraction of 0.02
    pinned = {
        8: -0.12000000000000019,
        9: -0.24000000000000013,
        10: -0.24000000000000013,
        11: -0.30000000000000016,
        12: -0.3200000000000002,
        13: -0.3600000000000002,
    }
    for N, floor in pinned.items():
        assert build_determinant(_restrict(db13, N), N).trust_floor == floor
    assert build_determinant(db_four7, 7).trust_floor == 0.07999999999999984


def test_cell_windings_match_dense_walk(exp12, db_four7):
    exp4 = build_determinant(db_four7, 7)
    cases = [
        # the criterion 11 rectangles
        (exp12, (-0.20, -0.05, -0.10, 0.10), (3, 3)),
        (exp12, (-0.31, -0.02, 0.20, 1.30), (5, 6)),
        (exp12, (-0.31, -0.02, 0.20, 2.40), (5, 11)),
        # right of the unequal 4-disk floor, N = 7
        (exp4, (exp4.trust_floor + 0.02, 0.6, -0.5, 1.5), (3, 6)),
    ]
    for exp, (re0, re1, im0, im1), (nx, ny) in cases:
        xs = np.linspace(re0, re1, nx + 1)
        ys = np.linspace(im0, im1, ny + 1)
        grid = _cell_windings(exp, xs, ys)
        for i in range(nx):
            for j in range(ny):
                cell = (xs[i], xs[i + 1], ys[j], ys[j + 1])
                oracle = brute_force_winding(exp, *cell)
                assert abs(grid[i, j] - oracle) < 1e-9, (exp.N, cell)
                # at 4 segments per side, phase steps beyond pi/2 are left
                # to the refinement
                for samples in (12, 4):
                    w = _cell_winding(exp, *cell, samples=samples)
                    assert abs(w - oracle) < 1e-9, (exp.N, cell, samples)


def test_determinant_derivative_matches_difference(exp12):
    s, h = 0.25, 1e-5
    fd = (exp12.value(s + h) - exp12.value(s - h)) / (2.0 * h)
    assert abs(exp12.derivative(s) - fd) < 1e-7 * abs(fd)


def test_log_derivative_series_consistent(exp12):
    s, h = 0.4, 1e-5
    fd = (exp12.log_value(s + h) - exp12.log_value(s - h)) / (2.0 * h)
    assert abs(exp12.log_derivative_series(s) - fd) < 1e-7 * abs(fd)


def test_tail_bound_positive_and_decreasing(db10, exp10):
    b_lo = eta_tail_bound(db10, exp10, 0.0)
    b_hi = eta_tail_bound(db10, exp10, 0.5)
    assert b_lo > b_hi > 0.0


def record_loop_tail_bound(db, exp, s_re):
    """The tail bound summed record by record: the reference for the
    columnar loop."""
    total = 0.0
    for rec in records(db):
        if rec.n > exp.N:
            continue
        r = 1
        while r * rec.n <= exp.N:
            lam_r = rec.lam_abs ** (-float(r))
            tail = lam_r ** (exp.k_max + 1) / (1.0 - lam_r)
            total += rec.T * np.exp(-s_re * r * rec.T) * rec.lam_abs ** (-r / 2.0) * tail
            r += 1
    return float(total)


def test_tail_bound_equals_the_record_loop(db10, exp10, db12, exp12, db_four7):
    exp_four = build_determinant(db_four7, 6, k_max=2)
    for db, exp in ((db10, exp10), (db12, exp10), (db12, exp12), (db_four7, exp_four)):
        for s_re in (0.0, 0.5):
            got, want = eta_tail_bound(db, exp, s_re), record_loop_tail_bound(db, exp, s_re)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (exp.N, s_re)


def test_conjugate_symmetry_of_determinant(exp12):
    for s in (-0.2 + 0.9j, -0.1 + 1.6j, 0.3 + 2.2j):
        assert abs(exp12.value(np.conj(s)) - np.conj(exp12.value(s))) < 1e-13


def test_real_zero_sits_at_half_abscissa(exp12, abscissas):
    z = real_zero(exp12, -0.2, -0.05)
    assert abs(z - abscissas[0.5]) < 1e-3


def test_real_zero_stable_under_truncation(exp10, exp12):
    z10 = real_zero(exp10, -0.2, -0.05)
    z12 = real_zero(exp12, -0.2, -0.05)
    assert abs(z10 - z12) < 1e-4


def test_find_poles_real_box(exp12, abscissas):
    poles = find_poles(exp12, (-0.20, -0.05, -0.10, 0.10), grid=(3, 3))
    assert len(poles) == 1
    p = poles[0]
    assert p.multiplicity == 1
    assert abs(p.s.imag) < 1e-10
    assert abs(p.s.real - abscissas[0.5]) < 1e-3
    assert p.trust_margin > 0.0


def test_find_poles_leading_pair(exp12):
    poles = find_poles(exp12, (-0.31, -0.02, 0.20, 1.40), grid=(5, 6))
    assert len(poles) == 1
    p = poles[0]
    assert p.multiplicity == 2
    assert abs(p.s - complex(-0.2643, 0.8140)) < 2e-3


def test_trust_floor_blocks_deep_rectangles(exp10):
    assert exp10.trust_floor < -0.1
    with pytest.raises(TrustRegionError):
        find_poles(exp10, (exp10.trust_floor - 0.2, -0.02, 0.2, 1.4), grid=(4, 4))


def test_noise_gate_blocks_high_windows(exp10):
    with pytest.raises(TrustRegionError):
        find_poles(exp10, (exp10.trust_floor + 0.01, -0.02, 3.5, 5.0), grid=(3, 3))


def test_noise_guard_fires_on_a_contour_through_a_zero(exp12):
    z0 = real_zero(exp12, -0.2, -0.05)
    with pytest.raises(TrustRegionError, match="truncation noise"):
        find_poles(exp12, (z0, -0.05, 0.0, 0.1), grid=(1, 1))


def test_rectangle_must_be_finite_and_non_empty(exp12):
    for rect in (
        (np.nan, 0.0, 0.0, 1.0),
        (-0.1, -0.2, 0.0, 1.0),
        (-0.1, -0.1, 0.0, 1.0),
        (-0.1, 0.0, 1.0, np.inf),
    ):
        with pytest.raises(DomainError, match="finite and non-empty"):
            find_poles(exp12, rect, grid=(1, 1))


TALL = (-0.31, -0.02, 0.20, 2.40)


def test_zeros_lie_in_their_cells_on_coarse_grids(exp12):
    # on the 2 x 2 grid this simple zero lies far from its cell's centre
    simple = [p for p in find_poles(exp12, TALL, grid=(2, 2)) if p.multiplicity == 1]
    assert len(simple) == 1
    assert abs(simple[0].s - complex(-0.1266, 1.5165)) < 1e-4
    for grid in ((2, 2), (4, 4), (8, 8)):
        for p in find_poles(exp12, TALL, grid=grid):
            assert TALL[0] <= p.s.real <= TALL[1], (grid, p)
            assert TALL[2] <= p.s.imag <= TALL[3], (grid, p)
            assert p.trust_margin > 0.0, (grid, p)


def test_centroid_outside_its_cell_is_refused(exp12):
    # one cell: 12 samples per side see winding 3 where five zeros lie, so
    # moment / 3 lands outside the rectangle
    with pytest.raises(TrustRegionError, match="outside the cell"):
        find_poles(exp12, TALL, grid=(1, 1))


def test_merged_cluster_is_refused(exp12, monkeypatch):
    # grid (1, 2): the upper cell holds the simple zero -0.1266+1.5165i and
    # the doubled pair near -0.2194+2.3665i, winding 3, centroid inside it
    with pytest.raises(TrustRegionError, match="not one multiple zero"):
        find_poles(exp12, TALL, grid=(1, 2))
    grids = ((2, 2), (4, 4), (8, 8), (5, 11))
    found = {grid: find_poles(exp12, TALL, grid=grid) for grid in grids}
    monkeypatch.setattr(zeta, "SPREAD_TOL", np.inf)
    for grid in grids:
        assert found[grid] == find_poles(exp12, TALL, grid=grid), grid
        assert sum(p.multiplicity for p in found[grid]) == 5, grid


def test_tracked_leading_pair_stable_under_truncation(exp10, exp12):
    poles = find_poles(exp12, (-0.31, -0.02, 0.20, 1.40), grid=(5, 6))
    z12 = poles[0].s
    winding, z10 = track_zero(exp10, z12, poles[0].multiplicity, radius=0.08)
    assert winding == poles[0].multiplicity
    assert abs(z10 - z12) < 1e-4


def test_window_doubling_does_not_lose_poles(exp12):
    # imaginary window [0.2, 1.3] doubled in height to [0.2, 2.4]
    short = find_poles(exp12, (-0.31, -0.02, 0.20, 1.30), grid=(5, 6))
    tall = find_poles(exp12, (-0.31, -0.02, 0.20, 2.40), grid=(5, 11))
    count_short = sum(p.multiplicity for p in short)
    count_tall = sum(p.multiplicity for p in tall)
    assert count_tall >= count_short
    assert count_short == 2
    assert count_tall == 5


def test_counting_rows_and_band(db12, abscissas):
    rows = counting_check(db12, abscissas[0.0], x_values=np.linspace(8.0, 52.0, 23))
    counts = [r[1] for r in rows]
    assert counts == sorted(counts)
    for x, count, model, ratio in rows:
        assert 0.5 < ratio < 2.0


def test_signed_sums_are_smaller_than_unsigned(db12, abscissas):
    shells = signed_shell_partials(db12, abscissas[1.0], m_max=12)
    signed = np.array([s for m, s, u in shells])
    unsigned = np.array([u for m, s, u in shells])
    # every atom in shell m carries the parity (-1)^m, so per shell the
    # signed sum is exactly +/- the unsigned one
    assert np.allclose(np.abs(signed), unsigned)
    # the cancellation lives across shells: partial sums of the signed
    # series stay bounded while the unsigned mass keeps accumulating
    cum_signed = np.cumsum(signed)
    cum_unsigned = np.cumsum(unsigned)
    assert np.max(np.abs(cum_signed)) < 0.5 * cum_unsigned[-1]
    assert cum_unsigned[-1] > 2.0 * unsigned[0]
