import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from billzeta import contour, zeta
from billzeta.cli import _default_pole_search, _pole_search
from billzeta.errors import DomainError, IncompleteDataError, TrustRegionError
from billzeta.zeta import (
    ATOM_BLOCK,
    PERIOD_ULPS,
    PROBE_IM,
    TRUST_THRESHOLD,
    abscissa_estimate,
    build_determinant,
    counting_check,
    eta_direct,
    eta_via_roots_of_unity,
    orbit_atoms,
    reflection_shift_matrix,
)
from billzeta.contour import (
    _cell_moments,
    _cell_winding,
    _guarded_values,
    _polish_zero,
    _winding_pass,
    find_poles,
    real_zero,
    track_zero,
)
from billzeta.database import build_database, restrict_database
from billzeta.geometry import Configuration, Disk
from tests.conftest import (
    brute_force_class_periods,
    equilateral_config,
    isosceles_three_disks,
    moved_equilateral,
    nearly_equilateral,
    records,
    square_four_disks,
    unequal_four_disks,
)
from tests import oracles
from tests.oracles import canonical_rotation, eta_tail_bound, log_derivative_series, log_value


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
    for rec in records(db):
        r = 1
        while (T_max is None or r * rec.T <= T_max) and (m_max is None or r * rec.n <= m_max):
            rows.append((r, r * rec.T, rec.T, r * rec.n, rec.det_one_minus_p(r), rec.lam_abs))
            r += 1
    rep, tau, tsharp, m, det, lam_abs = map(np.array, zip(*rows))
    return {
        "r": rep,
        "tau": tau,
        "tsharp": tsharp,
        "m": m,
        "det": det,
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


def test_even_shells_are_the_even_shells_of_every_count(db12, db_four7):
    # window 2 fits the three even shells of nmax 7
    for db, window in ((db12, 4), (db_four7, 2)):
        _, _, every = abscissa_estimate(db, weight="half", window=window)
        _, _, even = abscissa_estimate(db, weight="half", parity="even", window=window)
        assert even == [shell for shell in every if shell[0] % 2 == 0], db.n_max


def test_estimate_needs_enough_shells(db12):
    shallow = restrict_database(db12, 5)
    with pytest.raises(IncompleteDataError):
        abscissa_estimate(shallow, weight="half")


def test_determinant_layers_agree(exp12):
    for s in (0.3, 0.5, 0.8 + 0.4j):
        direct = exp12.value(s)
        via_log = np.exp(log_value(exp12, s))
        assert abs(direct - via_log) < 1e-8 * abs(direct)


def test_expansion_matches_cycle_expansion_oracle(exp12, db_four7):
    rng = np.random.default_rng(20261018)
    points = rng.uniform(-0.3, 0.5, 400) + 1j * rng.uniform(-2.0, 2.0, 400)
    for exp in (exp12, build_determinant(db_four7, 7)):
        for s, value in zip(points, exp.value(points)):
            assert abs(value - cycle_expansion_value(exp, s)) < 1e-10, (exp.N, s)


# the (k, noise) arguments of each ``rows`` call the contour search makes
ROWS = {"rows": (0, False), "rows+1": (1, False), "rows+noise": (0, True),
        "rows+1+noise": (1, True)}
ROWS_AND_POLY = ("value", "derivative", "last_shell_value", *ROWS)


def check_batch_and_lone(exp, points):
    """Every expansion method, on the batch ``points`` and on each point
    alone, within :func:`rounding_bound` of the oracle: a value may
    depend on its batch, but only by rounding."""
    for name in ROWS_AND_POLY:
        check_within_rounding(exp, name, points, call_method(exp, name, points))
        for p in points:
            check_within_rounding(exp, name, complex(p), call_method(exp, name, complex(p)))


def test_value_does_not_depend_on_the_batch(exp12):
    rng = np.random.default_rng(65)
    points = rng.uniform(-0.3, 0.5, 65) + 1j * rng.uniform(-2.0, 2.0, 65)
    assert points.size > ATOM_BLOCK  # the batch crosses a block boundary
    check_batch_and_lone(exp12, points)


def test_value_does_not_depend_on_the_batch_on_grid_lines(exp12):
    xs = np.linspace(-0.3, 0.1, 9)
    line = xs + 0.7j  # one Im s, each Re s again on the axis and the column
    column = xs[0] + 1j * np.linspace(-0.5, 0.5, 11)
    axis = np.array([complex(x, y) for x in xs for y in (0.0, -0.0)])
    points = np.concatenate((line, column, axis, line[::-1]))
    assert points.size > 2 * ATOM_BLOCK
    check_batch_and_lone(exp12, points)
    empty = np.array([], dtype=complex)
    for name in ROWS_AND_POLY:
        check_within_rounding(exp12, name, empty, call_method(exp12, name, empty))


def test_a_batch_repeats_its_bytes(exp12, db_four7):
    rng = np.random.default_rng(12)
    random = rng.uniform(-0.8, 1.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
    lines = (np.linspace(-0.31, -0.02, 7)[:, None] + 1j * np.linspace(0.2, 1.4, 13)).ravel()
    points = np.concatenate((random, lines, lines[::-1]))
    for exp in (exp12, build_determinant(db_four7, 7)):
        for name in determinant_sums(exp):
            first, second = call_method(exp, name, points), call_method(exp, name, points)
            pairs = zip(first, second) if isinstance(first, tuple) else [(first, second)]
            for a, b in pairs:
                assert a.tobytes() == b.tobytes(), (exp.N, name)


def test_each_real_part_is_exponentiated_once_per_call(db13, monkeypatch):
    exp = build_determinant(db13, 13)
    rows = []  # (imag, parts) per exponential table, in call order
    # (real-part rows, distinct real parts, imaginary-part rows, distinct
    # imaginary parts) per kernel call
    calls = []
    factor_table, atom_sums = zeta._factor_table, zeta._atom_sums

    def counted_table(parts, tau, trig):
        rows.append((trig, parts.size))
        return factor_table(parts, tau, trig)

    def counted_sums(tau, s, *sums):
        start = len(rows)
        values = atom_sums(tau, s, *sums)
        points = np.atleast_1d(np.asarray(s, dtype=complex))
        calls.append(
            (
                sum(n for imag, n in rows[start:] if not imag),
                np.unique(points.real.view(np.int64)).size,
                sum(n for imag, n in rows[start:] if imag),
                np.unique(points.imag.view(np.int64)).size,
            )
        )
        return values

    monkeypatch.setattr(zeta, "_factor_table", counted_table)
    monkeypatch.setattr(zeta, "_atom_sums", counted_sums)
    _guarded_values(exp, default_grid_samples(exp))
    assert calls == [(61, 61, 73, 73)]
    rows.clear()
    exp.value(complex(-0.1, 0.5))
    assert sum(n for _, n in rows) == 2
    rows.clear()
    calls.clear()
    _default_pole_search(exp)
    assert all(real == x and imag == y for real, x, imag, y in calls)
    # 1,154 with a sincos row per block, 2,115 with real parts also per block
    assert sum(n for _, n in rows) <= 734


# repr of (s, multiplicity, residual, trust_margin) per zero, recorded at
# the fixture's N = 12 and 13 determinants over class periods, with the
# sums as BLAS matrix products (numpy 2.4.6's scipy-openblas 0.3.31 on
# its SkylakeX kernels; another BLAS or CPU may round differently): the
# default search, and a rectangle whose upper cell of winding 2 is closed
# by its conjugate.  The zeros moved by at most 3e-12 from those of the
# one-term-at-a-time kernel (test_zeros_move_by_rounding_only checks
# 1e-9), and lie within 1e-9 of the own-period zeros
# (test_class_periods_keep_every_zero_of_the_default_search).
# The simple real zero's last digits depend on the Newton seed, the
# winding pass's by-parts moment
POLE_REPRS = {
    (12, "default"): "[((-0.26427607136374487-0.8139574025950519j), 2, 6.435004697395044e-08, "
    "0.055723928636255304), ((-0.12155762845436549+0j), 1, 4.145989107584569e-16, "
    "0.19844237154563468), ((-0.26427607136374487+0.8139574025950519j), 2, "
    "6.435004697395044e-08, 0.055723928636255304)]",
    (12, "rect"): "[((-0.26427362860124193-0.8139523898667448j), 2, 6.547820367383833e-08, "
    "0.055726371398758245), ((-0.26427362860124193+0.8139523898667448j), 2, "
    "6.547820367383833e-08, 0.055726371398758245)]",
    (13, "default"): "[((-0.26427642901916776-0.8139479841103341j), 2, 1.2837995748418929e-08, "
    "0.09572357098083245), ((-0.12155762845511997+0j), 1, 8.00683304380545e-16, "
    "0.23844237154488024), ((-0.26427642901916776+0.8139479841103341j), 2, "
    "1.2837995748418929e-08, 0.09572357098083245)]",
    (13, "rect"): "[((-0.2642736423487782-0.8139524087115744j), 2, 1.139943919268489e-08, "
    "0.095726357651222), ((-0.2642736423487782+0.8139524087115744j), 2, "
    "1.139943919268489e-08, 0.095726357651222)]",
}


def test_pole_search_bytes_are_pinned(exp12, db13):
    for exp in (exp12, build_determinant(db13, 13)):
        searches = {
            "default": _default_pole_search(exp),
            "rect": _pole_search(exp, [((-0.31, 0.0, 0.5, 1.0), (8, 8))]),
        }
        for name, poles in searches.items():
            got = repr([(p.s, p.multiplicity, p.residual, p.trust_margin) for p in poles])
            assert got == POLE_REPRS[exp.N, name], (exp.N, name)


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


def rounding_bound(coeff, tau, s):
    """(n + 8) eps sum_i |coeff_i exp(-s tau_i)| over the n atoms, per
    point: the bound on the kernel's distance from the oracle.

    Both form each argument -x tau_i and -y tau_i with the same rounding.
    From there a term takes at most four roundings on either side (exp,
    cos or sin, and two products), 8 u of |term| together with u =
    eps / 2.  The kernel's dot products add up to (n - 1) u sum |terms|
    in any order of summation, and the oracle's pairwise sum up to
    log2(n) u.  That is below (n/2 + log2(n)/2 + 4) eps sum |terms|,
    and (n + 8) eps bounds it for every n."""
    points = np.atleast_1d(np.asarray(s, dtype=complex))
    scale = np.exp(-np.outer(points.real, tau)) @ np.abs(coeff)
    bound = (tau.size + 8) * np.finfo(float).eps * scale
    return bound[0] if np.isscalar(s) else bound


def determinant_sums(exp):
    """(coeff, tau) of each sum of every determinant method, keyed by
    method as :func:`call_method` names them."""
    last = exp.poly_shell == exp.N
    value = (exp.poly_coeff, exp.poly_tau)
    derivative = (-exp.poly_coeff * exp.poly_tau, exp.poly_tau)
    shell = (exp.poly_coeff[last], exp.poly_tau[last])
    return {
        "value": (value,),
        "derivative": (derivative,),
        "last_shell_value": (shell,),
        "log_value": ((-exp.log_coeff, exp.log_tau),),
        "log_derivative_series": ((exp.log_coeff * exp.log_tau, exp.log_tau),),
        "rows": (value,),
        "rows+1": (value, derivative),
        "rows+noise": (value, shell),
        "rows+1+noise": (value, derivative, shell),
    }


def call_method(exp, name, s):
    """The determinant method ``name`` of :func:`determinant_sums` at ``s``:
    a ``rows`` call of :data:`ROWS`, the log-layer oracle of that name, or
    the method of that name."""
    if name in ROWS:
        k, noise = ROWS[name]
        return exp.rows(s, k, noise=noise)
    if name in ("log_value", "log_derivative_series"):
        return getattr(oracles, name)(exp, s)
    return getattr(exp, name)(s)


def check_within_rounding(exp, name, s, got):
    """Each sum that the method ``name`` returned at ``s`` has the
    oracle's type and lies within :func:`rounding_bound` of its value;
    the noise of a ``rows`` call is the magnitude of its sum, so its
    distance from the oracle's magnitude has the same bound."""
    got = got if isinstance(got, tuple) else (got,)
    specs = determinant_sums(exp)[name]
    assert len(got) == len(specs), name
    for i, (value, (coeff, tau)) in enumerate(zip(got, specs)):
        want = oracle_atom_sum(coeff, tau, s)
        if name.endswith("noise") and i == len(specs) - 1:
            want = abs(want)
        if np.isscalar(s):
            assert type(value) is type(want), (name, s)
        else:
            assert value.dtype == want.dtype and value.shape == want.shape, name
        assert np.all(np.abs(value - want) <= rounding_bound(coeff, tau, s)), (exp.N, name, s)


def test_matrix_kernel_matches_the_complex_exp_within_rounding(exp12, db_four7):
    rng = np.random.default_rng(400)
    random = rng.uniform(-0.8, 1.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
    # grid lines share real or imaginary parts; axis points carry +0.0 and -0.0
    lines = (np.linspace(-0.31, -0.02, 7)[:, None] + 1j * np.linspace(0.2, 1.4, 13)).ravel()
    axis = np.array([complex(x, y) for x in (-0.12, 0.0, -0.0, 0.3) for y in (0.0, -0.0)])
    points = np.concatenate((random, lines, axis, lines[::-1]))
    scalars = [0.3, -0.12, complex(-0.12, -0.0), complex(0.25, 1.7), points[17]]
    for exp in (exp12, build_determinant(db_four7, 7)):
        for name in determinant_sums(exp):
            check_within_rounding(exp, name, points, call_method(exp, name, points))
            for s in scalars:
                check_within_rounding(exp, name, s, call_method(exp, name, s))


def reference_expansion_atoms(items, N):
    """``zeta._expansion_atoms`` with each factor group's coefficients
    rebuilt as new lists item by item: the reference for the in-place
    fold."""
    shells = [{} for _ in range(N + 1)]
    shells[0][0.0] = 1.0
    for (n, T), group in groupby(items, key=lambda it: it[:2]):
        f = [1.0]
        for _, _, w in group:
            f = [a - w * b for a, b in zip(f + [0.0], [0.0] + f)][: N // n + 1]
        for shell in range(N - n, -1, -1):
            for tau, c in shells[shell].items():
                t = tau
                for j in range(1, min(len(f), (N - shell) // n + 1)):
                    t = t + T
                    row = shells[shell + j * n]
                    row[t] = row.get(t, 0.0) + c * f[j]
    keys = [(m, t) for m, row in enumerate(shells) for t in sorted(row)]
    shell = np.array([m for m, _ in keys], dtype=np.int64)
    tau = np.array([t for _, t in keys])
    coeff = np.array([shells[m][t] for m, t in keys])
    return coeff, tau, shell


def record_loop_factors(db, N, k_max, shared=True):
    """Log atoms (shell, tau, coefficient) and the sorted factor pool
    (n, T, w), built record by record; T is each cycle's period from
    the brute-force class map, or its own period when not ``shared``."""
    periods = brute_force_class_periods(db, N) if shared else {}
    log_rows, items = [], []
    for rec in records(db):
        if rec.n > N:
            continue
        T = periods.get(rec.word, rec.T)
        for k in range(k_max + 1):
            items.append((rec.n, T, rec.sign**k * rec.lam_abs ** (-(k + 0.5))))
            r = 1
            while r * rec.n <= N:
                log_rows.append(
                    (r * rec.n, r * T,
                     rec.sign ** (k * r) * rec.lam_abs ** (-r * (k + 0.5)) / r)
                )
                r += 1
    log_rows.sort()
    items.sort()
    return log_rows, items


def pool_columns(items):
    """The (n, T, w) columns of a factor pool listed as tuples."""
    n, T, w = zip(*items)
    return np.array(n, dtype=np.int64), np.array(T), np.array(w)


def record_loop_determinant(db, N, k_max=5):
    """Log atoms and sorted factor pool built record by record, then the
    reference expansion, as arrays: the reference for the columnar build."""
    log_rows, items = record_loop_factors(db, N, k_max)
    poly_coeff, poly_tau, poly_shell = reference_expansion_atoms(items, N)
    return {
        "log_shell": np.array([row[0] for row in log_rows], dtype=np.int64),
        "log_tau": np.array([row[1] for row in log_rows]),
        "log_coeff": np.array([row[2] for row in log_rows]),
        "poly_coeff": poly_coeff,
        "poly_tau": poly_tau,
        "poly_shell": poly_shell,
    }


def test_expansion_atoms_equal_the_list_rebuild(db13, db_four7):
    # down to N = 3, where build_determinant's trust floor would refuse
    cases = [(db13, N) for N in range(3, 14)] + [(db_four7, N) for N in range(3, 8)]
    for db, N in cases:
        for k_max in (0, 2, 5):
            _, items = record_loop_factors(db, N, k_max)
            got = zeta._expansion_atoms(*pool_columns(items), N)
            want = reference_expansion_atoms(items, N)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (db.n_max, N, k_max)


def test_square_expansion_atoms_equal_the_list_rebuild_at_order_3(db_square7):
    # build_determinant's trust floor refuses N = 3 on the square
    with pytest.raises(TrustRegionError):
        build_determinant(db_square7, 3)
    for k_max in (0, 2, 5):
        _, items = record_loop_factors(db_square7, 3, k_max)
        got = zeta._expansion_atoms(*pool_columns(items), 3)
        for g, w in zip(got, reference_expansion_atoms(items, 3)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), k_max


def test_lower_orders_are_prefixes_of_the_expansion(db13, db_four7, db_square7):
    # an order-N build holds every lower order's atoms as its prefix
    cases = [(db13, range(5, 14)), (db_four7, range(4, 8)), (db_square7, range(4, 8))]
    pairs = 0
    for db, orders in cases:
        for k_max in (0, 2, 5):
            builds = {N: build_determinant(db, N, k_max=k_max) for N in orders}
            for N, exp in builds.items():
                for M in range(orders.start, N):
                    low = builds[M]
                    cut = int(np.searchsorted(exp.poly_shell, M + 1))
                    for key in ("poly_coeff", "poly_tau", "poly_shell"):
                        got, want = getattr(exp, key)[:cut], getattr(low, key)
                        assert got.tobytes() == want.tobytes(), (db.n_max, M, N, k_max, key)
                    pairs += 1
    assert pairs == 3 * (36 + 6 + 6)


def old_signed_power(lam, j, e):
    """``zeta._signed_power`` as a per-row float ``**`` comprehension."""
    mag = np.array([a**b for a, b in zip(np.abs(lam).tolist(), e.tolist())], dtype=float)
    return np.where((lam < 0) & (j % 2 == 1), -mag, mag)


def test_signed_power_equals_the_power_comprehension(db13, db_square7):
    rows = []
    for db, N in ((db13, 13), (db_square7, 7)):
        lam = db.lam[db.n <= N]
        p, k = zeta._factors(lam.size, 5)
        rows.append((lam[p], k, -(k + 0.5)))
        # and with the exponents of repetitions r = 1..7, as log atoms
        r = np.arange(1, 8).repeat(p.size)
        rows.append((np.tile(lam[p], 7), np.tile(k, 7) * r, -r * (np.tile(k, 7) + 0.5)))
    # odd j with lam < 0 takes the minus sign
    assert any(((lam < 0) & (j % 2 == 1)).any() for lam, j, _ in rows)
    rows.append((np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)))
    for lam, j, e in rows:
        got, want = zeta._signed_power(lam, j, e), old_signed_power(lam, j, e)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_columnar_build_equals_the_record_loop(db13, db_four7, db_nearly8, db_square7):
    cases = [(restrict_database(db13, N), N, 5) for N in range(9, 14)]
    cases += [(db13, 11, 2), (db_four7, 7, 5), (db_nearly8, 8, 5)]
    # the square: label group of order 8, and 368 of 508 cycles with Lambda < 0
    cases += [(db_square7, N, k_max) for N in range(4, 8) for k_max in (0, 2, 5)]
    for db, N, k_max in cases:
        exp = build_determinant(db, N, k_max=k_max)
        # the log atoms are built on first use, once
        assert "_log_atoms" not in vars(exp)
        want = record_loop_determinant(db, N, k_max)
        assert exp.log_tau is exp.log_tau
        for key, values in want.items():
            got = getattr(exp, key)
            assert got.dtype == values.dtype, (N, key)
            assert got.tobytes() == values.tobytes(), (N, key)
        assert exp.trust_floor == oracle_trust_floor(want, N), N


def own_period_determinant(db, N, k_max=5):
    """The determinant with every cycle's own period from ``db.T``, by the
    reference expansion, with its trust floor."""
    _, items = record_loop_factors(db, N, k_max, shared=False)
    coeff, tau, shell = reference_expansion_atoms(items, N)
    keep = db.n <= N
    cycles = (db.n[keep], db.T[keep], db.lam[keep])
    exp = zeta.DeterminantExpansion(N, k_max, coeff, tau, shell, cycles=cycles)
    exp.trust_floor = zeta._trust_floor(exp)
    return exp


def test_class_periods_move_the_determinant_by_rounding_only(db13):
    exp, own = build_determinant(db13, 13), own_period_determinant(db13, 13)
    assert (len(exp.poly_coeff), len(own.poly_coeff)) == (395, 941)
    rng = np.random.default_rng(13)
    points = rng.uniform(exp.trust_floor, 1.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
    got, want = exp.value(points), own.value(points)
    # relative to the sum of the terms' moduli, the scale of any rounding
    # in D: near the trust floor D cancels to 1e-5 of it, and relative to
    # |D| the move reads up to 2e-11 there (1.3e-15 of the terms)
    scale = np.exp(-np.outer(points.real, own.poly_tau)) @ np.abs(own.poly_coeff)
    assert np.max(np.abs(got - want) / scale) <= 1e-14


def test_class_periods_keep_every_zero_of_the_default_search(db13):
    for N in range(9, 14):
        db = restrict_database(db13, N)
        exp, own = build_determinant(db, N), own_period_determinant(db, N)
        assert exp.trust_floor == own.trust_floor, N
        got, want = _default_pole_search(exp), _default_pole_search(own)
        assert [p.multiplicity for p in got] == [p.multiplicity for p in want], N
        assert max(abs(p.s - q.s) for p, q in zip(got, want)) <= 1e-9, N


def oracle_kernel(tau, s, *sums):
    """``zeta._atom_sums`` by :func:`oracle_atom_sum`, each sum over its
    own atoms: bitwise the kernel that summed one complex exp per term
    before the sums became matrix products."""
    return tuple(oracle_atom_sum(coeff[start:], tau[start:], s) for coeff, start in sums)


def searched_zeros(db):
    """The determinant of ``db`` at N = n_max, and the outcome of its
    default search and of an 8 x 8 search of a rectangle across the
    leading pair: the zeros as (s, multiplicity), or the refusal's type."""
    exp = build_determinant(db, db.n_max)
    outcomes = []
    for search in ([], [((-0.31, 0.0, 0.5, 1.0), (8, 8))]):
        try:
            poles = _pole_search(exp, search) if search else _default_pole_search(exp)
        except TrustRegionError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append([(p.s, p.multiplicity) for p in poles])
    return exp.trust_floor, outcomes


def test_zeros_move_by_rounding_only(db13, db_four7, monkeypatch):
    dbs = [restrict_database(db13, N) for N in range(9, 14)]
    dbs += [build_database(moved_equilateral(seed), 12) for seed in (1, 2, 3)]
    dbs.append(db_four7)
    compared = 0
    for db in dbs:
        floor, got = searched_zeros(db)
        with monkeypatch.context() as m:
            m.setattr(zeta, "_atom_sums", oracle_kernel)
            want_floor, want = searched_zeros(db)
        assert floor == want_floor, db.n_max
        for g, w in zip(got, want):
            if isinstance(w, type):
                assert g is w, (db.n_max, g)
                continue
            assert [m for _, m in g] == [m for _, m in w], db.n_max
            assert all(abs(a - b) <= 1e-9 for (a, _), (b, _) in zip(g, w)), (db.n_max, g, w)
            compared += len(w)
    # the default search finds the real zero alone at N = 9, 10 and three
    # zeros from N = 11; the rectangle is left of the floor below N = 12,
    # and the unequal four disks have no zero right of theirs at N = 7
    assert compared == 30


def test_class_periods_are_built_once_per_database_and_order(db13, monkeypatch):
    orders = []
    real = zeta._class_periods

    def counted(db, N):
        orders.append(N)
        return real(db, N)

    monkeypatch.setattr(zeta, "_class_periods", counted)
    db = restrict_database(db13, 12)
    exp = build_determinant(db, 12)
    assert orders == [12]
    assert len(exp.poly_coeff) == 238
    build_determinant(db, 12)
    assert orders == [12]
    # the log atoms describe the product the expansion atoms expand
    assert exp.cycles[1] is zeta.class_periods(db, 12)[0]
    build_determinant(db, 11)
    assert orders == [12, 11]


def assert_oracle_periods(db, N):
    """``class_periods(db, N)`` equals the permutation-search oracle to the
    bit; returns the class count."""
    periods, classes = zeta.class_periods(db, N)
    want = brute_force_class_periods(db, N)
    words = [rec.word for rec in records(db) if rec.n <= N]
    assert periods.tobytes() == np.array([want[word] for word in words]).tobytes(), N
    return classes


def test_class_periods_of_the_fixture_equal_the_permutation_search(db13):
    # one class per label orbit of cycles: 165 at N = 13, as `poles` prints
    classes = [assert_oracle_periods(db13, N) for N in range(2, 14)]
    assert classes[-1] == 165


@pytest.mark.parametrize(
    "make, n_max, classes",
    [
        # as many classes as the label symmetries and time reversal make,
        # but on the nearly symmetric disks, whose images lie far apart
        (lambda: moved_equilateral(1), 13, 165),
        (lambda: moved_equilateral(2), 13, 165),
        (lambda: moved_equilateral(3), 13, 165),
        (isosceles_three_disks, 13, 420),
        (square_four_disks, 7, 50),
        (unequal_four_disks, 8, 764),
        (nearly_equilateral, 8, 52),
    ],
)
def test_class_periods_equal_the_permutation_search(make, n_max, classes):
    db = build_database(make(), n_max)
    assert assert_oracle_periods(db, n_max) == classes


def test_class_periods_share_only_periods_within_the_ulp_bound():
    # the oracle shares a period only along a label symmetry or time
    # reversal; on the nearly symmetric disks at N = 10 two pairs of
    # cycles of one length lie 3 and 8 ulp apart without either, and the
    # value rule gives each pair its least row's period
    db = build_database(nearly_equilateral(), 10)
    periods, _ = zeta.class_periods(db, 10)
    want = brute_force_class_periods(db, 10)
    recs = records(db)
    apart = []
    for row, (rec, T) in enumerate(zip(recs, periods.tolist())):
        if T != want[rec.word]:
            # the oracle keeps the cycle's own period
            assert want[rec.word] == rec.T, rec.word
            pair = [i for i, t in enumerate(periods.tolist()) if t == T]
            assert len(pair) == 2 and pair[1] == row, rec.word
            least = recs[pair[0]]
            assert least.n == rec.n and least.T == T == want[least.word]
            apart.append(round(abs(rec.T - T) / np.spacing(max(rec.T, T))))
    assert sorted(apart) == [3, 8]
    assert max(apart) <= PERIOD_ULPS


def test_periods_of_a_nearly_symmetric_configuration_stay_their_own(db_nearly8):
    # symmetric to about 1e-11: a label image's period is over 1,000 ulp
    # away, so only time reversal shares
    periods, classes = zeta._class_periods(db_nearly8, 8)
    reversal = brute_force_class_periods(db_nearly8, 8, symmetries=((0, 1, 2),))
    shared = 0
    for rec, T in zip(records(db_nearly8), periods.tolist()):
        assert T == reversal[rec.word], rec.word
        if T != rec.T:
            shared += 1
            assert canonical_rotation(rec.word[::-1])[0] < rec.word
    # five cycles take their reversal's period; a cycle whose reversal has
    # its period to the bit shares without a change
    assert (len(periods), shared, classes) == (71, 5, 52)
    # the 2-cycles 12, 13 and 23 are three classes
    assert len(set(periods[:3].tolist())) == 3


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
        assert build_determinant(restrict_database(db13, N), N).trust_floor == floor
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
        grid = _winding_pass(exp, xs, ys)[0]
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
    fd = (log_value(exp12, s + h) - log_value(exp12, s - h)) / (2.0 * h)
    assert abs(log_derivative_series(exp12, s) - fd) < 1e-7 * abs(fd)


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
    monkeypatch.setattr(contour, "SPREAD_TOL", np.inf)
    for grid in grids:
        assert found[grid] == find_poles(exp12, TALL, grid=grid), grid
        assert sum(p.multiplicity for p in found[grid]) == 5, grid


class KnownZeros:
    """A stand-in for :class:`zeta.DeterminantExpansion` in the contour
    search: D(s) = prod (s - z)^m over chosen zeros z of multiplicity m,
    with a last shell of zero and a trust floor left of every search.
    The search calls only these two methods and reads ``trust_floor``
    (and ``N`` in one refusal's message)."""

    N = 0
    trust_floor = -1.0

    def __init__(self, zeros):
        self.zeros = zeros

    def rows(self, s, k=0, noise=False):
        s = np.asarray(s, dtype=complex)
        f, df = np.ones_like(s), np.zeros_like(s)
        for z, m in self.zeros:
            f, df = f * (s - z) ** m, df * (s - z) ** m + f * m * (s - z) ** (m - 1)
        return (f, df)[: k + 1] + ((self.last_shell_value(s),) if noise else ())

    def last_shell_value(self, s):
        return np.zeros(np.shape(s))


# the cells of the default search at N = 17 on the fixture: lines at
# Re -0.348, -0.266, -0.184, -0.102, -0.02 and Im 0.2, 0.4, ..., 1.4
STRIP, STRIP_GRID = (-0.348, -0.02, 0.20, 1.40), (4, 6)


def test_find_poles_places_known_zeros():
    simple = [-0.30 + 0.50j, -0.05 + 0.30j, -0.15 + 1.25j]
    double = -0.22 + 0.90j
    poles = find_poles(KnownZeros([(z, 1) for z in simple] + [(double, 2)]), STRIP, STRIP_GRID)
    assert [p.multiplicity for p in poles] == [1, 1, 2, 1]
    # Newton lands on each simple zero exactly; the Simpson centroid of the
    # double zero is 6.9e-8 off
    for p, z in zip(poles, [simple[1], simple[0], double, simple[2]]):
        assert abs(p.s - z) <= (1e-12 if p.multiplicity == 1 else 1e-6), (p, z)


@pytest.mark.parametrize(
    "side, rect, grid",
    [
        pytest.param(1.0, STRIP, STRIP_GRID, id="strip-right"),
        pytest.param(-1.0, STRIP, STRIP_GRID, id="strip-left"),
        # the left cell alone: no cell beside it refuses the zero
        pytest.param(
            -1.0, (-0.348, -0.266, 0.80, 1.00), (1, 1), id="one-cell-left",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 15: nothing bounds D between two samples, so the "
                "cell reads winding 1 and reports the double zero as a simple one",
            ),
        ),
    ],
)
def test_find_poles_places_or_refuses_a_double_zero_beside_a_grid_line(side, rect, grid):
    # ROADMAP item 5's alias: at 12 samples per side the two cells beside
    # Re -0.266 each read winding 1 for the double zero 0.0017 away; on
    # the strip's grid the cell the zero lies outside refuses it, as
    # `poles --det-n 17` does
    double = complex(-0.266 + side * 0.0017, 0.81395)
    try:
        poles = find_poles(KnownZeros([(double, 2)]), rect, grid)
    except TrustRegionError as exc:
        assert "outside the cell" in str(exc)
    else:
        # placed, the centroid must be the zero's: the same zero at Im 0.9,
        # where the cells read 0 and 2, places 2.3e-5 off
        assert [p.multiplicity for p in poles] == [2]
        assert abs(poles[0].s - double) <= 1e-4


@pytest.mark.parametrize("row", ["D", "noise"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_value_is_refused_at_once(row, bad):
    # D = s - z0, or its noise, turns non-finite above Im 0.9: a NaN phase
    # step never passes, so without the refusal every level of the
    # refinement halved those segments again, and memory ran out
    class BadAbove(KnownZeros):
        def rows(self, s, k=0, noise=False):
            rows = list(super().rows(s, k, noise))
            if row == "D" or noise:
                i = 0 if row == "D" else -1
                rows[i] = np.where(np.imag(s) > 0.9, bad, rows[i])
            return tuple(rows)

    with pytest.raises(TrustRegionError, match="are not both finite") as exc:
        find_poles(BadAbove([(-0.2 + 0.5j, 1)]), (-0.3, -0.1, 0.2, 1.2), (2, 2))
    assert "at s = -0.3+0.908333j" in str(exc.value)
    assert exc.value.exit_code == 3


def exponential_polynomial(coeffs):
    """sum_j coeffs[j] e^{-4js} as a determinant built directly: atom j
    at tau 4j in shell j, then a last shell of zero, so the noise guard
    and the rectangle gate see no noise."""
    coeff = np.append(coeffs, 0.0)
    shell = np.arange(coeff.size)
    return zeta.DeterminantExpansion(
        N=coeff.size - 1, k_max=0, poly_coeff=coeff, poly_tau=4.0 * shell, poly_shell=shell,
        cycles=(), trust_floor=-1.0,
    )


def test_find_poles_places_the_zeros_of_an_exponential_polynomial():
    # 1 - e^{-0.8} e^{-4s} vanishes at -0.2 + ik pi/2, through the atom kernel
    a = np.exp(-0.8)
    rect, grid = (-0.35, -0.05, 0.5, 3.5), (3, 4)
    zeros = [complex(-0.2, k * np.pi / 2) for k in (1, 2)]
    simple = find_poles(exponential_polynomial([1.0, -a]), rect, grid)
    assert [p.multiplicity for p in simple] == [1, 1]
    for p, z in zip(simple, zeros):
        assert abs(p.s - z) <= 1e-12, (p, z)
    double = find_poles(exponential_polynomial([1.0, -2.0 * a, a * a]), rect, grid)
    assert [p.multiplicity for p in double] == [2, 2]
    # the Simpson moments are taken about s = 0, so their error grows with
    # Im s: 3.9e-5 and 9.3e-5 here (ROADMAP item 5, centred moments)
    for p, z in zip(double, zeros):
        assert abs(p.s - z) <= 2e-4, (p, z)


def moved_fixture(seed):
    """The fixture under the rigid motion that ``perfbench/pipeline.py``
    draws for a seed: a rotation angle, a translation, then a permutation
    of the disk labels from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(-2.0, 2.0, size=2)
    order = rng.permutation(3)
    cos, sin = np.cos(angle), np.sin(angle)
    base = [disk.center for disk in equilateral_config().disks]
    return Configuration(tuple(
        Disk((cos * base[k][0] - sin * base[k][1] + shift[0],
              sin * base[k][0] + cos * base[k][1] + shift[1]), 1.0)
        for k in order
    ))


def default_searches(exp, monkeypatch):
    """The (rect, grid) of every ``find_poles`` call of the default search."""
    searches = []
    with monkeypatch.context() as m:
        m.setattr(zeta, "find_poles", lambda exp, rect, grid: searches.append((rect, grid)) or [])
        _default_pole_search(exp)
    return searches


def check_simple_zeros(exp, rect, grid):
    """Every w = 1 zero of ``find_poles`` lies in its cell and equals the
    Newton polish seeded by the cell's Simpson moment to 4 ulp of |s|, or
    to the zero's rounding width where that is wider: Newton stops where
    |D| is within the kernel's error, :func:`rounding_bound`, so two
    seeds can stop up to twice that bound over |D'(s)| apart (for the
    real zero that is 1e-14 at N = 9 and 1e-13 at N = 13).  Returns
    their count."""
    xs = np.linspace(rect[0], rect[1], grid[0] + 1)
    ys = np.linspace(rect[2], rect[3], grid[1] + 1)
    cells = [
        (xs[i], xs[i + 1], ys[j], ys[j + 1])
        for i, j in np.argwhere(np.round(_winding_pass(exp, xs, ys)[0]) == 1)
    ]
    simple = [p.s for p in find_poles(exp, rect, grid=grid) if p.multiplicity == 1]
    assert len(simple) == len(cells), (exp.N, rect)
    for re0, re1, im0, im1 in cells:
        want = _polish_zero(exp, _cell_moments(exp, re0, re1, im0, im1)[0])
        got = min(simple, key=lambda s: abs(s - want))
        assert re0 <= got.real <= re1 and im0 <= got.imag <= im1, (exp.N, got)
        rounding = rounding_bound(exp.poly_coeff, exp.poly_tau, want)
        width = max(4 * np.spacing(abs(want)), 2 * rounding / abs(exp.derivative(want)))
        assert abs(got.real - want.real) <= width, (exp.N, got, want)
        assert abs(got.imag - want.imag) <= width, (exp.N, got, want)
    return len(cells)


def test_simple_zeros_polish_from_the_winding_pass(db13, monkeypatch):
    count = 0
    for N in range(9, 14):
        exp = build_determinant(restrict_database(db13, N), N)
        searches = default_searches(exp, monkeypatch)
        if N >= 12:  # below, the tall rectangle crosses the trust floor or the noise gate
            searches.append((TALL, (5, 11)))
        for rect, grid in searches:
            count += check_simple_zeros(exp, rect, grid)
    # the real zero at each N, and the zero near -0.1266 + 1.5165i at N = 12, 13
    assert count == 7
    for seed in (1, 2, 3):
        exp = build_determinant(build_database(moved_fixture(seed), 12), 12)
        assert sum(check_simple_zeros(exp, *search) for search in default_searches(exp, monkeypatch)) == 1
    # the unequal four disks' real zero near -0.0416 is trusted from N = 10
    exp = build_determinant(build_database(unequal_four_disks(), 10), 10)
    assert check_simple_zeros(exp, (-0.07, 0.05, -0.10, 0.10), (3, 3)) == 1


def test_only_multiple_zeros_take_a_simpson_moment(exp12, db13, monkeypatch):
    cells, found = [], []
    moments, search = contour._cell_moments, zeta.find_poles

    def counting_moments(exp, *cell, **kwargs):
        cells.append(cell)
        return moments(exp, *cell, **kwargs)

    def recording_search(exp, rect, grid):
        poles = search(exp, rect, grid=grid)
        found.extend(poles)
        return poles

    monkeypatch.setattr(contour, "_cell_moments", counting_moments)
    for exp in (exp12, build_determinant(db13, 13)):
        cells.clear()
        found.clear()
        with monkeypatch.context() as m:
            m.setattr(zeta, "find_poles", recording_search)
            _default_pole_search(exp)
        multiple = [p.s for p in found if p.multiplicity >= 2]
        assert len(multiple) == 1 and len(found) == 2
        assert len(cells) == len(multiple)
        for s in multiple:
            assert sum(a <= s.real <= b and c <= s.imag <= d for a, b, c, d in cells) == 1


def test_tracked_leading_pair_stable_under_truncation(exp10, exp12):
    poles = find_poles(exp12, (-0.31, -0.02, 0.20, 1.40), grid=(5, 6))
    z12 = poles[0].s
    winding, z10 = track_zero(exp10, z12, poles[0].multiplicity, radius=0.08)
    assert winding == poles[0].multiplicity
    assert abs(z10 - z12) < 1e-4


def test_track_zero_places_the_double_zero_as_find_poles_does(exp12):
    winding, s = track_zero(exp12, -0.264 + 0.814j, 2, radius=0.08)
    assert (winding, s) == (2, -0.2642759007815286 + 0.8139476138518361j)


def test_track_zero_refuses_a_box_without_a_zero(exp12):
    with pytest.raises(TrustRegionError, match="holds no zero"):
        track_zero(exp12, 0.3 + 0.5j, 1, radius=0.05)


def test_refusals_print_short_numbers_at_any_magnitude(exp10, monkeypatch):
    def refusal(phrase, call):
        with pytest.raises(TrustRegionError, match=phrase) as exc:
            call()
        return str(exc.value)

    far = 1e300 + 1e300j
    zero_far, no_zero = KnownZeros([(far, 1)]), KnownZeros([])
    messages = [
        # a contour up to the largest doubles meets the noise guard
        refusal("truncation noise", lambda: find_poles(exp10, (-0.2, 0.0, 0.0, 1e308))),
        refusal("outside the cell",
                lambda: contour._cell_zero(zero_far, 0.0, 1.0, 0.0, 1.0, 1, far)),
        refusal("holds no zero", lambda: track_zero(no_zero, far, 1)),
    ]
    monkeypatch.setattr(contour, "_cell_moments", lambda *args: (2e149j, 1e300 + 0j))
    monkeypatch.setattr(
        contour, "_winding_pass", lambda exp, xs, ys: (np.full((1, 1), 0.5), np.zeros((1, 1)))
    )
    messages += [
        refusal("not one multiple zero",
                lambda: contour._cell_zero(no_zero, -1e150, 1e150, 0.0, 1e150, 2, None)),
        refusal("non-integer winding",
                lambda: contour._grid_zeros(no_zero, (-1e300, 1e300), (0.0, 1e308))),
    ]
    for message in messages:
        assert len(message) < 200, message


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
