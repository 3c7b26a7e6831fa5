import contextlib
import hashlib
import io

import numpy as np
import pytest

from billzeta import cli, thermo
from billzeta.database import OrbitDatabase, build_database, save_database
from billzeta.errors import DomainError, MalformedInputError, PowerIterationError
from billzeta.geometry import Configuration, Disk, save_config
from billzeta.thermo import (
    POWER_MAX_ITER,
    POWER_TOL,
    PRESSURE_TOL,
    build_potentials,
    leading_eigenvalue,
    pressure,
    pressure_periodic,
    sign_check_b1,
    solve_abscissa,
    twisted_spectral_test,
    twisted_unit_gap,
)
from tests.conftest import (
    nearly_equilateral,
    records,
    square_four_disks,
    take_rows,
    unequal_four_disks,
)
from tests.oracles import canonical_rotation, enumerate_words, primitive_root


def test_memory_one_potential_is_uniform(db8):
    pot = build_potentials(db8, 1)
    assert np.ptp(pot.edge_f) < 1e-12
    assert np.ptp(pot.edge_g) < 1e-12
    assert abs(pot.edge_f[0] - 4.0) < 1e-12
    assert abs(pot.edge_g[0] + np.log(5.0 + 2.0 * np.sqrt(6.0))) < 1e-10


def test_memory_one_pressure_closed_form(db8):
    pot = build_potentials(db8, 1)
    g = -np.log(5.0 + 2.0 * np.sqrt(6.0))
    for s, beta in [(0.0, 0.0), (0.1, 0.5), (-0.2, 1.0), (0.3, 0.25)]:
        assert abs(pressure(pot, s, beta) - (np.log(2.0) - 4.0 * s + beta * g)) < 1e-10


def test_memory_one_abscissa_closed_form(db8):
    g = -np.log(5.0 + 2.0 * np.sqrt(6.0))
    for beta in (0.0, 0.5, 1.0):
        expected = (np.log(2.0) + beta * g) / 4.0
        got = solve_abscissa(db8, beta, "transfer", k=1)
        assert abs(got - expected) < 1e-9


@pytest.mark.parametrize("method", ["transfer", "periodic"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_root_takes_few_pressure_calls(monkeypatch, db12, pot6, beta, method):
    calls = []
    for name in ("pressure", "pressure_periodic"):
        real = getattr(thermo, name)
        monkeypatch.setattr(thermo, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    root = solve_abscissa(db12, beta, method, k=6, n=10, pot=pot6)
    monkeypatch.undo()
    assert 2 <= len(calls) <= 8
    if method == "transfer":
        value = pressure(pot6, root, beta)
    else:
        value = pressure_periodic(db12, root, beta, 10)
    assert abs(value) <= PRESSURE_TOL


# The second and sixth configurations of the benchmark's random_disk_configs(7).
# Power iteration without the shift fails at s = -0.75 (configuration 1,
# beta = 1) and s = +0.75 (configuration 5, beta = 0), about 0.5 past
# these roots, and at s = +0.5 (configuration 5, beta = 1).
SEED7_DISKS = {
    1: (
        ((-0.5407035947953744, 6.674684371085636), 1.1292262544910106),
        ((0.22588234559222187, -0.050025033703931854), 0.7475149220273308),
        ((-7.811295591319906, -4.92156569623503), 1.1920321208818392),
    ),
    5: (
        ((0.8372238026762204, -5.111160024817414), 1.38405689419647),
        ((2.265147283559692, 1.115108391580927), 0.8762878361299201),
        ((-1.4247154854859225, -4.168172597090482), 0.5380572866912391),
    ),
}


@pytest.mark.parametrize(
    "which, beta, expected", [(1, 1.0, -0.2547311905), (5, 0.0, 0.2665006618)]
)
def test_roots_near_a_slow_power_iteration(which, beta, expected):
    config = Configuration(tuple(Disk(c, a) for c, a in SEED7_DISKS[which]))
    db = build_database(config, 8)
    assert abs(solve_abscissa(db, beta, "transfer", k=6) - expected) < 1e-9


def test_cross_method_agreement(db8):
    for beta in (0.0, 0.5, 1.0):
        transfer = solve_abscissa(db8, beta, "transfer", k=5)
        periodic = solve_abscissa(db8, beta, "periodic", n=8)
        assert abs(transfer - periodic) < 5e-3


def test_abscissa_ordering(abscissas):
    h, a1, b1 = abscissas[0.0], abscissas[0.5], abscissas[1.0]
    assert b1 < a1 < h
    assert a1 - b1 > 1e-3
    assert h - a1 > 1e-3


def test_periodic_pressure_matches_hand_sum(db8):
    s, beta, n = 0.07, 0.6, 4
    total = 0.0
    for rec in records(db8):
        if rec.n > n or n % rec.n != 0:
            continue
        reps = n // rec.n
        total += rec.n * np.exp(-s * reps * rec.T - beta * reps * rec.d_gamma)
    assert abs(pressure_periodic(db8, s, beta, n) - np.log(total) / n) < 1e-12


def test_sign_of_full_potential_pressure(pot6):
    sign, value = sign_check_b1(pot6)
    assert sign == -1
    assert value < -1.0


def test_twisted_spectrum_matches_untwisted(pot6, abscissas):
    b1 = abscissas[1.0]
    lam_plain, lam_twisted = twisted_spectral_test(pot6, b1)
    assert abs(lam_plain - 1.0) < 1e-8
    # one reflection per symbol: the twist is the constant -1, same modulus
    assert abs(lam_twisted - lam_plain) < 1e-9
    assert twisted_unit_gap(pot6, b1) > 0.4


def test_depth_requirement(db8):
    with pytest.raises(DomainError):
        build_potentials(db8, 8)


def closing_word(word):
    """Periodic word whose orbit realizes the cylinder: drop the last
    symbol when it repeats the first, otherwise the word itself."""
    if len(word) >= 2 and word[0] == word[-1]:
        return word[:-1]
    return word


def cylinder_values(db, word):
    """(flight, g) of the center bounce of the cylinder of ``word``, one
    word at a time: the word is closed, reduced to its primitive root and
    looked up by its canonical rotation."""
    k = len(word) - 1
    root, _ = primitive_root(closing_word(word))
    canon, shift = canonical_rotation(root)
    m = (k // 2) % len(root)
    at = db.bounds[db.row(canon)] + (m - shift) % len(root)
    f = float(db.flights[at])
    return f, -np.log1p(f * float(db.kappa[at]))


def reference_potentials(db, k):
    """The states and the edge arrays of :func:`build_potentials` by the
    per-word loop over the transfer graph."""
    states = enumerate_words(db.config.r, k)
    index = {w: i for i, w in enumerate(states)}
    rows, cols, fs, gs = [], [], [], []
    for u in states:
        for a in range(1, db.config.r + 1):
            if a != u[-1]:
                f, g = cylinder_values(db, u + (a,))
                rows.append(index[u])
                cols.append(index[(u + (a,))[1:]])
                fs.append(f)
                gs.append(g)
    edges = (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(fs),
             np.array(gs))
    return tuple(states), edges


def test_closing_word():
    assert closing_word((1, 2, 3)) == (1, 2, 3)
    assert closing_word((1, 2, 1)) == (1, 2)


@pytest.fixture(scope="module")
def db_square7():
    return build_database(square_four_disks(), 7)


@pytest.mark.parametrize("name", ["db12", "db_four7", "db_square7", "db_nearly8"])
def test_potentials_equal_the_per_word_loop(request, name):
    db = request.getfixturevalue(name)
    for k in range(1, 7):
        pot = build_potentials(db, k)
        states, edges = reference_potentials(db, k)
        assert pot.n_states == len(states)
        for got, want in zip((pot.edge_row, pot.edge_col, pot.edge_f, pot.edge_g), edges):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, k)


def test_potentials_need_no_per_word_lookup(monkeypatch, db12, pot6):
    def refuse(*args):
        raise AssertionError("per-word lookup")

    monkeypatch.setattr(OrbitDatabase, "row", refuse)
    pot = build_potentials(db12, 6)
    for name in ("edge_row", "edge_col", "edge_f", "edge_g"):
        assert getattr(pot, name).tobytes() == getattr(pot6, name).tobytes()


@pytest.mark.parametrize(
    "dropped, k",
    [
        # the first cycle of its length, the last of its length (past every
        # word the search meets), and every cycle of a length
        ([(1, 2, 3)], 3),
        ([(1, 3, 2)], 2),
        ([(1, 2), (1, 3), (2, 3)], 1),
        ([(2, 3)], 4),
    ],
)
def test_potentials_name_a_missing_cycle(db8, dropped, k):
    gone = {db8.row(word) for word in dropped}
    db = take_rows(db8, [row for row in range(len(db8)) if row not in gone])
    with pytest.raises(DomainError) as want:
        reference_potentials(db, k)
    # a cache that lacks a cycle is malformed: the load checks its counts,
    # so another word stands in the cycle's place
    with pytest.raises(MalformedInputError) as got:
        build_potentials(db, k)
    assert str(got.value) == f"{want.value}; re-run `billzeta orbits` to rebuild it"
    assert str(got.value).startswith("orbit database has no cycle ")


def reference_leading_eigenvalue(B):
    """The power iteration with a new array for every step."""
    n = B.shape[0]
    x = np.full(n, 1.0 / n)
    width = np.inf
    for step in range(POWER_MAX_ITER):
        y = B @ x
        norm = float(np.sum(y))
        if norm <= 0.0 or not np.isfinite(norm):
            raise PowerIterationError("transfer matrix iterate left the positive cone")
        ratios = y / x
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        lam = 0.5 * (lo + hi)
        if step >= thermo.POWER_SHIFT_AFTER:
            y = y + lo * x
            norm = float(np.sum(y))
        x = y / norm
        if hi - lo <= POWER_TOL * abs(lam):
            return lam
        if width <= hi - lo <= thermo.POWER_STALL_TOL * abs(lam):
            return lam
        width = hi - lo
    raise PowerIterationError("stalled")


def test_leading_eigenvalue_equals_the_allocating_loop(pot6, db_four7):
    four = build_potentials(db_four7, 4)
    for pot in (pot6, four):
        for s, beta in ((0.0, 0.0), (0.3, 0.5), (-0.2, 1.0), (0.11, -0.4), (0.0, 1.0)):
            B = pot.matrix(s, beta)
            assert leading_eigenvalue(B) == reference_leading_eigenvalue(B)
    for B in (np.zeros((3, 3)), np.full((2, 2), np.inf), np.full((2, 2), np.nan)):
        with pytest.raises(PowerIterationError, match="positive cone"):
            leading_eigenvalue(B)


# sha256 of the tables on the fixture, recorded while the potentials were
# still built one word at a time and the power iteration allocated every step
THERMO_DIGESTS = {
    10: {
        "abscissas.csv": "9ec6c61ab700ec0ea8c5c920def0122fb09c57ca41117e694d6e4eccb7e7da44",
        "counting.csv": "8b62c0f02913fdf3db603874d466c5321244f07e4cf490135a7a117eda21f3f9",
    },
    12: {
        "abscissas.csv": "6a7fad2347291e96cb764a978cf60ac9812ece487491f24dd324a624cd32bb90",
        "counting.csv": "91294713e5594cb66e5a05afed413644fc5e4d89d51d1fb3a1b61a685f6ba59e",
    },
}


def test_thermo_tables_are_pinned(tmp_path, db10, db12):
    for db in (db10, db12):
        cache = tmp_path / f"cache{db.n_max}"
        save_database(db, cache)
        for name, digest in THERMO_DIGESTS[db.n_max].items():
            sub, out = name.removesuffix(".csv"), tmp_path / f"out{db.n_max}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([sub, "--cache", str(cache), "--out", str(out)]) == 0
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (db.n_max, name)


# Configuration 5 of the benchmark's random_disk_configs(2): a far disk and
# a close pair.  At nmax 8 and memory 6 the transfer matrix of b1's first
# pressure call, s = 0, has lambda_2 / lambda = -0.9964, and its secant
# step to s = -0.94 one of -0.99997.
DISKS5 = (
    ((-4.139996641481185, -5.548890922669019), 0.8906069372129758),
    ((1.1012503630258887, 7.368460174728876), 1.2105055856164184),
    ((3.8150808107140666, 7.563472860969979), 0.7677431627585899),
)


@pytest.fixture(scope="module")
def disks5():
    db = build_database(Configuration(tuple(Disk(c, a) for c, a in DISKS5)), 8)
    return db, build_potentials(db, 6)


def perron_root(B):
    return float(np.max(np.abs(np.linalg.eigvals(B))))


def test_abscissas_of_a_far_disk_and_a_close_pair(tmp_path, disks5, capsys):
    db, pot = disks5
    config = tmp_path / "disks5.json"
    save_config(db.config, config)
    assert cli.main(["abscissas", "--config", str(config), "--nmax", "8"]) == 0
    assert "b1: transfer(k=6) -0.2306593042" in capsys.readouterr().out
    for s in (0.0, -0.9416795561307383):
        B = pot.matrix(s, 1.0)
        assert abs(leading_eigenvalue(B) - perron_root(B)) <= 1e-12 * perron_root(B)


@pytest.mark.parametrize("which, s, beta", [(1, -0.75, 1.0), (5, 0.75, 0.0), (5, 0.5, 1.0)])
def test_shifted_steps_close_a_slow_bracket(which, s, beta):
    config = Configuration(tuple(Disk(c, a) for c, a in SEED7_DISKS[which]))
    B = build_potentials(build_database(config, 8), 6).matrix(s, beta)
    assert abs(leading_eigenvalue(B) - perron_root(B)) <= 1e-12 * perron_root(B)


def test_a_bracket_that_stops_shrinking_is_accepted_within_its_bound(disks5, monkeypatch):
    # without the shift the bracket of s = 0 stops shrinking at a width
    # of 1.05e-13 times the eigenvalue, above POWER_TOL
    B = disks5[1].matrix(0.0, 1.0)
    monkeypatch.setattr(thermo, "POWER_SHIFT_AFTER", POWER_MAX_ITER)
    assert abs(leading_eigenvalue(B) - perron_root(B)) <= 1e-12 * perron_root(B)
    assert leading_eigenvalue(B) == reference_leading_eigenvalue(B)
    # a stall above the bound iterates on and fails
    monkeypatch.setattr(thermo, "POWER_STALL_TOL", 1e-14)
    monkeypatch.setattr(thermo, "POWER_MAX_ITER", 20000)
    with pytest.raises(PowerIterationError, match="power iteration stalled"):
        leading_eigenvalue(B)


def test_leading_eigenvalue_known_matrix():
    lam = leading_eigenvalue(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert abs(lam - (1.0 + np.sqrt(6.0))) < 1e-11


def test_pressure_decreases_in_s(pot6):
    values = [pressure(pot6, s, 0.5) for s in (-0.2, 0.0, 0.2)]
    assert values[0] > values[1] > values[2]


def reference_pressure_periodic(db, s, beta, n):
    """The periodic-point sum added record by record."""
    total = 0.0
    for rec in records(db):
        if n % rec.n == 0:
            reps = n // rec.n
            total += rec.n * np.exp(-s * reps * rec.T - beta * reps * rec.d_gamma)
    return float(np.log(total) / n)


@pytest.mark.parametrize("name", ["db12", "db_four7"])
def test_pressure_periodic_equals_the_record_loop(request, name):
    db = request.getfixturevalue(name)
    for s, beta in ((0.0, 0.0), (0.3, 0.5), (-0.2, 1.0), (0.11, -0.4)):
        for n in range(2, db.n_max + 1):
            assert pressure_periodic(db, s, beta, n) == reference_pressure_periodic(db, s, beta, n)
