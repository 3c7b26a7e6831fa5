import numpy as np
import pytest

from billzeta import thermo
from billzeta.database import build_database
from billzeta.errors import DomainError
from billzeta.geometry import Configuration, Disk
from billzeta.thermo import (
    PRESSURE_TOL,
    build_potentials,
    closing_word,
    leading_eigenvalue,
    pressure,
    pressure_periodic,
    sign_check_b1,
    solve_abscissa,
    twisted_spectral_test,
    twisted_unit_gap,
)
from tests.conftest import records


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
# The power iteration stalls at s = -0.75 (configuration 1, beta = 1) and
# s = +0.75 (configuration 5, beta = 0), about 0.5 past these roots, so a
# root search must not step that far from them.
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


def test_closing_word():
    assert closing_word((1, 2, 3)) == (1, 2, 3)
    assert closing_word((1, 2, 1)) == (1, 2)


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
