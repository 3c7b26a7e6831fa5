import numpy as np
import pytest

from billzeta.errors import DomainError
from billzeta.thermo import (
    build_potentials,
    closing_word,
    leading_eigenvalue,
    pressure,
    pressure_periodic,
    refinement_gap,
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


def test_refinement_gap_decays_over_two_steps(db8):
    pots = {k: build_potentials(db8, k) for k in range(2, 7)}
    gaps = {k: max(refinement_gap(pots[k], pots[k + 1])) for k in range(2, 6)}
    assert gaps[4] < gaps[2]
    assert gaps[5] < gaps[3]


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
