import numpy as np
import pytest

from billzeta.database import OrbitDatabase, build_database
from billzeta.geometry import Configuration, Disk
from billzeta.thermo import build_potentials, solve_abscissa
from billzeta.zeta import build_determinant


def equilateral_config(side: float = 6.0, radius: float = 1.0) -> Configuration:
    """Three unit disks centered on an equilateral triangle of the given
    side length; side 6 puts the disk boundaries exactly 4 apart."""
    circum = side / np.sqrt(3.0)
    disks = tuple(
        Disk(
            center=(
                circum * np.cos(np.pi / 2 + 2.0 * np.pi * k / 3.0),
                circum * np.sin(np.pi / 2 + 2.0 * np.pi * k / 3.0),
            ),
            radius=radius,
        )
        for k in range(3)
    )
    return Configuration(disks)


def unequal_four_disks() -> Configuration:
    """Four disks of unequal radii with no symmetry between them."""
    centers = [(0.0, 0.0), (7.0, 0.0), (7.5, 6.5), (0.5, 7.0)]
    radii = [1.0, 1.3, 0.8, 1.1]
    return Configuration(tuple(Disk(c, a) for c, a in zip(centers, radii)))


def restrict(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    return OrbitDatabase(db.config, n_max, [r for r in db.records if r.n <= n_max])


@pytest.fixture(scope="session")
def config():
    return equilateral_config()


@pytest.fixture(scope="session")
def db12(config):
    return build_database(config, 12)


@pytest.fixture(scope="session")
def db13(config):
    return build_database(config, 13)


@pytest.fixture(scope="session")
def db_four7():
    return build_database(unequal_four_disks(), 7)


@pytest.fixture(scope="session")
def db10(db12):
    return restrict(db12, 10)


@pytest.fixture(scope="session")
def db8(db12):
    return restrict(db12, 8)


@pytest.fixture(scope="session")
def pot6(db12):
    return build_potentials(db12, 6)


@pytest.fixture(scope="session")
def abscissas(db12, pot6):
    return {
        beta: solve_abscissa(db12, beta, "transfer", k=6, pot=pot6)
        for beta in (0.0, 0.5, 1.0)
    }


@pytest.fixture(scope="session")
def exp10(db10):
    return build_determinant(db10, 10)


@pytest.fixture(scope="session")
def exp12(db12):
    return build_determinant(db12, 12)
