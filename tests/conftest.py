import itertools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from billzeta import database
from billzeta.database import OrbitDatabase, build_database, restrict_database
from billzeta.geometry import VALIDATE_TOL, Configuration, Disk
from billzeta.stability import det_one_minus_poincare
from billzeta.symbolic import canonical_rotation, enumerate_cycles
from billzeta.thermo import build_potentials, solve_abscissa
from billzeta.zeta import PERIOD_ULPS, build_determinant


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict:
    """The environment of a ``python`` subprocess that imports billzeta:
    this checkout's ``src`` goes in front of any ``PYTHONPATH``, so the
    subprocess finds the package however pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


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


def moved_equilateral(seed: int) -> Configuration:
    """The equilateral fixture under a rotation, a translation and a
    relabelling of its disks, drawn from ``default_rng(seed)`` in that
    order."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(-2.0, 2.0, size=2)
    order = rng.permutation(3)
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    base = equilateral_config()
    return Configuration(
        tuple(Disk(turn @ base.centers[k] + shift, base.radii[k]) for k in order)
    )


def square_four_disks() -> Configuration:
    """Four unit disks on the corners of a square of side 6."""
    return Configuration(tuple(Disk(c, 1.0) for c in [(0, 0), (6, 0), (6, 6), (0, 6)]))


def isosceles_three_disks() -> Configuration:
    """Three unit disks on an isosceles, not equilateral, triangle."""
    return Configuration(tuple(Disk(c, 1.0) for c in [(-3, 0), (3, 0), (0, 7)]))


def nearly_equilateral() -> Configuration:
    """The fixture with each centre moved by a few 1e-11 in its own
    direction: symmetric within ``VALIDATE_TOL``, but the periods of a
    cycle's images differ by far more than ``PERIOD_ULPS`` ulp."""
    base = equilateral_config()
    moves = 1e-11 * np.array([(1.0, 0.0), (0.0, -2.0), (3.0, 1.0)])
    return Configuration(
        tuple(Disk(c + m, a) for c, m, a in zip(base.centers, moves, base.radii))
    )


def cycles(r: int, n_max: int, n_min: int = 2) -> list:
    """The rows of :func:`enumerate_cycles` as word tuples, the padding
    dropped."""
    return [tuple(s for s in row if s) for row in enumerate_cycles(r, n_max, n_min).tolist()]


def brute_force_symmetries(config: Configuration) -> tuple:
    """Every permutation of the disks that keeps the radii and the centre
    distances to ``VALIDATE_TOL``, tried one by one."""
    c, a = config.centers, config.radii
    dist = np.linalg.norm(c[:, None] - c[None, :], axis=2)
    return tuple(
        perm
        for perm in itertools.permutations(range(config.r))
        if np.all(np.abs(a[list(perm)] - a) <= VALIDATE_TOL)
        and np.all(np.abs(dist[np.ix_(perm, perm)] - dist) <= VALIDATE_TOL)
    )


def brute_force_class(word, symmetries) -> tuple:
    """The least canonical rotation of the images of ``word`` under each
    label permutation and under it followed by reversal."""
    images = []
    for perm in symmetries:
        image = tuple(perm[s - 1] + 1 for s in word)
        images += [canonical_rotation(image)[0], canonical_rotation(image[::-1])[0]]
    return min(images)


def brute_force_class_periods(db: OrbitDatabase, N: int, symmetries=None) -> dict:
    """word -> the period each cycle with n <= N takes when periods are
    shared along the label symmetries and time reversal: its class
    representative's (:func:`brute_force_class` under ``symmetries``, by
    default :func:`brute_force_symmetries`) when within ``PERIOD_ULPS``
    ulp of its own, else its time-reversal representative's (the class
    under the identity alone) when within ``PERIOD_ULPS`` ulp, else its
    own."""
    own = {rec.word: rec.T for rec in records(db) if rec.n <= N}
    if symmetries is None:
        symmetries = brute_force_symmetries(db.config)
    identity = (tuple(range(db.config.r)),)
    periods = {}
    for word, T in own.items():
        periods[word] = T
        for group in (symmetries, identity):
            shared = own[brute_force_class(word, group)]
            if abs(T - shared) <= PERIOD_ULPS * np.spacing(max(T, shared)):
                periods[word] = shared
                break
    return periods


@dataclass(frozen=True)
class OrbitRecord:
    """One cycle of an :class:`OrbitDatabase` as an object: the record
    view that tests read the columns through."""

    word: tuple
    T: float
    angles: np.ndarray
    flights: np.ndarray
    cos_incidence: np.ndarray
    residual: float
    kappa: np.ndarray
    lam: float  # signed expanding eigenvalue per primitive period
    shadow_margin: float

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def lam_abs(self) -> float:
        return abs(self.lam)

    @property
    def sign(self) -> int:
        return -1 if self.lam < 0 else 1

    @property
    def d_gamma(self) -> float:
        return float(np.log(abs(self.lam)))

    def det_one_minus_p(self, r: int = 1) -> float:
        return det_one_minus_poincare(self.lam, r)


def _records_at(db: OrbitDatabase, start: int, stop: int) -> list:
    """Rows ``start..stop-1`` as records; the per-bounce arrays are views
    of the columns."""
    a, b = int(db.bounds[start]), int(db.bounds[stop])
    spans = (db.bounds[start : stop + 1] - a).tolist()
    word = db.word[a:b].tolist()
    T, residual, lam, margin = (getattr(db, name)[start:stop].tolist() for name in database.SCALARS)
    angles, flights, cos_incidence, kappa = (getattr(db, name)[a:b] for name in database.PER_BOUNCE)
    return [
        OrbitRecord(
            word=tuple(word[lo:hi]),
            T=T[i],
            angles=angles[lo:hi],
            flights=flights[lo:hi],
            cos_incidence=cos_incidence[lo:hi],
            residual=residual[i],
            kappa=kappa[lo:hi],
            lam=lam[i],
            shadow_margin=margin[i],
        )
        for i, (lo, hi) in enumerate(zip(spans, spans[1:]))
    ]


def records(db: OrbitDatabase) -> tuple:
    """Every cycle of ``db`` as an :class:`OrbitRecord`, in row order;
    built on the first call for ``db`` and kept in ``db.derived``."""
    if "records" not in db.derived:
        db.derived["records"] = tuple(_records_at(db, 0, len(db)))
    return db.derived["records"]


def record_for(db: OrbitDatabase, word) -> OrbitRecord:
    row = db.row(word)
    return _records_at(db, row, row + 1)[0]


def take_rows(db: OrbitDatabase, rows) -> OrbitDatabase:
    """``db`` with its rows taken in the order ``rows``."""
    flat = np.concatenate([np.arange(db.bounds[i], db.bounds[i + 1]) for i in rows])
    columns = {
        name: getattr(db, name)[rows if name in database.PER_CYCLE else flat]
        for name, _ in database.SECTIONS
    }
    return OrbitDatabase(db.config, db.n_max, columns)


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
def db_square7():
    return build_database(square_four_disks(), 7)


@pytest.fixture(scope="session")
def db_nearly8():
    return build_database(nearly_equilateral(), 8)


@pytest.fixture(scope="session")
def db10(db12):
    return restrict_database(db12, 10)


@pytest.fixture(scope="session")
def db8(db12):
    return restrict_database(db12, 8)


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
