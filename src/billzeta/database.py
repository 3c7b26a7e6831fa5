"""Orbit database: every primitive cycle up to a length cutoff, solved
and equipped with stability data, plus the JSON-lines cache format.

Each length is one batch: :func:`orbits.solve_orbits` solves and
certifies its cycles, :func:`stability.stability_records` cross-checks
their stability, and nothing is solved twice.

The cache is keyed by a content hash of the configuration so stale data
is refused rather than silently reused, and a cache that lacks a cycle
or holds a damaged line is refused too.  Records are kept sorted by
(length, word); every consumer iterates in that order, which is what
makes downstream output byte-reproducible.
"""

import json
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import geometry, orbits, stability, symbolic
from .errors import DomainError, EclipseError, MalformedInputError, StaleCacheError

SOLVER_VERSION = 3
CACHE_FORMAT = "billzeta-orbit-cache/1"


@dataclass(frozen=True)
class OrbitRecord:
    """Solved primitive cycle with stability attached (one cache line)."""

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
        return stability.det_one_minus_poincare(self.lam, r)


class OrbitDatabase:
    def __init__(self, config, n_max: int, records):
        self.config = config
        self.config_hash = geometry.config_digest(config)
        self.n_max = int(n_max)
        self.records = sorted(records, key=lambda rec: (rec.n, rec.word))
        self.by_word = {rec.word: rec for rec in self.records}

    def __len__(self):
        return len(self.records)

    def record_for(self, word) -> OrbitRecord:
        word = tuple(word)
        rec = self.by_word.get(word)
        if rec is None:
            raise DomainError(f"orbit database has no cycle {word}")
        return rec


def build_database(config, n_max: int) -> OrbitDatabase:
    """Solve every primitive cycle of length 2..n_max.

    The configuration is validated first: a disk blocking a line of
    sight raises :class:`EclipseError`, any other failure a domain
    error.  All cycles of one length are solved and certified in one
    :func:`orbits.solve_orbits` batch and cross-checked in one
    :func:`stability.stability_records` batch; a row's result does not
    depend on its batch, so every record equals the lone solve of its
    word.
    """
    # no cycle is shorter than 2, so an empty database stops at n_max = 1
    return extend_database(OrbitDatabase(config, 1, []), n_max)


def extend_database(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    """``db`` plus every primitive cycle of length db.n_max+1..n_max.

    The records of ``db`` are kept as they are and only the new lengths
    are solved, each in one batch as in :func:`build_database`.  A row's
    result does not depend on its batch, so the extended database equals
    a fresh build to the bit.
    """
    config = db.config
    report = geometry.validate(config)
    if report.bad_triples:
        raise EclipseError(f"configuration rejected: {report.summary()}")
    if not report.ok:
        raise DomainError(f"configuration rejected: {report.summary()}")
    words = symbolic.enumerate_cycles(config.r, n_max)
    records = list(db.records)
    for n in range(db.n_max + 1, n_max + 1):
        solved = orbits.solve_orbits(config, [w for w in words if len(w) == n])
        records += [
            OrbitRecord(
                word=orbit.word,
                T=orbit.T,
                angles=orbit.angles,
                flights=orbit.flights,
                cos_incidence=orbit.cos_incidence,
                residual=orbit.residual,
                kappa=stab.kappa,
                lam=stab.lam,
                shadow_margin=orbit.shadow_margin,
            )
            for orbit, stab in zip(solved, stability.stability_records(config, solved))
        ]
    return OrbitDatabase(config, n_max, records)


def _record_to_json(rec: OrbitRecord) -> dict:
    return {
        "word": list(rec.word),
        "angles": [float(v) for v in rec.angles],
        "T": float(rec.T),
        "flights": [float(v) for v in rec.flights],
        "cos_incidence": [float(v) for v in rec.cos_incidence],
        "residual": float(rec.residual),
        "kappa": [float(v) for v in rec.kappa],
        "lam": float(rec.lam),
        "shadow_margin": float(rec.shadow_margin),
        "solver_version": SOLVER_VERSION,
    }


def _record_from_json(obj) -> OrbitRecord:
    if obj.get("solver_version") != SOLVER_VERSION:
        raise StaleCacheError(
            f"cache record has solver_version {obj.get('solver_version')}, "
            f"expected {SOLVER_VERSION}; rebuild with `billzeta orbits`"
        )
    return OrbitRecord(
        word=tuple(int(v) for v in obj["word"]),
        T=float(obj["T"]),
        angles=np.array(obj["angles"], dtype=float),
        flights=np.array(obj["flights"], dtype=float),
        cos_incidence=np.array(obj["cos_incidence"], dtype=float),
        residual=float(obj["residual"]),
        kappa=np.array(obj["kappa"], dtype=float),
        lam=float(obj["lam"]),
        shadow_margin=float(obj.get("shadow_margin", np.inf)),
    )


def save_database(db: OrbitDatabase, path) -> None:
    """Write the cache to a temporary file next to ``path``, then move it
    into place, so an interrupted write never leaves a partial cache."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            header = {
                "format": CACHE_FORMAT,
                "config": db.config.to_dict(),
                "config_hash": db.config_hash,
                "n_max": db.n_max,
                "solver_version": SOLVER_VERSION,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in db.records:
                fh.write(json.dumps(_record_to_json(rec), sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_database(path, config=None) -> OrbitDatabase:
    """Read a cache written by :func:`save_database`, refusing hash or
    schema mismatches.

    The cache embeds its configuration, so ``config`` is optional; when
    given, its digest must match the cached one or the cache is stale.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read orbit cache {path}: {exc}") from exc
    if not lines:
        raise MalformedInputError(f"orbit cache {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"orbit cache {path} has a bad header") from exc
    if not isinstance(header, dict) or header.get("format") != CACHE_FORMAT:
        fmt = header.get("format") if isinstance(header, dict) else header
        raise MalformedInputError(f"orbit cache {path}: unknown format {fmt!r}")
    if header.get("solver_version") != SOLVER_VERSION:
        raise StaleCacheError(
            f"orbit cache {path} was written by solver version "
            f"{header.get('solver_version')!r}, this build expects {SOLVER_VERSION}; "
            f"re-run `billzeta orbits` to rebuild it"
        )
    if "config" not in header:
        raise MalformedInputError(f"orbit cache {path} carries no configuration")
    cached = geometry.config_from_dict(header["config"])
    if geometry.config_digest(cached) != header.get("config_hash"):
        raise MalformedInputError(
            f"orbit cache {path}: embedded configuration does not match its hash"
        )
    if config is not None:
        want = geometry.config_digest(config)
        if header.get("config_hash") != want:
            raise StaleCacheError(
                f"orbit cache {path} was built for configuration "
                f"{header.get('config_hash', '?')[:12]}..., current configuration is "
                f"{want[:12]}...; re-run `billzeta orbits --config <file> --cache "
                f"{path}` to rebuild it"
            )
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(_record_from_json(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedInputError(
                f"orbit cache {path}: line {lineno} is not a valid record "
                f"({type(exc).__name__}: {exc}); re-run `billzeta orbits` to rebuild it"
            ) from exc
    n_max = int(header.get("n_max", 0))
    counts = Counter(rec.n for rec in records)
    for n in sorted(set(counts) | set(range(2, n_max + 1))):
        want = symbolic.primitive_class_count(cached.r, n) if 2 <= n <= n_max else 0
        if counts[n] != want:
            raise MalformedInputError(
                f"orbit cache {path} holds {counts[n]} cycles of length {n}, "
                f"expected {want}; re-run `billzeta orbits` to rebuild it"
            )
    return OrbitDatabase(cached, n_max, records)
