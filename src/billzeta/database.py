"""Orbit database: every primitive cycle up to a length cutoff, solved
and equipped with stability data, plus the binary cache format.

Each length is one batch: :func:`orbits.solve_orbits` solves and
certifies its cycles, :func:`stability.stability_records` cross-checks
their stability, and nothing is solved twice.

Records are kept sorted by (length, word); every consumer iterates in
that order, which is what makes downstream output byte-reproducible.
The database also holds the ``n``, ``T`` and ``lam`` columns of its
records, and ``derived`` memoises arrays that consumers build from
them.

The cache (``billzeta-orbit-cache/2``) is one JSON header line followed
by raw little-endian sections, one column each, in the order of
:data:`SECTIONS`: the cycle lengths, the flat word symbols, four scalars
per cycle, and four per-bounce arrays flattened in record order and
split again by length.  The header holds the configuration, its content
hash, ``n_max``, the solver version, and each section's name, dtype,
count and sha256 digest.  A stale cache (another configuration, solver
version or format) is refused rather than silently reused, and so is a
cache that lacks a cycle, holds a damaged byte, or runs short or long.
Stored values are the solver's doubles to the bit, as JSON ``repr``
kept them in format ``/1``.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import geometry, orbits, stability, symbolic
from .errors import DomainError, EclipseError, MalformedInputError, StaleCacheError

SOLVER_VERSION = 3
CACHE_FORMAT = "billzeta-orbit-cache/2"
OLD_CACHE_FORMAT = "billzeta-orbit-cache/1"
SCALARS = ("T", "residual", "lam", "shadow_margin")
PER_BOUNCE = ("angles", "flights", "cos_incidence", "kappa")
# (name, dtype) of every cache section, in file order
SECTIONS = (
    ("n", "<i8"),
    ("word", "<i8"),
    *((name, "<f8") for name in SCALARS),
    *((name, "<f8") for name in PER_BOUNCE),
)


@dataclass(frozen=True)
class OrbitRecord:
    """Solved primitive cycle with stability attached."""

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


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class OrbitDatabase:
    def __init__(self, config, n_max: int, records):
        self.config = config
        self.config_hash = geometry.config_digest(config)
        self.n_max = int(n_max)
        self.records = tuple(sorted(records, key=lambda rec: (rec.n, rec.word)))
        self.by_word = {rec.word: rec for rec in self.records}
        self.n = _column([rec.n for rec in self.records], np.int64)
        self.T = _column([rec.T for rec in self.records], float)
        self.lam = _column([rec.lam for rec in self.records], float)
        # arrays built from the columns, keyed by their builder and arguments
        self.derived = {}

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


def _encode(db: OrbitDatabase) -> bytes:
    """The cache file of ``db``: header line, then every section's bytes."""
    records = db.records
    columns = {
        "n": db.n,
        "word": [s for rec in records for s in rec.word],
        **{name: [getattr(rec, name) for rec in records] for name in SCALARS},
        **{
            name: np.concatenate([getattr(rec, name) for rec in records] or [np.empty(0)])
            for name in PER_BOUNCE
        },
    }
    entries, payload = [], []
    for name, dtype in SECTIONS:
        data = np.asarray(columns[name], dtype=dtype).tobytes()
        entries.append(
            {
                "name": name,
                "dtype": dtype,
                "count": len(data) // np.dtype(dtype).itemsize,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        payload.append(data)
    header = {
        "format": CACHE_FORMAT,
        "config": db.config.to_dict(),
        "config_hash": db.config_hash,
        "n_max": db.n_max,
        "solver_version": SOLVER_VERSION,
        "sections": entries,
    }
    return b"".join([json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", *payload])


def save_database(db: OrbitDatabase, path) -> None:
    """Write the cache to a temporary file next to ``path``, then move it
    into place, so an interrupted write never leaves a partial cache."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_encode(db))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_header(path, blob: bytes):
    line, newline, _ = blob.partition(b"\n")
    if not newline:
        raise MalformedInputError(f"orbit cache {path} has no header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"orbit cache {path} has a bad header") from exc
    fmt = header.get("format") if isinstance(header, dict) else header
    if fmt == OLD_CACHE_FORMAT:
        raise StaleCacheError(
            f"orbit cache {path} has the retired format {fmt}; re-run "
            f"`billzeta orbits --config <file> --cache {path} --nmax <n>` to rebuild it"
        )
    if fmt != CACHE_FORMAT:
        raise MalformedInputError(f"orbit cache {path}: unknown format {fmt!r}")
    if header.get("solver_version") != SOLVER_VERSION:
        raise StaleCacheError(
            f"orbit cache {path} was written by solver version "
            f"{header.get('solver_version')!r}, this build expects {SOLVER_VERSION}; "
            f"re-run `billzeta orbits` to rebuild it"
        )
    if not isinstance(header.get("n_max"), int):
        raise MalformedInputError(f"orbit cache {path} has no integer n_max")
    if "config" not in header:
        raise MalformedInputError(f"orbit cache {path} carries no configuration")
    return header, len(line) + 1


def _read_sections(path, header: dict, blob: bytes, offset: int) -> dict:
    """Every section as a read-only array over ``blob``, after its dtype,
    length and digest are checked; bytes past the last section are
    refused."""
    entries = header.get("sections")
    if not isinstance(entries, list) or len(entries) != len(SECTIONS):
        raise MalformedInputError(f"orbit cache {path} does not list its {len(SECTIONS)} sections")
    columns = {}
    for entry, (name, dtype) in zip(entries, SECTIONS):
        if not isinstance(entry, dict) or (entry.get("name"), entry.get("dtype")) != (name, dtype):
            raise MalformedInputError(f"orbit cache {path}: section {name} is not listed as {dtype}")
        if name == "n":
            want = None
        else:
            want = len(columns["n"]) if name in SCALARS else int(columns["n"].sum())
        count = entry.get("count")
        if not isinstance(count, int) or count < 0 or want not in (None, count):
            raise MalformedInputError(
                f"orbit cache {path}: section {name} lists {count!r} values, expected {want}"
            )
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise MalformedInputError(
                f"orbit cache {path}: section {name} is cut short "
                f"({max(len(blob) - offset, 0)} of {end - offset} bytes)"
            )
        if hashlib.sha256(blob[offset:end]).hexdigest() != entry.get("sha256"):
            raise MalformedInputError(f"orbit cache {path}: section {name} fails its sha256 check")
        columns[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset = end
    if offset != len(blob):
        raise MalformedInputError(
            f"orbit cache {path} has {len(blob) - offset} bytes after its last section"
        )
    return columns


def load_database(path, config=None) -> OrbitDatabase:
    """Read a cache written by :func:`save_database`, refusing hash or
    schema mismatches.

    The cache embeds its configuration, so ``config`` is optional; when
    given, its digest must match the cached one or the cache is stale.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read orbit cache {path}: {exc}") from exc
    header, offset = _read_header(path, blob)
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
    columns = _read_sections(path, header, blob, offset)
    n_max, n = header["n_max"], columns["n"]
    lengths, counts = np.unique(n, return_counts=True)
    counts = dict(zip(lengths.tolist(), counts.tolist()))
    for length in sorted(set(counts) | set(range(2, n_max + 1))):
        want = symbolic.primitive_class_count(cached.r, length) if 2 <= length <= n_max else 0
        if counts.get(length, 0) != want:
            raise MalformedInputError(
                f"orbit cache {path} holds {counts.get(length, 0)} cycles of length "
                f"{length}, expected {want}; re-run `billzeta orbits` to rebuild it"
            )
    bounds = np.concatenate(([0], np.cumsum(n))).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    word = columns["word"].tolist()
    T, residual, lam, margin = (columns[name].tolist() for name in SCALARS)
    angles, flights, cos_incidence, kappa = (columns[name] for name in PER_BOUNCE)
    records = [
        OrbitRecord(
            word=tuple(word[a:b]),
            T=T[i],
            angles=angles[a:b],
            flights=flights[a:b],
            cos_incidence=cos_incidence[a:b],
            residual=residual[i],
            kappa=kappa[a:b],
            lam=lam[i],
            shadow_margin=margin[i],
        )
        for i, (a, b) in enumerate(spans)
    ]
    return OrbitDatabase(cached, n_max, records)
