"""Orbit database: every primitive cycle up to a length cutoff, solved
and equipped with stability data, plus the binary cache format.

Each length is one batch: :func:`orbits.solve_orbits` solves and
certifies its cycles, :func:`stability.stability_records` cross-checks
their stability, and nothing is solved twice.  Both return columns, one
row per cycle, which are concatenated into the database's columns; no
object is built per cycle on the way from the Newton batch to the cache.

The columns are the database.  An :class:`OrbitDatabase` holds one
read-only array per cache section, in the order of :data:`SECTIONS`:
``n`` and the scalars ``T``, ``residual``, ``lam`` and ``shadow_margin``
hold one value per cycle, while ``word`` and the per-bounce arrays
``angles``, ``flights``, ``cos_incidence`` and ``kappa`` are flat, with
cycle ``i`` at ``bounds[i]:bounds[i + 1]``.  Rows are sorted by
(length, word); every consumer reads them in that order, which is what
makes downstream output byte-reproducible.  ``derived`` memoises arrays
that consumers build from the columns, and ``row`` finds a cycle's row.

The cache (``billzeta-orbit-cache/2``) is one JSON header line followed
by the raw little-endian bytes of every column.  The header holds the
configuration, its content hash, ``n_max``, the solver version, and each
section's name, dtype, count and sha256 digest.  A stale cache (another
configuration, solver version or format) is refused rather than
silently reused, and so is a cache that lacks a cycle, repeats one or
holds them out of order, holds a damaged byte, or runs short or long.
A load checks every section and then uses its bytes as the column.
Stored values are the solver's doubles to the bit, as JSON ``repr``
kept them in format ``/1``.
"""

import hashlib
import json
import os

import numpy as np

from . import geometry, orbits, stability, symbolic
from .errors import DomainError, EclipseError, MalformedInputError, StaleCacheError

SOLVER_VERSION = 3
CACHE_FORMAT = "billzeta-orbit-cache/2"
OLD_CACHE_FORMAT = "billzeta-orbit-cache/1"
SCALARS = ("T", "residual", "lam", "shadow_margin")
PER_BOUNCE = ("angles", "flights", "cos_incidence", "kappa")
# sections with one value per cycle; ``word`` and PER_BOUNCE hold one per bounce
PER_CYCLE = ("n", *SCALARS)
# (name, dtype) of every cache section, in file order
SECTIONS = (
    ("n", "<i8"),
    ("word", "<i8"),
    *((name, "<f8") for name in SCALARS),
    *((name, "<f8") for name in PER_BOUNCE),
)


class OrbitDatabase:
    """Solved cycles as read-only columns, one per cache section.

    ``columns`` maps each section name to its values, rows sorted by
    (length, word); arrays of the section's dtype are kept without a
    copy and made read-only.
    """

    def __init__(self, config, n_max: int, columns: dict):
        self.config = config
        self.config_hash = geometry.config_digest(config)
        self.n_max = int(n_max)
        for name, dtype in SECTIONS:
            column = np.asarray(columns[name], dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        self.bounds = np.concatenate(([0], np.cumsum(self.n)))
        self.bounds.flags.writeable = False
        self._rows = {}  # length -> {word: row}, filled by row()
        # arrays built from the columns, keyed by their builder and arguments
        self.derived = {}

    def __len__(self):
        return len(self.n)

    def row(self, word) -> int:
        """Row of the cycle ``word``.  The word index of a length is built
        on the first call for that length."""
        word = tuple(word)
        length = len(word)
        if length not in self._rows:
            # the rows of one length are contiguous, one word of ``length`` symbols each
            start = int(np.searchsorted(self.n, length, side="left"))
            stop = int(np.searchsorted(self.n, length, side="right"))
            block = self.word[self.bounds[start] : self.bounds[stop]].reshape(stop - start, length)
            self._rows[length] = {tuple(w): start + i for i, w in enumerate(block.tolist())}
        row = self._rows[length].get(word)
        if row is None:
            raise DomainError(f"orbit database has no cycle {word}")
        return row


def build_database(config, n_max: int) -> OrbitDatabase:
    """Solve every primitive cycle of length 2..n_max.

    The configuration is validated first: a disk blocking a line of
    sight raises :class:`EclipseError`, any other failure a domain
    error.  All cycles of one length are solved and certified in one
    :func:`orbits.solve_orbits` batch and cross-checked in one
    :func:`stability.stability_records` batch; a row's result does not
    depend on its batch, so every row equals the lone solve of its word.
    """
    # no cycle is shorter than 2, so an empty database stops at n_max = 1
    return extend_database(OrbitDatabase(config, 1, {name: () for name, _ in SECTIONS}), n_max)


def extend_database(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    """``db`` plus every primitive cycle of length db.n_max+1..n_max.

    The rows of ``db`` are kept as they are and only the new lengths are
    solved, each in one batch as in :func:`build_database`; each column
    is concatenated once at the end.  A row's result does not depend on
    its batch, so the extended database equals a fresh build to the bit.
    """
    config = db.config
    report = geometry.validate(config)
    if report.bad_triples:
        raise EclipseError(f"configuration rejected: {report.summary()}")
    if not report.ok:
        raise DomainError(f"configuration rejected: {report.summary()}")
    words = symbolic.enumerate_cycles(config.r, n_max)
    parts = {name: [getattr(db, name)] for name, _ in SECTIONS}
    for n in range(db.n_max + 1, n_max + 1):
        solved = orbits.solve_orbits(config, [w for w in words if len(w) == n])
        labels = solved["labels"]
        kappa, lam = stability.stability_records(
            config, labels, solved["flights"], solved["cos_incidence"]
        )
        # one (rows,) or (rows, n) array per section; rows are in word order
        batch = dict(solved, n=np.full(len(labels), n), word=labels, kappa=kappa, lam=lam)
        for name, dtype in SECTIONS:
            parts[name].append(np.asarray(batch[name], dtype=dtype).ravel())
    columns = {name: np.concatenate(parts[name]) for name in parts}
    return OrbitDatabase(config, n_max, columns)


def _encode(db: OrbitDatabase) -> bytes:
    """The cache file of ``db``: header line, then every section's bytes."""
    entries, payload = [], []
    for name, dtype in SECTIONS:
        data = getattr(db, name).tobytes()
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
    except OSError as exc:
        raise MalformedInputError(f"cannot write orbit cache {path}: {exc}") from exc
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


def _check_order(path, n, word, counts: dict) -> None:
    """Refuse rows whose (length, word) does not increase strictly from
    one row to the next: a repeated cycle or two cycles out of order.
    ``counts`` maps each length of ``n`` to its number of rows."""
    down = np.flatnonzero(np.diff(n) < 0)
    if down.size:
        row = int(down[0])
        raise MalformedInputError(
            f"orbit cache {path}: rows {row} and {row + 1} are out of (length, word) "
            f"order; re-run `billzeta orbits` to rebuild it"
        )
    row = start = 0
    for length, count in sorted(counts.items()):
        block = word[start : start + count * length].reshape(count, length)
        prev, this = block[:-1], block[1:]
        differ = prev != this
        # first symbol where each row differs from the one before it
        at = differ.argmax(axis=1)
        idx = np.arange(count - 1)
        repeated = ~differ.any(axis=1)
        bad = np.flatnonzero(repeated | (this[idx, at] < prev[idx, at]))
        if bad.size:
            i = int(bad[0])
            what = "repeat one cycle" if repeated[i] else "are out of (length, word) order"
            raise MalformedInputError(
                f"orbit cache {path}: rows {row + i} and {row + i + 1} {what}; "
                f"re-run `billzeta orbits` to rebuild it"
            )
        row += count
        start += count * length


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
    _check_order(path, n, columns["word"], counts)
    return OrbitDatabase(cached, n_max, columns)
