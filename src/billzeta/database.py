"""Orbit database: every primitive cycle up to a length cutoff, solved
and equipped with stability data, plus the binary cache format.

The new lengths of a build or an extension are solved in two batches:
the lengths below the top one share a batch of words padded with zeros,
and the top length, which holds about as many cells as all shorter ones
together, has its own.  Each is one :func:`orbits.solve_orbits` call,
which solves the cycles, certifies them and their stability and raises
for the shortest failing length.  Its padded columns, one row per
cycle, have their bounces concatenated into the database's columns; no
object is built per cycle on the way from the enumeration's int array
through the Newton batch to the cache.

The columns are the database.  An :class:`OrbitDatabase` holds one
read-only array per cache section, in the order of :data:`SECTIONS`:
``n`` and the scalars ``T``, ``residual``, ``lam`` and ``shadow_margin``
hold one value per cycle, while ``word`` and the per-bounce arrays
``angles``, ``flights``, ``cos_incidence`` and ``kappa`` are flat, with
cycle ``i`` at ``bounds[i]:bounds[i + 1]``.  Rows are sorted by
(length, word); every consumer reads them in that order, which is what
makes downstream output byte-reproducible.  ``word_table`` gives each
length's rows, words and word codes, which ``row`` and the consumers
read; ``horizon`` is a period below which no missing cycle falls, and
``derived`` memoises arrays that consumers build from the columns.

The cache (``billzeta-orbit-cache/2``) is one JSON header line followed
by the raw little-endian bytes of every column.  The header holds the
configuration, its content hash, ``n_max``, the solver version, and each
section's name, dtype, count and sha256 digest.  A stale cache (another
configuration, solver version or format) is refused rather than
silently reused, and so is a cache that lacks a cycle, repeats one or
holds them out of order, holds a label outside 1..r, a word that
repeats a label at consecutive bounces or is not its cycle's least
rotation, a period that is not finite and positive or not the sum of
its flights, a multiplier that is not finite with |Lambda| > 1 or not
the product its flights and curvatures give, a curvature that is not
finite and positive or a residual above ``SOLVER_TOL``, holds a damaged
byte, or runs short or long.
A save hashes each column in place and writes the header line, then
each column's own buffer.  A load reads the file once, checks every
section's digest over its bytes in place and then uses those bytes as
the column.  Neither copies the columns.
Stored values are the solver's doubles to the bit, as JSON ``repr``
kept them in format ``/1``.
"""

import hashlib
import json
import os

import numpy as np

from . import geometry, orbits, symbolic
from .errors import (
    DomainError, EclipseError, IncompleteDataError, MalformedInputError, StaleCacheError,
)

SOLVER_VERSION = 4
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
    (length, word); contiguous arrays of the section's dtype are kept
    without a copy and made read-only, so each column is the buffer a
    save hashes and writes.
    """

    def __init__(self, config, n_max: int, columns: dict):
        self.config = config
        self.config_hash = geometry.config_digest(config)
        self.n_max = int(n_max)
        # every cycle the database lacks is longer: each of its flights spans d0 or more
        self.horizon = (self.n_max + 1) * config.d0
        for name, dtype in SECTIONS:
            column = np.ascontiguousarray(columns[name], dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        self.bounds = np.concatenate(([0], np.cumsum(self.n)))
        self.bounds.flags.writeable = False
        # arrays built from the columns, keyed by their builder and arguments
        self.derived = {}

    def __len__(self):
        return len(self.n)

    def word_table(self) -> dict:
        """The row layout: each length with rows maps to its first row,
        its ``(count, length)`` block of ``word`` and the words' base-r
        codes of 0-based symbols, increasing as the words do.  Built once
        and kept in ``derived``."""
        if "word_table" not in self.derived:
            r, table = self.config.r, {}
            for n in np.flatnonzero(np.bincount(self.n)).tolist():
                start, stop = np.searchsorted(self.n, [n, n + 1]).tolist()
                block = self.word[self.bounds[start] : self.bounds[stop]].reshape(stop - start, n)
                table[n] = (start, block, (block - 1) @ r ** np.arange(n - 1, -1, -1))
            self.derived["word_table"] = table
        return self.derived["word_table"]

    def row(self, word) -> int:
        """Row of the cycle ``word``, found by its code in :meth:`word_table`."""
        word, r = tuple(word), self.config.r
        if len(word) in self.word_table() and all(1 <= s <= r for s in word):
            start, _, codes = self.word_table()[len(word)]
            code = sum((s - 1) * r**i for i, s in enumerate(reversed(word)))
            i = int(np.searchsorted(codes, code))
            if i < codes.size and codes[i] == code:
                return start + i
        raise DomainError(f"orbit database has no cycle {word}")


def build_database(config, n_max: int) -> OrbitDatabase:
    """Solve every primitive cycle of length 2..n_max.

    The configuration is validated first: a disk blocking a line of
    sight raises :class:`EclipseError`, any other failure a domain
    error.  The cycles are solved and certified, stability included, in
    two :func:`orbits.solve_orbits` batches, lengths 2..n_max-1 and
    n_max; a row's result does not depend on its batch, so every row
    equals the lone solve of its word.  A failure raises the error of
    the shortest failing length, as a batch per length would.
    """
    # no cycle is shorter than 2, so an empty database stops at n_max = 1
    return extend_database(OrbitDatabase(config, 1, {name: () for name, _ in SECTIONS}), n_max)


def extend_database(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    """``db`` plus every primitive cycle of length db.n_max+1..n_max.

    The rows of ``db`` are kept as they are and only the new lengths are
    solved, in two batches as in :func:`build_database`: the lengths
    below n_max share one and n_max has its own.  Cycle counts about
    double with each length, so neither batch holds much more than the
    top length's cells.  Each column is concatenated once at the end.  A
    row's result does not depend on its batch, so the extended database
    equals a fresh build to the bit.  A smaller ``n_max`` is refused.
    """
    if n_max < db.n_max:
        raise DomainError(f"cannot extend a database of n_max={db.n_max} down to n_max={n_max}")
    config = db.config
    report = geometry.validate(config)
    if report.bad_triples:
        raise EclipseError(f"configuration rejected: {report.summary()}")
    if not report.ok:
        raise DomainError(f"configuration rejected: {report.summary()}")
    parts = {name: [getattr(db, name)] for name, _ in SECTIONS}
    low = db.n_max + 1
    for lo, hi in ((low, n_max - 1), (max(low, n_max), n_max)):
        if lo <= hi:
            words = symbolic.enumerate_cycles(config.r, hi, n_min=lo)
            batch, cells = dict(orbits.solve_orbits(config, words), word=words), words != 0
            for name, dtype in SECTIONS:
                # per bounce: the bounces of each padded row, rows in order
                column = batch[name] if name in PER_CYCLE else batch[name][cells]
                parts[name].append(np.asarray(column, dtype=dtype))
            # the padded rows, before the next batch is solved
            del batch
    columns = {name: np.concatenate(parts[name]) for name in parts}
    return OrbitDatabase(config, n_max, columns)


def restrict_database(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    """``db`` cut to the cycles of length <= ``n_max`` (``db`` itself if
    it stops there); rows are sorted by length, so they are a prefix.
    An ``n_max`` above db.n_max is an :class:`IncompleteDataError`."""
    if n_max > db.n_max:
        raise IncompleteDataError(f"a database of n_max={db.n_max} has no cycles to n_max={n_max}")
    if n_max == db.n_max:
        return db
    keep = int(np.searchsorted(db.n, n_max, side="right"))
    flat = int(db.bounds[keep])
    columns = {
        name: getattr(db, name)[: keep if name in PER_CYCLE else flat] for name, _ in SECTIONS
    }
    return OrbitDatabase(db.config, n_max, columns)


def _header(db: OrbitDatabase) -> bytes:
    """The header line of the cache file of ``db``; each section's digest
    is taken over its column in place."""
    entries = [
        {
            "name": name,
            "dtype": dtype,
            "count": getattr(db, name).size,
            "sha256": hashlib.sha256(getattr(db, name)).hexdigest(),
        }
        for name, dtype in SECTIONS
    ]
    header = {
        "format": CACHE_FORMAT,
        "config": db.config.to_dict(),
        "config_hash": db.config_hash,
        "n_max": db.n_max,
        "solver_version": SOLVER_VERSION,
        "sections": entries,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def save_database(db: OrbitDatabase, path) -> None:
    """Write the header line, then each column's own buffer, so the file
    is never held in memory.  The write goes to a temporary file next to
    ``path``, which is then moved into place, so an interrupted write
    never leaves a partial cache."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_header(db))
            for name, _ in SECTIONS:
                fh.write(getattr(db, name))
        os.replace(tmp, path)
    except OSError as exc:
        raise MalformedInputError(f"cannot write orbit cache {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_header(path, blob: bytes):
    """The header of the cache ``blob`` and the offset of its first
    section; only the header line is copied out of ``blob``."""
    end = blob.find(b"\n")
    if end < 0:
        raise MalformedInputError(f"orbit cache {path} has no header line")
    try:
        header = json.loads(blob[:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"orbit cache {path} has a bad header") from exc
    if not isinstance(header, dict):
        raise MalformedInputError(f"orbit cache {path} has a bad header")
    fmt = header.get("format")
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
    return header, end + 1


def _read_sections(path, header: dict, blob: bytes, offset: int) -> dict:
    """Every section as a read-only array over ``blob``, after its dtype,
    length and digest are checked; bytes past the last section are
    refused.  Digests are taken over views of ``blob``, so nothing is
    copied."""
    entries = header.get("sections")
    if not isinstance(entries, list) or len(entries) != len(SECTIONS):
        raise MalformedInputError(f"orbit cache {path} does not list its {len(SECTIONS)} sections")
    columns, view = {}, memoryview(blob)
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
        if hashlib.sha256(view[offset:end]).hexdigest() != entry.get("sha256"):
            raise MalformedInputError(f"orbit cache {path}: section {name} fails its sha256 check")
        columns[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset = end
    if offset != len(blob):
        raise MalformedInputError(
            f"orbit cache {path} has {len(blob) - offset} bytes after its last section"
        )
    return columns


def _check_rows(path, db: OrbitDatabase) -> None:
    """Refuse a label outside 1..r, then a word that repeats a label at
    consecutive bounces (its last and first included), then a period T
    that is not finite and positive, a multiplier Lambda that is not
    finite with |Lambda| > 1, a residual above ``SOLVER_TOL`` or a
    curvature kappa that is not finite and positive, then rows out of
    length order, a word that is not the least rotation of its cycle,
    rows whose words do not increase strictly (a repeated cycle or two
    cycles out of order), and, per length block, a T that is not the sum
    of its flights and a Lambda that is not the signed product of its
    factors 1 + f kappa, each as the build computes it.  Words are
    compared by their codes in :meth:`OrbitDatabase.word_table`; a label
    out of range would make two words share a code, so it is refused
    first."""
    r = db.config.r

    def refuse(rows, what):
        raise MalformedInputError(f"orbit cache {path}: {rows} {what}; "
                                  "re-run `billzeta orbits` to rebuild it")

    # each label against the next one of its cyclic word: a row's last
    # label against the row's first
    repeats = np.append(db.word[1:] == db.word[:-1], False)
    repeats[db.bounds[1:] - 1] = db.word[db.bounds[:-1]] == db.word[db.bounds[1:] - 1]
    for bad, per_bounce, what in (
        ((db.word < 1) | (db.word > r), True, f"uses labels outside 1..{r}"),
        (repeats, True, "repeats a label at consecutive bounces"),
        (~(np.isfinite(db.T) & (db.T > 0)), False,
         "has a period T that is not finite and positive"),
        (~(np.isfinite(db.lam) & (np.abs(db.lam) > 1)), False,
         "has a multiplier Lambda that is not finite with |Lambda| > 1"),
        (~(db.residual <= orbits.SOLVER_TOL), False,
         f"has a residual that is not at most SOLVER_TOL = {orbits.SOLVER_TOL:g}"),
        (~(np.isfinite(db.kappa) & (db.kappa > 0)), True,
         "has a curvature kappa that is not finite and positive"),
    ):
        at = np.flatnonzero(bad)
        if at.size:
            row = np.searchsorted(db.bounds, at[0], side="right") - 1 if per_bounce else at[0]
            refuse(f"row {row}", what)
    down = np.flatnonzero(np.diff(db.n) < 0)
    if down.size:
        refuse(f"rows {down[0]} and {down[0] + 1}", "are out of (length, word) order")
    # each code below its rotations, as enumerate_cycles keeps them: a pass per k
    # over the rows longer than k (a suffix) rotates each word by one more label,
    # which multiplies its code by r modulo r**n - 1
    codes = np.concatenate([np.empty(0, np.int64), *(c for _, _, c in db.word_table().values())])
    least, rot, mod = np.ones(len(db), dtype=bool), codes.copy(), r**db.n - 1
    for k in range(1, db.n_max):
        at = np.searchsorted(db.n, k, side="right")
        rot[at:] = rot[at:] * r % mod[at:]
        least[at:] &= codes[at:] < rot[at:]
    bad = np.flatnonzero(~least)
    if bad.size:
        refuse(f"row {bad[0]}", "has a word that is not the least rotation of its cycle")
    for start, block, codes in db.word_table().values():
        step = np.diff(codes)
        bad = np.flatnonzero(step <= 0)
        if bad.size:
            i = int(bad[0])
            what = "repeat one cycle" if step[i] == 0 else "are out of (length, word) order"
            refuse(f"rows {start + i} and {start + i + 1}", what)
        rows, lo = slice(start, start + len(block)), db.bounds[start]
        flights, kappa = (a[lo : lo + block.size].reshape(block.shape)
                          for a in (db.flights, db.kappa))
        # in place and dropped before the next length's, for the load's
        # peak; a product that overflows is refused below with no warning
        with np.errstate(over="ignore"):
            factors = flights * kappa
            factors += 1.0
            lam = np.prod(factors, axis=1)
        del factors
        for bad, what in (
            (db.T[rows] != flights.sum(axis=1), "a period T that is not the sum of its flights"),
            (db.lam[rows] != (-lam if block.shape[1] % 2 else lam),
             "a multiplier Lambda that its flights and kappa do not give"),
        ):
            bad = np.flatnonzero(bad)
            if bad.size:
                refuse(f"row {start + bad[0]}", f"has {what}")


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
    # past the longest length held, one more is enough to find a short count
    for length in sorted(set(counts) | set(range(2, min(n_max, n.max(initial=1) + 1) + 1))):
        want = symbolic.primitive_class_count(cached.r, length) if 2 <= length <= n_max else 0
        if counts.get(length, 0) != want:
            raise MalformedInputError(
                f"orbit cache {path} holds {counts.get(length, 0)} cycles of length "
                f"{length}, expected {want}; re-run `billzeta orbits` to rebuild it"
            )
    db = OrbitDatabase(cached, n_max, columns)
    _check_rows(path, db)
    return db
