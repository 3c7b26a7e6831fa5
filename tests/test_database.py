import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from billzeta import database
from billzeta.database import (
    build_database,
    extend_database,
    load_database,
    restrict_database,
    save_database,
)
from billzeta.errors import (
    DomainError,
    EclipseError,
    IncompleteDataError,
    MalformedInputError,
    StaleCacheError,
)
from billzeta.geometry import Configuration, Disk, validate
from billzeta.orbits import solve_orbit, solve_orbits
from billzeta.stability import det_one_minus_poincare, stability_record
from billzeta.symbolic import enumerate_cycles, primitive_class_count
from tests.conftest import (
    OrbitRecord,
    equilateral_config,
    moved_equilateral,
    record_for,
    records,
    take_rows,
    unequal_four_disks,
    with_value,
)


@pytest.fixture(scope="module")
def db14(config):
    return build_database(config, 14)


def test_counts_per_length_match_class_counts(db12):
    for n in range(2, 13):
        got = sum(1 for rec in records(db12) if rec.n == n)
        assert got == primitive_class_count(3, n)


def test_records_sorted_and_indexed(db12):
    keys = [(rec.n, rec.word) for rec in records(db12)]
    assert keys == sorted(keys)
    rec = record_for(db12, (1, 2))
    assert rec.word == (1, 2)
    # a repeated block, a non-canonical rotation, lengths past n_max and
    # below 2, and labels outside 1..3: (2, -1) has the base-3 code of (1, 2)
    for word in ((1, 2, 1, 2), (2, 1), (1, 2) * 6 + (3,), (1,), (), (1, 4), (2, -1)):
        with pytest.raises(DomainError, match="has no cycle"):
            record_for(db12, word)


def test_record_repetition_determinant(db12):
    rec = record_for(db12, (1, 2, 3))
    for r in range(1, 5):
        assert rec.det_one_minus_p(r) == det_one_minus_poincare(rec.lam, r)


def assert_same_records(a, b):
    """Every field of two record sequences is equal to the bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.word == y.word
        assert type(y.word) is tuple and all(type(s) is int for s in y.word)
        for name in database.SCALARS:
            assert type(getattr(y, name)) is float
            assert np.float64(getattr(x, name)).tobytes() == np.float64(getattr(y, name)).tobytes()
        for name in database.PER_BOUNCE:
            assert len(getattr(y, name)) == x.n
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes()


def test_round_trip_preserves_everything(tmp_path, db8, db_four7):
    for db in (db8, db_four7):
        path = tmp_path / "cache"
        save_database(db, path)
        back = load_database(path)
        assert back.config_hash == db.config_hash
        assert back.n_max == db.n_max
        assert_same_records(records(db), records(back))
        for column in ("n", "T", "lam"):
            assert getattr(back, column).tobytes() == getattr(db, column).tobytes()
        # the same database saves to the same bytes
        first = path.read_bytes()
        save_database(back, path)
        assert path.read_bytes() == first


def section_offsets(path):
    """(name, start, end) of every section of a saved cache."""
    blob = path.read_bytes()
    header_line = blob.split(b"\n", 1)[0]
    header = json.loads(header_line)
    start, spans = len(header_line) + 1, []
    for entry in header["sections"]:
        end = start + entry["count"] * np.dtype(entry["dtype"]).itemsize
        spans.append((entry["name"], start, end))
        start = end
    assert start == len(blob)
    return spans


def test_damaged_section_is_named(tmp_path, db8):
    path = tmp_path / "cache"
    save_database(db8, path)
    good = path.read_bytes()
    spans = section_offsets(path)
    assert [name for name, _, _ in spans] == [name for name, _ in database.SECTIONS]
    for name, start, end in spans:
        damaged = bytearray(good)
        damaged[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(damaged))
        with pytest.raises(MalformedInputError, match=f"section {name} fails its sha256"):
            load_database(path)
    path.write_bytes(good + b"\x00")
    with pytest.raises(MalformedInputError, match="1 bytes after its last section"):
        load_database(path)


def test_stale_cache_refused(tmp_path, db8):
    path = tmp_path / "cache.jsonl"
    save_database(db8, path)
    other = equilateral_config(radius=0.9)
    with pytest.raises(StaleCacheError):
        load_database(path, other)
    # matching configuration passes the same gate
    load_database(path, db8.config)


def test_corrupt_cache_refused(tmp_path, db8):
    path = tmp_path / "cache.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        load_database(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        load_database(path)
    path.write_text("[1]\n", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        load_database(path)
    # a header that is a JSON string, even the format's name, is no header
    path.write_text('"billzeta-orbit-cache/2"\n', encoding="utf-8")
    with pytest.raises(MalformedInputError, match="has a bad header"):
        load_database(path)
    path.write_bytes(b"\xff\xfe\x00\n")
    with pytest.raises(MalformedInputError):
        load_database(path)
    with pytest.raises(MalformedInputError):
        load_database(tmp_path / "missing.jsonl")


def test_solver_version_mismatch_refused(tmp_path, db8):
    path = tmp_path / "cache.jsonl"
    save_database(db8, path)
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["solver_version"] = 9999
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)
    with pytest.raises(StaleCacheError):
        load_database(path)


def assert_records_match_lone_solves(db):
    """Every record of a batched build equals the lone solve of its word,
    bit for bit, and every length holds its full class count."""
    config = db.config
    for n in range(2, db.n_max + 1):
        got = sum(1 for rec in records(db) if rec.n == n)
        assert got == primitive_class_count(config.r, n)
    for rec in records(db):
        orbit = solve_orbit(config, rec.word)
        assert orbit.word == rec.word
        assert orbit.T == rec.T
        assert orbit.residual == rec.residual
        assert orbit.shadow_margin == rec.shadow_margin
        assert np.array_equal(orbit.angles, rec.angles)
        assert np.array_equal(orbit.flights, rec.flights)
        assert np.array_equal(orbit.cos_incidence, rec.cos_incidence)
        stab = stability_record(config, orbit)
        assert stab.lam == rec.lam
        assert np.array_equal(stab.kappa, rec.kappa)


def test_batched_build_equals_lone_solves_on_fixture(db12):
    assert_records_match_lone_solves(db12)


def test_batched_build_equals_lone_solves_on_unequal_disks(db_four7):
    assert validate(db_four7.config).ok
    assert len(db_four7) == 508
    assert max(rec.residual for rec in records(db_four7)) < 1e-12
    assert_records_match_lone_solves(db_four7)


def test_eclipsing_configuration_rejected():
    cfg = Configuration(
        (Disk((0.0, 0.0), 1.0), Disk((8.0, 0.0), 1.0), Disk((4.0, 0.5), 1.0))
    )
    with pytest.raises(EclipseError, match="blocks the line of sight"):
        build_database(cfg, 4)


def test_two_disk_configuration_is_domain_error_not_eclipse():
    cfg = Configuration((Disk((0.0, 0.0), 1.0), Disk((8.0, 0.0), 1.0)))
    assert not validate(cfg).bad_triples
    with pytest.raises(DomainError) as info:
        build_database(cfg, 4)
    assert not isinstance(info.value, EclipseError)


def test_truncated_cache_line_is_malformed(tmp_path, db8):
    path = tmp_path / "cache.jsonl"
    save_database(db8, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(MalformedInputError, match="section kappa is cut short"):
        load_database(path)


def test_cache_header_n_max_past_its_sections_is_refused_in_little_memory(tmp_path, db8):
    # the header carries no digest; a load that walked every length up to
    # n_max = 10**6 peaked at 99 MB here before it refused, the cache's
    # load at about 36 kB
    path = tmp_path / "cache"
    save_database(db8, path)
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["n_max"] = 10**6
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInputError,
                           match=re.escape("holds 0 cycles of length 9, expected 56")):
            load_database(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_cache_missing_a_record_is_refused(tmp_path, db8):
    path = tmp_path / "cache.jsonl"
    kept = [row for row in range(len(db8)) if row != db8.row((1, 2, 3))]
    assert len(kept) == len(db8) - 1
    save_database(take_rows(db8, kept), path)
    with pytest.raises(MalformedInputError, match="1 cycles of length 3, expected 2"):
        load_database(path)


def test_failed_save_keeps_the_previous_cache(tmp_path, db8, monkeypatch):
    path = tmp_path / "cache.jsonl"
    save_database(db8, path)
    before = path.read_bytes()

    def broken(db):
        raise RuntimeError("disk full")

    monkeypatch.setattr(database, "_header", broken)
    with pytest.raises(RuntimeError):
        save_database(db8, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl"]


def assert_same_columns(a, b):
    """Every column and ``bounds`` of two databases are equal to the bit."""
    assert (a.config_hash, a.n_max, len(a)) == (b.config_hash, b.n_max, len(b))
    for name in (*(name for name, _ in database.SECTIONS), "bounds"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
        assert not y.flags.writeable, name


def test_columns_agree_across_build_paths(tmp_path, config, db12, db14, db_four7):
    path = tmp_path / "cache"
    save_database(db14, path)
    assert_same_columns(db14, extend_database(db12, 14))
    assert_same_columns(db14, load_database(path))
    assert_same_columns(build_database(config, 10), restrict_database(db14, 10))
    assert restrict_database(db14, 14) is db14
    four5 = build_database(db_four7.config, 5)
    assert_same_columns(db_four7, extend_database(four5, 7))
    assert_same_columns(four5, restrict_database(db_four7, 5))
    save_database(db_four7, path)
    assert_same_columns(db_four7, load_database(path))
    assert db14.bounds.tolist() == [0, *np.cumsum(db14.n).tolist()]


def test_extend_below_or_restrict_above_n_max_is_refused(db8):
    # either would give a database whose n_max disagrees with its rows
    with pytest.raises(DomainError, match="n_max=8.*n_max=5"):
        extend_database(db8, 5)
    with pytest.raises(IncompleteDataError, match="n_max=8.*n_max=11"):
        restrict_database(db8, 11)
    assert_same_columns(db8, extend_database(db8, 8))


def solved_records(db):
    """Records made row by row from every length's solve columns."""
    config, made = db.config, []
    for n in range(2, db.n_max + 1):
        solved = solve_orbits(config, enumerate_cycles(config.r, n, n_min=n))
        labels, kappa, lam = solved["labels"], solved["kappa"], solved["lam"]
        made += [
            OrbitRecord(
                word=tuple(labels[i].tolist()),
                T=float(solved["T"][i]),
                angles=solved["angles"][i],
                flights=solved["flights"][i],
                cos_incidence=solved["cos_incidence"][i],
                residual=float(solved["residual"][i]),
                kappa=kappa[i],
                lam=float(lam[i]),
                shadow_margin=float(solved["shadow_margin"][i]),
            )
            for i in range(len(labels))
        ]
    return made


def test_records_view_equals_the_solved_records(tmp_path, db12, db_four7):
    path = tmp_path / "cache"
    for db in (db12, db_four7):
        save_database(db, path)
        want = solved_records(db)
        for view in (db, load_database(path)):
            assert_same_records(want, records(view))
            assert records(view) is records(view)
            for row in range(0, len(want), 5):
                word = want[row].word
                assert_same_records([want[row]], [record_for(view, word)])
                assert view.row(word) == row


def test_cache_out_of_order_or_repeating_a_cycle_is_refused(tmp_path, db8):
    path = tmp_path / "cache"
    first5 = int(np.searchsorted(db8.n, 5))
    rows = np.arange(len(db8))
    swapped, across, repeated = rows.copy(), rows.copy(), rows.copy()
    swapped[[first5 + 1, first5 + 2]] = [first5 + 2, first5 + 1]
    across[[first5 - 1, first5]] = [first5, first5 - 1]
    repeated[first5 + 2] = first5 + 1
    for order, message in (
        (swapped, f"rows {first5 + 1} and {first5 + 2} are out of \\(length, word\\) order"),
        (across, f"rows {first5 - 1} and {first5} are out of \\(length, word\\) order"),
        (repeated, f"rows {first5 + 1} and {first5 + 2} repeat one cycle"),
    ):
        # sections and digests are written afresh: only the order is wrong
        save_database(take_rows(db8, order), path)
        with pytest.raises(MalformedInputError, match=message):
            load_database(path)
    save_database(take_rows(db8, rows), path)
    assert_same_columns(db8, load_database(path))


@pytest.mark.parametrize("name, value, what", [
    ("T", np.nan, "period T"),
    ("T", np.inf, "period T"),
    ("T", -1.0, "period T"),
    ("lam", 0.0, "multiplier Lambda"),
    ("lam", 0.5, "multiplier Lambda"),
    ("lam", np.nan, "multiplier Lambda"),
])
def test_cache_with_a_bad_period_or_multiplier_is_refused(tmp_path, db8, name, value, what):
    path = tmp_path / "cache"
    save_database(with_value(db8, name, 3, value), path)
    with pytest.raises(MalformedInputError, match=f"row 3 has a {what} that is not finite"):
        load_database(path)


# row 3 of db8 is the cycle (1, 2, 3), its bounces at 6..8 of the flat columns
NOT_ITS_PRODUCT = "has a multiplier Lambda that its flights and kappa do not give"
NOT_A_RESIDUAL = "has a residual that is not in [+0.0, SOLVER_TOL = 1e-12]"
NOT_A_MARGIN = "has a shadow margin that is not finite and positive"


@pytest.mark.parametrize("name, at, value, what", [
    ("T", 3, 1e308, "has a period T that is not the sum of its flights"),
    ("flights", 7, 5.0, "has a period T that is not the sum of its flights"),
    ("residual", 3, 1e-6, NOT_A_RESIDUAL),
    ("word", slice(6, 9), (3, 1, 2), "has a word that is not the least rotation of its cycle"),
    # a multiplier the row's factors 1 + f kappa do not give, from a wrong
    # Lambda or a wrong kappa; on all three bounces the product overflows
    ("lam", 3, lambda lam: 1.5 * lam, NOT_ITS_PRODUCT),
    ("kappa", 7, 1e300, NOT_ITS_PRODUCT),
    ("kappa", slice(6, 9), 1e300, NOT_ITS_PRODUCT),
    ("kappa", 7, np.nan, "has a curvature kappa that is not finite and positive"),
    ("kappa", 8, -0.5, "has a curvature kappa that is not finite and positive"),
    ("residual", 3, -1.67e-16, NOT_A_RESIDUAL),
    ("residual", 3, -0.0, NOT_A_RESIDUAL),
    ("residual", 3, -np.inf, NOT_A_RESIDUAL),
    ("residual", 3, np.nan, NOT_A_RESIDUAL),
    ("shadow_margin", 3, np.nan, NOT_A_MARGIN),
    ("shadow_margin", 3, np.inf, NOT_A_MARGIN),
    ("shadow_margin", 3, -np.inf, NOT_A_MARGIN),
    ("shadow_margin", 3, 0.0, NOT_A_MARGIN),
    ("shadow_margin", 3, -3.66, NOT_A_MARGIN),
])
def test_cache_row_that_no_solve_wrote_is_refused(tmp_path, db8, name, at, value, what):
    path = tmp_path / "cache"
    if callable(value):
        value = value(getattr(db8, name)[at])
    save_database(with_value(db8, name, at, value), path)
    with pytest.raises(MalformedInputError, match=re.escape(f"row 3 {what}")):
        load_database(path)


# sha256 of the cache bytes of fresh builds, recorded with numpy 2.4.6 at
# the commit that set SOLVER_VERSION 4 (Newton steps from the bordered
# LDL^T of the Hessian bands).  A solver change that moves them bumps
# SOLVER_VERSION and these digests together, with a note in CHANGES.md.
CACHE_DIGESTS = (
    (equilateral_config, 10, 226,
     "3135c5c1b79730017927cbd8b8c235f3b14157fcd3bba4ad34a556aa586fb769"),
    (unequal_four_disks, 7, 508,
     "9b75848725305b0f0c61b9aa1baf4bb3b8df089148240f635eb443b6f97472ae"),
)


def test_cache_bytes_are_pinned(tmp_path):
    path = tmp_path / "cache"
    for make_config, n_max, cycles, digest in CACHE_DIGESTS:
        db = build_database(make_config(), n_max)
        assert len(db) == cycles
        save_database(db, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, make_config.__name__


def test_cache_load_copies_nothing(tmp_path, db14):
    # a load that copied the payload (the header split or a hashed slice)
    # would peak at about twice the file size
    path = tmp_path / "cache"
    save_database(db14, path)
    load_database(path)
    tracemalloc.start()
    try:
        db = load_database(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    assert_same_columns(db14, db)


def test_cache_save_copies_nothing(tmp_path, db14):
    # a save that joined the sections, or copied one with tobytes, would
    # peak at about twice the file size
    path = tmp_path / "cache"
    save_database(db14, path)
    tracemalloc.start()
    try:
        save_database(db14, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.stat().st_size
    assert_same_columns(db14, load_database(path))


@pytest.mark.parametrize("config, n_max", [
    (equilateral_config(), 10),
    (unequal_four_disks(), 7),
    (moved_equilateral(2), 9),
])
def test_grouped_build_rows_equal_their_lone_solves(config, n_max):
    # lengths 2..n_max-1 share one padded batch, so its words of length
    # 2 and 3 have padding that must produce no 0/0 or other warning
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        db = build_database(config, n_max)
    for rec in records(db):
        orbit = solve_orbit(config, rec.word)
        stab = stability_record(config, orbit)
        assert rec.T == orbit.T and rec.residual == orbit.residual
        assert rec.shadow_margin == orbit.shadow_margin
        for a, b in ((rec.angles, orbit.angles), (rec.flights, orbit.flights),
                     (rec.cos_incidence, orbit.cos_incidence), (rec.kappa, stab.kappa)):
            assert np.array_equal(a, b)
        assert rec.lam == stab.lam


def test_build_raises_the_error_of_the_shortest_failing_length(config, monkeypatch):
    from billzeta import orbits, stability
    from billzeta.errors import HyperbolicityError, SolverError

    # every row fails the stability cross-check, and the solve of any
    # batch that holds a cycle of length 5 or more fails: the length-2
    # cross-check must still be the error, as with a batch per length
    monkeypatch.setattr(stability, "CROSS_CHECK_RTOL", -1.0)
    solve_orbits = orbits.solve_orbits

    def failing(config, words, *args, **kwargs):
        solved = solve_orbits(config, words, *args, **kwargs)
        if solved["n"].max() >= 5:
            raise SolverError("a solve of length 5 or more fails")
        return solved

    monkeypatch.setattr(orbits, "solve_orbits", failing)
    with pytest.raises(HyperbolicityError, match=re.escape("stability mismatch for (1, 2)")):
        build_database(config, 7)
    # a solve failure comes before the stability failure of its own length
    monkeypatch.setattr(orbits, "solve_orbits", solve_orbits)
    monkeypatch.setattr(orbits, "REFLECTION_TOL", -1.0)
    with pytest.raises(SolverError,
                       match=re.escape("reflection law violated at bounce 0 of (1, 2)")):
        build_database(config, 7)


def test_failing_build_solves_each_batch_once(config, monkeypatch):
    from billzeta import orbits
    from billzeta.errors import SolverError

    # the first batch, lengths 2..6, raises for (1, 2) and the build stops
    # there, with no batch of shorter lengths solved again
    calls = []
    solve_orbits = orbits.solve_orbits

    def spy(config, words, *args, **kwargs):
        calls.append(words)
        return solve_orbits(config, words, *args, **kwargs)

    monkeypatch.setattr(orbits, "solve_orbits", spy)
    monkeypatch.setattr(orbits, "REFLECTION_TOL", -1.0)
    with pytest.raises(SolverError,
                       match=re.escape("reflection law violated at bounce 0 of (1, 2)")):
        build_database(config, 7)
    assert len(calls) == 1


def test_grouped_build_peaks_below_the_per_length_build(config):
    # measured this way, the build that solved one batch per length
    # peaked at 3.57 MB for a build to 13 and at 6.83 MB for a build to 12
    # extended to 14; the bounds are below both, so the padded batch of
    # lengths 2..12, 1.09 times the cells of length 13, cannot grow into
    # a larger peak
    build_database(config, 4)
    tracemalloc.start()
    try:
        build_database(config, 13)
        _, build13 = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        extend_database(build_database(config, 12), 14)
        _, extended = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build13 < 3.39e6
    assert extended < 6.55e6
