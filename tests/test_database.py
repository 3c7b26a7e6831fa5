import hashlib
import json

import numpy as np
import pytest

from billzeta import cli, database
from billzeta.database import (
    build_database,
    extend_database,
    load_database,
    save_database,
)
from billzeta.errors import (
    DomainError,
    EclipseError,
    MalformedInputError,
    StaleCacheError,
)
from billzeta.geometry import Configuration, Disk, validate
from billzeta.orbits import solve_orbit, solve_orbits
from billzeta.stability import det_one_minus_poincare, stability_record, stability_records
from billzeta.symbolic import enumerate_cycles, primitive_class_count
from tests.conftest import (
    OrbitRecord,
    equilateral_config,
    record_for,
    records,
    take_rows,
    unequal_four_disks,
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
    # a repeated block, a non-canonical rotation, lengths past n_max and below 2
    for word in ((1, 2, 1, 2), (2, 1), (1, 2) * 6 + (3,), (1,), ()):
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

    monkeypatch.setattr(database, "_encode", broken)
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
    assert_same_columns(build_database(config, 10), cli._restrict(db14, 10))
    assert cli._restrict(db14, 14) is db14
    four5 = build_database(db_four7.config, 5)
    assert_same_columns(db_four7, extend_database(four5, 7))
    assert_same_columns(four5, cli._restrict(db_four7, 5))
    save_database(db_four7, path)
    assert_same_columns(db_four7, load_database(path))
    assert db14.bounds.tolist() == [0, *np.cumsum(db14.n).tolist()]


def solved_records(db):
    """Records made row by row from every length's solve and stability
    columns."""
    config, made = db.config, []
    words = enumerate_cycles(config.r, db.n_max)
    for n in range(2, db.n_max + 1):
        solved = solve_orbits(config, [w for w in words if len(w) == n])
        labels = solved["labels"]
        kappa, lam = stability_records(config, labels, solved["flights"], solved["cos_incidence"])
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


# sha256 of the cache bytes of fresh builds, recorded with numpy 2.4.6 at
# commit f24dac3.  A solver change that moves them bumps SOLVER_VERSION
# and these digests together, with a note in CHANGES.md.
CACHE_DIGESTS = (
    (equilateral_config, 10, 226,
     "377cb8ab705ef62177c265512e8b733030d3c6a48b1102dfcfea486cb7f0c368"),
    (unequal_four_disks, 7, 508,
     "1b98d2421cfcb8ae4828ef4769ecc67765b65e427643bbe15956a5d7958d097a"),
)


def test_cache_bytes_are_pinned():
    for make_config, n_max, cycles, digest in CACHE_DIGESTS:
        db = build_database(make_config(), n_max)
        assert len(db) == cycles
        assert hashlib.sha256(database._encode(db)).hexdigest() == digest, make_config.__name__
