import json

import numpy as np
import pytest

from billzeta import database
from billzeta.database import OrbitDatabase, build_database, load_database, save_database
from billzeta.errors import (
    DomainError,
    EclipseError,
    MalformedInputError,
    StaleCacheError,
)
from billzeta.geometry import Configuration, Disk, validate
from billzeta.orbits import solve_orbit
from billzeta.stability import det_one_minus_poincare, stability_record
from billzeta.symbolic import primitive_class_count
from tests.conftest import equilateral_config


def test_counts_per_length_match_class_counts(db12):
    for n in range(2, 13):
        got = sum(1 for rec in db12.records if rec.n == n)
        assert got == primitive_class_count(3, n)


def test_records_sorted_and_indexed(db12):
    keys = [(rec.n, rec.word) for rec in db12.records]
    assert keys == sorted(keys)
    rec = db12.record_for((1, 2))
    assert rec.word == (1, 2)
    with pytest.raises(DomainError):
        db12.record_for((1, 2, 1, 2))


def test_record_repetition_determinant(db12):
    rec = db12.record_for((1, 2, 3))
    for r in range(1, 5):
        assert rec.det_one_minus_p(r) == det_one_minus_poincare(rec.lam, r)


def assert_same_records(a, b):
    """Every field of two record sequences is equal to the bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.word == y.word
        for name in database.SCALARS:
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
        assert_same_records(db.records, back.records)
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
        got = sum(1 for rec in db.records if rec.n == n)
        assert got == primitive_class_count(config.r, n)
    for rec in db.records:
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
    assert max(rec.residual for rec in db_four7.records) < 1e-12
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
    kept = [rec for rec in db8.records if rec.word != (1, 2, 3)]
    assert len(kept) == len(db8) - 1
    save_database(OrbitDatabase(db8.config, db8.n_max, kept), path)
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
