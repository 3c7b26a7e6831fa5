import numpy as np
import pytest

from billzeta.errors import MalformedInputError
from billzeta.geometry import (
    Configuration,
    Disk,
    config_digest,
    config_from_dict,
    hull_gap,
    load_config,
    save_config,
    validate,
)
from tests.conftest import equilateral_config, unequal_four_disks


def test_fixture_boundary_gap_is_four(config):
    assert abs(config.d0 - 4.0) < 1e-12


def test_fixture_validates(config):
    report = validate(config)
    assert report.ok
    assert report.n_disks == 3
    assert abs(report.min_pair_gap - 4.0) < 1e-12
    assert report.min_triple_margin > 3.0
    assert report.bad_pairs == ()
    assert report.bad_triples == ()
    assert "ok" in report.summary()


def test_overlapping_disks_rejected():
    cfg = Configuration(
        (
            Disk((0.0, 0.0), 1.0),
            Disk((1.5, 0.0), 1.0),
            Disk((10.0, 10.0), 1.0),
        )
    )
    report = validate(cfg)
    assert not report.ok
    assert any(entry[:2] == (1, 2) for entry in report.bad_pairs)
    assert report.min_pair_gap < 0.0


def test_eclipse_rejected():
    # middle disk blocks the line of sight between the outer two
    cfg = Configuration(
        (
            Disk((0.0, 0.0), 1.0),
            Disk((8.0, 0.0), 1.0),
            Disk((4.0, 0.5), 1.0),
        )
    )
    report = validate(cfg)
    assert not report.ok
    assert report.bad_triples
    assert report.min_triple_margin < 0.0


def test_two_disks_not_ok_but_reported():
    cfg = Configuration((Disk((0.0, 0.0), 1.0), Disk((5.0, 0.0), 1.0)))
    report = validate(cfg)
    assert not report.ok
    assert report.n_disks == 2


def test_single_disk_is_malformed():
    with pytest.raises(MalformedInputError):
        validate(Configuration((Disk((0.0, 0.0), 1.0),)))


def test_config_round_trip(tmp_path, config):
    path = tmp_path / "cfg.json"
    save_config(config, path)
    back = load_config(path)
    assert config_digest(back) == config_digest(config)
    assert np.allclose(back.centers, config.centers)
    assert np.allclose(back.radii, config.radii)


def test_config_from_dict_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        config_from_dict([1, 2, 3])
    with pytest.raises(MalformedInputError):
        config_from_dict({"format": "something-else", "disks": []})
    with pytest.raises(MalformedInputError):
        config_from_dict(
            {
                "format": "billiard-config/1",
                "disks": [{"center": [0.0, 0.0], "radius": -1.0}] * 3,
            }
        )


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe\x00"):
        path.write_bytes(content)
        with pytest.raises(MalformedInputError):
            load_config(path)


def test_digest_depends_on_geometry():
    a = equilateral_config()
    b = equilateral_config(radius=0.9)
    assert config_digest(a) != config_digest(b)


def brute_hull_gap(p, c1, a1, c2, a2, points=20001):
    t = np.linspace(0.0, 1.0, points)
    centers = (1.0 - t)[:, None] * c1 + t[:, None] * c2
    return float(np.min(np.hypot(*(p - centers).T) - ((1.0 - t) * a1 + t * a2)))


def test_hull_gap_matches_a_dense_minimum():
    rng = np.random.default_rng(11)
    cases = [
        ((4.0, 0.0), (0.0, 0.0), 1.0, (8.0, 0.0), 1.5),  # point on the axis (y = 0)
        ((4.0, 0.0), (0.0, 0.0), 0.5, (8.0, 0.0), 3.0),  # on the axis, inside the hull
        ((6.0, 1.0), (0.0, 0.0), 3.0, (0.5, 0.0), 1.0),  # nested pair (L < |a2 - a1|)
        ((6.0, 1.0), (0.0, 0.0), 1.0, (0.5, 0.0), 3.0),  # nested, larger disk second
        ((2.0, -3.0), (1.0, 1.0), 1.0, (1.0, 1.0), 2.5),  # concentric pair (L = 0)
    ]
    for _ in range(200):
        p, c1, c2 = rng.uniform(-6.0, 6.0, (3, 2))
        a1, a2 = rng.uniform(0.1, 3.0, 2)
        cases.append((p, c1, a1, c2, a2))
    for p, c1, a1, c2, a2 in cases:
        p, c1, c2 = (np.asarray(v, dtype=float) for v in (p, c1, c2))
        exact = hull_gap(p, c1, a1, c2, a2)
        brute = brute_hull_gap(p, c1, a1, c2, a2)
        assert brute - 1e-6 <= exact <= brute + 1e-12, (p, c1, a1, c2, a2)


def test_unequal_four_disks_validate():
    cfg = unequal_four_disks()
    report = validate(cfg)
    assert report.ok and report.n_disks == 4
    assert report.bad_pairs == () and report.bad_triples == ()
    assert 0.0 < report.min_triple_margin < report.min_pair_gap


def test_d0_is_the_least_pair_gap_on_four_disks():
    cfg = unequal_four_disks()
    gaps = [
        np.linalg.norm(cfg.centers[i] - cfg.centers[j]) - cfg.radii[i] - cfg.radii[j]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    assert cfg.d0 == min(gaps)
    assert validate(cfg).min_pair_gap == cfg.d0
    assert sorted(cfg.pair_gaps) == [(i, j) for i in range(4) for j in range(i + 1, 4)]


def test_eclipse_with_unequal_radii_rejected():
    # the hull widens towards the large second disk and takes in the
    # third; two disks of the mean radius 1.5 would leave it clear
    def three(a1, a2):
        return Configuration((Disk((0.0, 0.0), a1), Disk((10.0, 0.0), a2), Disk((7.0, 2.0), 0.3)))

    assert validate(three(1.5, 1.5)).ok
    report = validate(three(0.5, 2.5))
    assert not report.ok
    assert report.bad_pairs == ()
    assert [t[:3] for t in report.bad_triples] == [(1, 2, 3)]
    brute = brute_hull_gap(np.array([7.0, 2.0]), np.zeros(2), 0.5, np.array([10.0, 0.0]), 2.5)
    assert abs(report.min_triple_margin - (brute - 0.3)) < 1e-6
    assert report.min_triple_margin < -0.2
