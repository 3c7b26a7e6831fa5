import numpy as np
import pytest

from billzeta.errors import MalformedInputError
from billzeta.geometry import (
    Configuration,
    Disk,
    boundary_point,
    config_digest,
    config_from_dict,
    load_config,
    outward_normal,
    reflect,
    save_config,
    validate,
)
from tests.conftest import equilateral_config


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


def test_boundary_point_and_normal(config):
    theta = 0.3
    p = boundary_point(config, 0, theta)
    c = config.centers[0]
    assert abs(np.hypot(*(p - c)) - config.radii[0]) < 1e-14
    n = outward_normal(theta)
    assert np.allclose(p, c + config.radii[0] * n)


def test_reflect_preserves_norm_and_flips_normal_component():
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    n = np.array([0.0, 1.0])
    w = reflect(v, n)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-14
    assert np.allclose(w, [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])


def test_digest_depends_on_geometry():
    a = equilateral_config()
    b = equilateral_config(radius=0.9)
    assert config_digest(a) != config_digest(b)
