import json
import subprocess
import sys

import numpy as np
import pytest

from billzeta.cli import _conjugate_closed
from billzeta.database import save_database
from billzeta.geometry import config_digest, save_config
from billzeta.zeta import Pole, real_zero
from tests.conftest import equilateral_config, records, subprocess_env, take_rows


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "billzeta.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory, db10, config):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    save_config(config, cfg)
    cache = root / "orbits.jsonl"
    save_database(db10, cache)
    other = root / "other_config.json"
    save_config(equilateral_config(radius=0.9), other)
    return {"root": root, "config": cfg, "cache": cache, "other": other}


def test_usage_errors_exit_one(cli_env, tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("no-such-subcommand").returncode == 1
    out = tmp_path / "out"
    assert run_cli("validate", "--out", out).returncode == 1
    assert run_cli("orbits", "--out", out).returncode == 1
    assert run_cli("abscissas", "--out", out).returncode == 1
    assert not out.exists()


def test_version_runs():
    out = run_cli("--version")
    assert out.returncode == 0
    assert "billzeta" in out.stdout


def test_validate_ok(cli_env):
    out = run_cli("validate", "--config", cli_env["config"])
    assert out.returncode == 0
    assert "ok" in out.stdout


def test_validate_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    out = run_cli("validate", "--config", bad)
    assert out.returncode == 1


def test_validate_eclipse_is_domain_error(tmp_path):
    from billzeta.geometry import Configuration, Disk

    cfg_path = tmp_path / "eclipse.json"
    save_config(
        Configuration(
            (Disk((0.0, 0.0), 1.0), Disk((8.0, 0.0), 1.0), Disk((4.0, 0.5), 1.0))
        ),
        cfg_path,
    )
    out = run_cli("validate", "--config", cfg_path)
    assert out.returncode == 2


def test_orbits_build_and_cache_hit(cli_env, tmp_path):
    cache = tmp_path / "c.jsonl"
    first = run_cli(
        "orbits", "--config", cli_env["config"], "--cache", cache, "--nmax", 6
    )
    assert first.returncode == 0
    assert "wrote" in first.stdout
    assert cache.exists()
    again = run_cli(
        "orbits", "--config", cli_env["config"], "--cache", cache, "--nmax", 6
    )
    assert again.returncode == 0
    assert "cache hit" in again.stdout
    assert "no re-solve" in again.stdout


def test_orbits_extends_shallow_cache(cli_env, tmp_path):
    cache = tmp_path / "c.jsonl"
    run_cli("orbits", "--config", cli_env["config"], "--cache", cache, "--nmax", 4)
    out = run_cli("orbits", "--cache", cache, "--nmax", 6)
    assert out.returncode == 0
    assert "solving lengths 5..6" in out.stdout


def test_extended_cache_equals_fresh_build(cli_env, tmp_path, monkeypatch):
    from billzeta import cli, orbits

    config = str(cli_env["config"])
    fresh, extended = tmp_path / "fresh.jsonl", tmp_path / "extended.jsonl"
    assert cli.main(["orbits", "--config", config, "--cache", str(fresh), "--nmax", "7"]) == 0
    assert cli.main(["orbits", "--config", config, "--cache", str(extended), "--nmax", "5"]) == 0
    solve_orbits = orbits.solve_orbits
    lengths = []

    def spy(config, words, *args, **kwargs):
        lengths.append(len(words[0]))
        return solve_orbits(config, words, *args, **kwargs)

    monkeypatch.setattr(orbits, "solve_orbits", spy)
    assert cli.main(["orbits", "--cache", str(extended), "--nmax", "7"]) == 0
    assert lengths == [6, 7]
    assert extended.read_bytes() == fresh.read_bytes()


def test_out_of_range_integer_flags_are_usage_errors(cli_env, tmp_path):
    cfg, cache = cli_env["config"], cli_env["cache"]
    new_cache, out = tmp_path / "new.jsonl", tmp_path / "out"
    cases = [
        (("orbits", "--config", cfg, "--cache", new_cache, "--nmax", n), "--nmax")
        for n in (1, 0, -2)
    ]
    cases += [
        (("abscissas", "--cache", cache, "--nmax", 1), "--nmax"),
        (("poles", "--cache", cache, "--det-n", -1), "--det-n"),
        (("poles", "--cache", cache, "--det-n", 1), "--det-n"),
        (("poles", "--cache", cache, "--rect", -0.2, 0, 0, 1, "--grid", 0, 0), "--grid"),
        (("poles", "--cache", cache, "--rect", -0.2, 0, 0, 1, "--grid", 4, 0), "--grid"),
        (("poles", "--cache", cache, "--rect", "nan", 0, 0, 1), "--rect"),
        (("poles", "--cache", cache, "--rect", -0.1, -0.2, 0, 1), "--rect"),
        (("poles", "--cache", cache, "--rect", -0.2, 0, 1, "inf"), "--rect"),
        (("poles", "--cache", cache, "--det-kmax", -1), "--det-kmax"),
        (("zeta", "--cache", cache, "--window", 0), "--window"),
        (("zeta", "--cache", cache, "--window", -2), "--window"),
        (("abscissas", "--cache", cache, "--n", 0), "argument --n:"),
        (("abscissas", "--cache", cache, "--n", 1), "argument --n:"),
        (("abscissas", "--cache", cache, "--k", 0), "argument --k:"),
        (("counting", "--cache", cache, "--k", 0), "argument --k:"),
        (("trace", "--cache", cache, "--eps", "nan", "--alpha0", "nan"), "--eps"),
        (("trace", "--cache", cache, "--alpha0", "nan"), "--alpha0"),
        (("trace", "--cache", cache, "--beta", "nan"), "--beta"),
        (("trace", "--cache", cache, "--sigma", "inf"), "--sigma"),
        (("trace", "--cache", cache, "--eps", "-inf"), "--eps"),
    ]
    for argv, flag in cases:
        res = run_cli(*argv, "--out", out)
        assert res.returncode == 1, argv
        assert flag in res.stderr and "Traceback" not in res.stderr, argv
        assert not new_cache.exists() and not out.exists(), argv


def test_cli_imports_no_scipy(cli_env):
    # importing scipy.optimize alone costs about twice `import billzeta.cli`
    script = "\n".join([
        "import sys",
        "from billzeta.cli import main",
        "for sub in ('abscissas', 'zeta', 'poles', 'counting', 'trace'):",
        f"    assert main([sub, '--cache', {str(cli_env['cache'])!r}]) == 0, sub",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    ])
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_jobs_flag_is_a_usage_error(cli_env):
    out = run_cli("orbits", "--config", cli_env["config"], "--nmax", 4, "--jobs", 2)
    assert out.returncode == 1
    assert "--jobs" in out.stderr


def test_damaged_cache_is_malformed_input(cli_env, db10, tmp_path):
    blob = cli_env["cache"].read_bytes()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes(blob[:-40])
    short = tmp_path / "short.jsonl"
    save_database(
        take_rows(db10, [row for row in range(len(db10)) if row != db10.row((1, 2, 3))]),
        short,
    )
    appended = tmp_path / "appended.jsonl"
    appended.write_bytes(blob + b"\n")
    string_header = tmp_path / "string_header.jsonl"
    string_header.write_text('"billzeta-orbit-cache/2"\n', encoding="utf-8")
    for cache, message in (
        (truncated, "section kappa is cut short"),
        (short, "length 3"),
        (appended, "1 bytes after its last section"),
        (string_header, "has a bad header"),
    ):
        for sub in ("orbits", "zeta"):
            out = run_cli(sub, "--cache", cache)
            assert out.returncode == 1, (sub, out.stderr)
            assert message in out.stderr
            assert "Traceback" not in out.stderr


def test_format_1_cache_is_stale(cli_env, db10, tmp_path):
    old = tmp_path / "old.jsonl"
    header = {
        "format": "billzeta-orbit-cache/1",
        "config": db10.config.to_dict(),
        "config_hash": db10.config_hash,
        "n_max": db10.n_max,
        "solver_version": 3,
    }
    old.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
    for sub in ("orbits", "abscissas"):
        out = run_cli(sub, "--cache", old)
        assert out.returncode == 2, (sub, out.stderr)
        assert "re-run" in out.stderr
        assert f"billzeta orbits --config <file> --cache {old} --nmax <n>" in out.stderr
        assert "Traceback" not in out.stderr


def test_orbits_stale_cache_refused(cli_env):
    out = run_cli(
        "orbits", "--config", cli_env["other"], "--cache", cli_env["cache"], "--nmax", 6
    )
    assert out.returncode == 2
    assert "re-run" in out.stderr


def test_orbits_summary_lists_counts(cli_env):
    out = run_cli("orbits", "--cache", cli_env["cache"], "--nmax", 8)
    assert out.returncode == 0
    assert "2:3" in out.stdout
    assert "residuals: min" in out.stdout


def test_nmax_beyond_cache_is_domain_error(cli_env):
    out = run_cli("abscissas", "--cache", cli_env["cache"], "--nmax", 12)
    assert out.returncode == 2
    assert "extend" in out.stderr


def test_abscissas_outputs(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("abscissas", "--cache", cli_env["cache"], "--out", out_dir)
    assert out.returncode == 0
    assert "ordering b1 < a1 < h: ok" in out.stdout
    lines = (out_dir / "abscissas.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,method,order,value"
    assert len(lines) == 7
    h_transfer = float(lines[1].split(",")[3])
    assert abs(h_transfer - 0.16723) < 1e-3


def test_manifest_contract(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    run_cli("abscissas", "--cache", cli_env["cache"], "--out", out_dir)
    manifest = json.loads((out_dir / "abscissas_manifest.json").read_text("utf-8"))
    assert manifest["subcommand"] == "abscissas"
    assert manifest["tool_version"]
    assert manifest["timestamp"]
    assert manifest["parameters"]["k"] == 6
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    assert "abscissas.csv" in manifest["outputs"]
    from billzeta.geometry import load_config

    assert manifest["config_hash"] == config_digest(load_config(cli_env["config"]))


def test_zeta_outputs(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("zeta", "--cache", cli_env["cache"], "--out", out_dir)
    assert out.returncode == 0
    assert (out_dir / "zeta_estimates.csv").exists()
    assert (out_dir / "zeta_shells.csv").exists()


def test_zeta_names_the_short_series(tmp_path, db8):
    cache = tmp_path / "orbits8.jsonl"
    save_database(db8, cache)
    out = run_cli("zeta", "--cache", cache)
    assert out.returncode == 2
    assert "half/even series: it has 4 shells" in out.stderr
    assert "needs 5; --nmax 10 would be enough" in out.stderr
    assert "Traceback" not in out.stderr


def test_poles_outputs(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("poles", "--cache", cli_env["cache"], "--out", out_dir)
    assert out.returncode == 0
    lines = (out_dir / "poles.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re,im,multiplicity,residual,trust_margin"
    assert len(lines) >= 2
    re_val, im_val, mult = lines[1].split(",")[:3]
    assert abs(float(re_val) + 0.12156) < 1e-3
    assert float(im_val) == 0.0
    assert mult == "1"


def poles_rows(cache, out_dir, *rect_and_grid):
    out = run_cli("poles", "--cache", cache, "--out", out_dir, "--rect", *rect_and_grid)
    assert out.returncode == 0, out.stderr
    lines = (out_dir / "poles.csv").read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(map(float, line.split(",")[:2])) for line in lines]


def test_poles_rect_across_the_axis_lists_each_zero_once(tmp_path, db12):
    cache = tmp_path / "orbits12.jsonl"
    save_database(db12, cache)
    rows = poles_rows(cache, tmp_path / "out", -0.3, -0.2, -1, 1, "--grid", 2, 5)
    # the search finds both members of the pair; none is mirrored again
    assert len(rows) == 2
    (re_lo, im_lo), (re_hi, im_hi) = rows
    assert -1.0 < im_lo < -0.5 and 0.5 < im_hi < 1.0
    assert abs(re_lo - re_hi) < 1e-9 and abs(im_lo + im_hi) < 1e-9


def test_poles_rect_below_the_axis_gets_its_mirror(tmp_path, db12):
    cache = tmp_path / "orbits12.jsonl"
    save_database(db12, cache)
    below = poles_rows(cache, tmp_path / "below", -0.3, -0.2, -1, -0.5, "--grid", 2, 2)
    above = poles_rows(cache, tmp_path / "above", -0.3, -0.2, 0.5, 1, "--grid", 2, 2)
    assert len(below) == 2
    assert below[1] == (below[0][0], -below[0][1]) and below[0][1] < 0.0
    # the search above the axis finds the same pair to the last digits
    assert np.allclose(sorted(below), sorted(above), rtol=0.0, atol=1e-11)


def test_conjugate_closing_snaps_and_mirrors_by_one_rule():
    def pole(s):
        return Pole(s=s, multiplicity=1, residual=0.0, trust_margin=1.0)

    rect = (-1.0, 0.0, 1e-13, 1.0)
    found = [pole(complex(-0.5, 5e-13)), pole(complex(-0.2, 0.4)), pole(complex(-0.3, 2e-12))]
    closed = [p.s for p in _conjugate_closed(found, [rect])]
    # 5e-13 goes on the axis and is not mirrored; 2e-12 and 0.4 are
    assert closed == [-0.2 - 0.4j, -0.3 - 2e-12j, -0.5 + 0j, -0.3 + 2e-12j, -0.2 + 0.4j]
    assert [p.s for p in _conjugate_closed(found, [(-1.0, 0.0, -1.0, 1.0)])] == [
        -0.5 + 0j, -0.3 + 2e-12j, -0.2 + 0.4j
    ]


def test_poles_explicit_rect_past_floor_is_numerical_error(cli_env):
    out = run_cli(
        "poles", "--cache", cli_env["cache"], "--rect", -2.0, -0.02, 0.2, 1.4
    )
    assert out.returncode == 3
    assert "trust floor" in out.stderr


def test_poles_contour_through_a_zero_is_numerical_error(tmp_path, db12, exp12):
    cache = tmp_path / "orbits12.jsonl"
    save_database(db12, cache)
    z0 = real_zero(exp12, -0.2, -0.05)
    out = run_cli(
        "poles", "--cache", cache, "--rect", repr(z0), -0.05, 0.0, 0.1, "--grid", 1, 1
    )
    assert out.returncode == 3
    assert "below 3.0 x the truncation noise" in out.stderr
    assert "Traceback" not in out.stderr


def test_poles_zero_outside_its_cell_is_numerical_error(tmp_path, db12):
    cache = tmp_path / "orbits12.jsonl"
    save_database(db12, cache)
    out = run_cli("poles", "--cache", cache, "--rect", -0.31, -0.02, 0.2, 2.4, "--grid", 1, 1)
    assert out.returncode == 3
    assert "outside the cell" in out.stderr
    assert "Traceback" not in out.stderr


def test_poles_merged_cluster_is_numerical_error(tmp_path, db12):
    cache = tmp_path / "orbits12.jsonl"
    save_database(db12, cache)
    out = run_cli("poles", "--cache", cache, "--rect", -0.31, -0.02, 0.2, 2.4, "--grid", 1, 2)
    assert out.returncode == 3
    assert "not one multiple zero" in out.stderr
    assert "Traceback" not in out.stderr


def test_counting_outputs(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("counting", "--cache", cli_env["cache"], "--out", out_dir)
    assert out.returncode == 0
    lines = (out_dir / "counting.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,count,model,ratio"
    assert len(lines) > 10


def test_trace_outputs(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("trace", "--cache", cli_env["cache"], "--out", out_dir)
    assert out.returncode == 0
    for name in ("trace_windows.csv", "trace_gaussian.csv", "trace_shells.csv"):
        assert (out_dir / name).exists()
    assert not (out_dir / "trace_compare.csv").exists()
    manifest = json.loads((out_dir / "trace_manifest.json").read_text("utf-8"))
    assert sorted(manifest["outputs"]) == [
        "trace_gaussian.csv",
        "trace_shells.csv",
        "trace_windows.csv",
    ]


def test_trace_experimental_flag(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli(
        "trace",
        "--cache",
        cli_env["cache"],
        "--out",
        out_dir,
        "--experimental-trace-compare",
    )
    assert out.returncode == 0
    assert "experimental" in out.stdout
    assert (out_dir / "trace_compare.csv").exists()


def test_trace_compare_counts_each_zero_pair_once(tmp_path, db12):
    from billzeta import cli
    from billzeta.trace import BumpFunction, resonance_side
    from billzeta.zeta import build_determinant

    cache, out = tmp_path / "c.bin", tmp_path / "out"
    save_database(db12, cache)
    argv = ["trace", "--cache", str(cache), "--out", str(out), "--experimental-trace-compare"]
    assert cli.main(argv) == 0
    closed = cli._default_pole_search(build_determinant(db12, 12))
    upper = [p for p in closed if p.s.imag >= 0]
    assert len(upper) < len(closed)  # the search finds a complex pair
    lines = (out / "trace_compare.csv").read_text("utf-8").splitlines()
    assert lines[0] == "ell,m,orbit_side,resonance_side,ratio"
    bump = BumpFunction()
    for line in lines[1:]:
        ell, m, _, res, _ = map(float, line.split(","))
        assert res == resonance_side(upper, bump, ell, m)
        assert res != resonance_side(closed, bump, ell, m)


def test_csv_lf_line_endings(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    run_cli("counting", "--cache", cli_env["cache"], "--out", out_dir)
    raw = (out_dir / "counting.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_unwritable_output_paths_are_malformed_input(cli_env, tmp_path):
    cfg = cli_env["config"]
    cache = tmp_path / "no-such-dir" / "c.bin"
    out = run_cli("orbits", "--config", cfg, "--cache", cache, "--nmax", 4)
    assert out.returncode == 1, out.stderr
    assert f"cannot write orbit cache {cache}" in out.stderr
    assert "Traceback" not in out.stderr
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    out = run_cli("abscissas", "--config", cfg, "--nmax", 6, "--out", taken)
    assert out.returncode == 1, out.stderr
    assert f"cannot create output directory {taken}" in out.stderr
    assert "Traceback" not in out.stderr
    # the output directory is checked before any work: nothing is printed,
    # solved or written
    assert out.stdout == ""
    new_cache = tmp_path / "new.bin"
    for sub in ("validate", "orbits", "abscissas", "zeta", "poles", "counting", "trace"):
        out = run_cli(sub, "--config", cfg, "--cache", new_cache, "--nmax", 4, "--out", taken)
        assert out.returncode == 1, (sub, out.stderr)
        assert f"cannot create output directory {taken}" in out.stderr, sub
        assert out.stdout == "" and "Traceback" not in out.stderr, sub
        assert not new_cache.exists(), sub


def eleven_disk_database():
    """A hand-built database over 11 disks, so that labels reach two
    digits; its numbers are arbitrary, only the writer reads them."""
    from billzeta import database
    from billzeta.database import OrbitDatabase
    from billzeta.geometry import Configuration, Disk

    angles = 2.0 * np.pi * np.arange(11) / 11
    config = Configuration(tuple(Disk((20.0 * np.cos(a), 20.0 * np.sin(a)), 1.0) for a in angles))
    words = [(1, 10), (2, 11), (9, 10), (10, 11), (1, 10, 11), (3, 11, 4, 10), (11, 10, 11, 9, 10)]
    n = [len(w) for w in words]
    rng = np.random.default_rng(11)
    columns = {"n": n, "word": [s for w in words for s in w]}
    for name in database.SCALARS:
        columns[name] = rng.uniform(-40.0, 40.0, len(words))
    for name in database.PER_BOUNCE:
        columns[name] = rng.uniform(-1.0, 1.0, sum(n))
    return OrbitDatabase(config, max(n), columns)


def test_orbits_csv_equals_the_row_writer(tmp_path, db12, db_four7):
    from billzeta import cli

    header = ["word", "length", "period", "lam", "residual", "shadow_margin"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    for db in (db12, db_four7, eleven_disk_database()):
        rows = [
            ("-".join(str(s) for s in rec.word), rec.n, rec.T, rec.lam, rec.residual,
             rec.shadow_margin)
            for rec in records(db)
        ]
        cli._write_csv(want, header, rows)
        cli._write_orbits_csv(got, db)
        assert got.read_bytes() == want.read_bytes()
    assert b"\n3-11-4-10," in got.read_bytes()


def test_solve_and_consumers_build_no_per_cycle_objects(cli_env, config, tmp_path, monkeypatch):
    from billzeta import cli, orbits, stability

    made = []
    for cls in (orbits.PeriodicOrbit, stability.StabilityRecord):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    cfg, cache = str(cli_env["config"]), str(tmp_path / "c.bin")
    for argv in (
        ["orbits", "--config", cfg, "--cache", cache, "--nmax", "7"],
        ["orbits", "--cache", cache, "--nmax", "8"],
        ["abscissas", "--cache", cache],
        ["poles", "--cache", cache],
        ["trace", "--cache", cache],
    ):
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv
    assert made == []
    # the spies do see the one-row calls
    stability.stability_record(config, orbits.solve_orbit(config, (1, 2)))
    assert made == ["PeriodicOrbit", "StabilityRecord"]


def test_orbits_without_nmax_keeps_the_cache_n_max(tmp_path, db8, db13):
    c8, c13, out_dir = tmp_path / "c8.bin", tmp_path / "c13.bin", tmp_path / "out"
    save_database(db8, c8)
    save_database(db13, c13)
    blobs = {cache: cache.read_bytes() for cache in (c8, c13)}
    out = run_cli("orbits", "--cache", c8)
    assert out.returncode == 0, out.stderr
    assert "cache hit" in out.stdout and "solving" not in out.stdout
    out = run_cli("orbits", "--cache", c13, "--out", out_dir)
    assert out.returncode == 0, out.stderr
    assert f"orbits: {len(db13)} primitive cycles" in out.stdout
    assert {cache: cache.read_bytes() for cache in (c8, c13)} == blobs
    lines = (out_dir / "orbits.csv").read_text(encoding="utf-8").splitlines()
    assert len(db13) == 1377 and len(lines) == 1 + 1377
    manifest = json.loads((out_dir / "orbits_manifest.json").read_text("utf-8"))
    assert manifest["parameters"]["nmax"] == 13


def test_poles_grid_without_rect_is_a_usage_error(cli_env, tmp_path):
    out_dir = tmp_path / "out"
    out = run_cli("poles", "--cache", cli_env["cache"], "--grid", 1, 1, "--out", out_dir)
    assert out.returncode == 1, out.stderr
    assert "--grid needs --rect" in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == ""
    assert not out_dir.exists()


def test_poles_manifest_records_the_grid(cli_env, tmp_path):
    from billzeta import cli

    grids = {}
    for tag, extra in (
        ("default", []),
        ("g33", ["--rect", "-0.2", "-0.05", "-0.1", "0.1", "--grid", "3", "3"]),
        ("g13", ["--rect", "-0.2", "-0.05", "-0.1", "0.1", "--grid", "1", "3"]),
    ):
        out_dir = tmp_path / tag
        assert cli.main(["poles", "--cache", str(cli_env["cache"]), *extra,
                         "--out", str(out_dir)]) == 0, tag
        manifest = json.loads((out_dir / "poles_manifest.json").read_text("utf-8"))
        grids[tag] = manifest["parameters"]["grid"]
    assert grids == {"default": None, "g33": [3, 3], "g13": [1, 3]}


def test_zeta_short_cache_names_an_nmax_that_fits_every_series(tmp_path, db12, capsys):
    from billzeta import cli
    from billzeta.database import restrict_database

    for window, n_max, listed, need in (
        (4, 3, ["none", "half", "full", "unstable", "half/even"], 10),
        (4, 5, ["none", "half", "full", "unstable", "half/even"], 10),
        (4, 6, ["half/even"], 10),
        (2, 3, ["none", "half", "full", "unstable", "half/even"], 6),
    ):
        cache = tmp_path / f"c{n_max}.bin"
        save_database(restrict_database(db12, n_max), cache)
        assert cli.main(["zeta", "--cache", str(cache), "--window", str(window)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1, err
        assert [clause.split(" series:")[0].split()[-1] for clause in err.split(";")[:-1]] \
            == listed, err
        assert err.rstrip().endswith(f"--nmax {need} would be enough"), err
        fits = tmp_path / f"fits{need}.bin"
        save_database(restrict_database(db12, need), fits)
        assert cli.main(["zeta", "--cache", str(fits), "--window", str(window)]) == 0


def test_every_manifest_lists_exactly_the_files_written(cli_env, tmp_path):
    from billzeta import cli
    from billzeta.geometry import load_config

    cfg, cache = str(cli_env["config"]), str(cli_env["cache"])
    trace_keys = {"beta", "alpha0", "sigma", "eps", "nmax", "experimental_trace_compare"}
    cases = [
        (["validate", "--config", cfg], {"config"}),
        (["orbits", "--cache", cache], {"nmax", "cache"}),
        (["abscissas", "--cache", cache], {"k", "n", "nmax"}),
        (["zeta", "--cache", cache], {"window", "nmax"}),
        (["poles", "--cache", cache], {"det_n", "det_kmax", "rect", "grid", "nmax"}),
        (["counting", "--cache", cache], {"k", "h", "nmax"}),
        (["trace", "--cache", cache], trace_keys),
        (["trace", "--cache", cache, "--experimental-trace-compare"], trace_keys),
    ]
    digest = config_digest(load_config(cfg))
    for i, (argv, keys) in enumerate(cases):
        out_dir = tmp_path / f"{i}-{argv[0]}"
        assert cli.main([*argv, "--out", str(out_dir)]) == 0, argv
        name = f"{argv[0]}_manifest.json"
        manifest = json.loads((out_dir / name).read_text("utf-8"))
        assert sorted(p.name for p in out_dir.iterdir()) == sorted([name, *manifest["outputs"]])
        assert manifest["outputs"], argv
        assert set(manifest["parameters"]) == keys, argv
        assert manifest["config_hash"] == digest, argv
        assert manifest["subcommand"] == argv[0]


def test_poles_reports_its_period_classes(tmp_path, db13, db_four7, capsys):
    from billzeta import cli

    for db, N, line in (
        (db13, 13, "1377 cycles in 165 period classes (label symmetry order 6, "
                   "with time reversal): 395 atoms"),
        # no label symmetry: only a cycle and its time reversal share a period
        (db_four7, 7, "508 cycles in 287 period classes (label symmetry order 1, "
                      "with time reversal): 777 atoms"),
    ):
        cache = tmp_path / f"orbits{N}.bin"
        save_database(db, cache)
        assert cli.main(["poles", "--cache", str(cache), "--det-n", str(N)]) == 0
        assert line in capsys.readouterr().out.splitlines()
