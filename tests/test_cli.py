import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from billzeta import __version__, cli
from billzeta.cli import _conjugate_closed
from billzeta.database import save_database
from billzeta.errors import MalformedInputError
from billzeta.geometry import config_digest, save_config
from billzeta.symbolic import primitive_class_count
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
    # validate reads the configuration alone: --cache and --nmax are unknown to it
    for flags in (("--nmax", 5), ("--cache", tmp_path / "c.bin")):
        res = run_cli("validate", "--config", cli_env["config"], *flags, "--out", out)
        assert res.returncode == 1 and flags[0] in res.stderr, flags
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
        solved = solve_orbits(config, words, *args, **kwargs)
        lengths.extend(solved["n"].tolist())
        return solved

    monkeypatch.setattr(orbits, "solve_orbits", spy)
    assert cli.main(["orbits", "--cache", str(extended), "--nmax", "7"]) == 0
    # every cycle of lengths 6 and 7 is solved once, and no other
    assert lengths == [6] * primitive_class_count(3, 6) + [7] * primitive_class_count(3, 7)
    assert extended.read_bytes() == fresh.read_bytes()


def test_orbit_failure_exits_three_naming_the_shortest_length(cli_env, tmp_path, monkeypatch,
                                                              capsys):
    from billzeta import cli, orbits

    monkeypatch.setattr(orbits, "REFLECTION_TOL", -1.0)
    cache = tmp_path / "orbits.jsonl"
    argv = ["orbits", "--config", str(cli_env["config"]), "--cache", str(cache), "--nmax", "6"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: reflection law violated at bounce 0 of (1, 2)\n"
    assert not cache.exists()


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
        # the Gaussian width lies in (0, 1) and the shell-search slack is positive
        (("trace", "--cache", cache, "--sigma", 2), "--sigma"),
        (("trace", "--cache", cache, "--sigma", 0), "--sigma"),
        (("trace", "--cache", cache, "--eps", 0), "--eps"),
    ]
    for argv, flag in cases:
        res = run_cli(*argv, "--out", out)
        assert res.returncode == 1, argv
        assert flag in res.stderr and "Traceback" not in res.stderr, argv
        assert not new_cache.exists() and not out.exists(), argv


def test_cli_imports_no_scipy(cli_env, tmp_path):
    # importing scipy.optimize alone costs about twice `import billzeta.cli`;
    # numpy.ma, which a plain np.unique imports, adds about 1 MB to the heap
    config, cache, fresh = (str(p) for p in (cli_env["config"], cli_env["cache"], tmp_path / "c"))
    script = "\n".join([
        "import sys",
        "from billzeta.cli import main",
        f"assert main(['validate', '--config', {config!r}]) == 0",
        f"assert main(['orbits', '--config', {config!r}, '--cache', {fresh!r}, '--nmax', '5']) == 0",
        f"assert main(['orbits', '--cache', {fresh!r}, '--nmax', '7']) == 0",
        "for sub in ('abscissas', 'zeta', 'poles', 'counting', 'trace'):",
        f"    assert main([sub, '--cache', {cache!r}]) == 0, sub",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        "print(sorted(name for name in sys.modules if name.split('.')[:2] == ['numpy', 'ma']))",
    ])
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["[]", "[]"]


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


def test_cache_with_foreign_words_exits_one(tmp_path, db8, capsys):
    from billzeta.database import SECTIONS, OrbitDatabase

    def rewritten(length, words):
        # digests are written afresh: only the words of ``length`` change
        word = db8.word.copy()
        start, stop = np.searchsorted(db8.n, [length, length + 1])
        word[db8.bounds[start] : db8.bounds[stop]] = np.ravel(words)
        columns = {name: getattr(db8, name) for name, _ in SECTIONS}
        return OrbitDatabase(db8.config, db8.n_max, dict(columns, word=word))

    cache, out = tmp_path / "c.bin", tmp_path / "out"
    every = ("orbits", "abscissas", "counting", "trace", "poles")
    for length, words, subcommands, message in (
        # labels outside 1..3 are refused at load, before their codes alias
        (2, [(1, 2), (1, 3), (2, 4)], every, "row 2 uses labels outside 1..3"),
        (2, [(0, 2), (1, 3), (2, 3)], every, "row 0 uses labels outside 1..3"),
        # in range and in order, but no orbit bounces twice off disk 3
        (3, [(1, 2, 3), (1, 3, 3)], every, "row 4 repeats a label at consecutive bounces"),
        # nor off disk 1 from its last bounce to its first
        (3, [(1, 2, 3), (1, 3, 1)], every, "row 4 repeats a label at consecutive bounces"),
        # admissible and in order, but (2, 1, 3) is a rotation of (1, 3, 2):
        # the cylinder potentials find no cycle (1, 3, 2)
        (3, [(1, 2, 3), (2, 1, 3)], ("abscissas", "counting", "trace"),
         "orbit database has no cycle (1, 3, 2); re-run `billzeta orbits`"),
    ):
        save_database(rewritten(length, words), cache)
        for sub in subcommands:
            assert cli.main([sub, "--cache", str(cache), "--out", str(out)]) == 1, (sub, words)
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, (sub, words)
            assert not list(out.glob("*")), (sub, words)


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


def test_negative_flag_values_may_use_exponent_form(tmp_path, db8, capsys):
    cache = tmp_path / "orbits8"
    save_database(db8, cache)
    for argv, flag, want in (
        (["poles", "--rect", "-1e-1", "-0.05", "0.5", "1"], "rect", [-0.1, -0.05, 0.5, 1.0]),
        (["trace", "--alpha0", "-1e-1"], "alpha0", -0.1),
        (["trace", "--alpha0", "-.5E+0"], "alpha0", -0.5),
    ):
        assert getattr(cli.build_parser().parse_args(argv), flag) == want, argv
        assert cli.main([*argv, "--cache", str(cache)]) == 0, capsys.readouterr().err


def test_poles_explicit_rect_past_floor_is_numerical_error(cli_env):
    out = run_cli(
        "poles", "--cache", cli_env["cache"], "--rect", -2.0, -0.02, 0.2, 1.4
    )
    assert out.returncode == 3
    assert "trust floor" in out.stderr


def test_poles_rect_that_reaches_the_largest_doubles_prints_no_warning(cli_env):
    # the contour midpoints of a rectangle out to 1e308 are formed without
    # the sum of two endpoints, which overflows
    out = run_cli("poles", "--cache", cli_env["cache"], "--rect", 0.5, 1e308, 0, 0.1)
    assert out.returncode == 0, out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr


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


def test_trace_refuses_window_scales_and_thresholds_that_overflow(cli_env, tmp_path):
    # the fixture's nmax 10 windows sit at ell = 8, 16, ..., 40: e^(20 ell)
    # first overflows at ell = 40, e^(100 ell) already at ell = 8
    for flags, message in (
        (("--beta", 20), "beta=20.0 overflows the window scale e^(beta ell) at ell=40.000"),
        (("--alpha0", -100), "alpha0=-100.0 overflows the threshold e^(-alpha0 ell) at ell=8.000"),
    ):
        out_dir = tmp_path / flags[0].lstrip("-")
        out = run_cli("trace", "--cache", cli_env["cache"], "--out", out_dir, *flags)
        assert out.returncode == 2, (flags, out.stderr)
        assert message in out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr
        assert list(out_dir.iterdir()) == []


def test_trace_takes_small_sigmas(cli_env, tmp_path):
    # the frequency cutoff grows as 1/sqrt(sigma), so its Gaussian tail
    # stays below TAIL_TOL; below SIGMA_MIN the width is refused
    for sigma in (0.02, 0.01):
        out_dir = tmp_path / str(sigma)
        out = run_cli("trace", "--cache", cli_env["cache"], "--out", out_dir, "--sigma", sigma)
        assert out.returncode == 0, (sigma, out.stderr)
        lines = (out_dir / "trace_gaussian.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        for line in lines[1:]:
            _, width, direct, quadrature = map(float, line.split(",")[:4])
            assert width == sigma and abs(direct - quadrature) <= 1e-8, (sigma, line)
    out_dir = tmp_path / "narrow"
    out = run_cli("trace", "--cache", cli_env["cache"], "--out", out_dir, "--sigma", 5e-5)
    assert out.returncode == 2 and "sigma must lie in [0.0001, 1)" in out.stderr
    assert "Traceback" not in out.stderr and list(out_dir.iterdir()) == []


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
    from billzeta.trace import resonance_side
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
    for line in lines[1:]:
        ell, m, _, res, _ = map(float, line.split(","))
        assert res == resonance_side(upper, ell, m)
        assert res != resonance_side(closed, ell, m)


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
        orbit_flags = ("--cache", new_cache, "--nmax", 4) if sub != "validate" else ()
        out = run_cli(sub, "--config", cfg, *orbit_flags, "--out", taken)
        assert out.returncode == 1, (sub, out.stderr)
        assert f"cannot create output directory {taken}" in out.stderr, sub
        assert out.stdout == "" and "Traceback" not in out.stderr, sub
        assert not new_cache.exists(), sub


def test_an_unwritable_output_file_is_malformed_input(cli_env, tmp_path):
    # a directory in the place of a table, then of a manifest
    for sub, name in (("orbits", "orbits.csv"), ("poles", "poles_manifest.json")):
        out_dir = tmp_path / sub
        (out_dir / name).mkdir(parents=True)
        out = run_cli(sub, "--cache", cli_env["cache"], "--out", out_dir)
        assert out.returncode == 1, (sub, out.stderr)
        assert f"cannot write output file {out_dir / name}" in out.stderr, sub
        assert "Traceback" not in out.stderr, sub


def eleven_disk_database(scalars=None):
    """A hand-built database over 11 disks, so that labels reach two
    digits; its numbers are arbitrary, only the writer reads them.
    ``scalars`` maps a scalar column to its 7 values, in place of random ones."""
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
    columns.update(scalars or {})
    for name in database.PER_BOUNCE:
        columns[name] = rng.uniform(-1.0, 1.0, sum(n))
    return OrbitDatabase(config, max(n), columns)


def test_orbits_csv_equals_the_row_writer(tmp_path, db12, db_four7):
    from billzeta import cli

    header = ["word", "length", "period", "lam", "residual", "shadow_margin"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    nan, inf = float("nan"), float("inf")
    # -0.0 beside 0.0, repeats in rows apart, and the points where repr
    # switches between its fixed and its exponent form
    edges = {
        "T": [-0.0, 2.5, 0.0, -0.0, 2.5, 0.0, 7.25],
        "lam": [nan, inf, -inf, 5e-324, -nan, -5e-324, nan],
        "residual": [1e-05, 0.0001, 1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06, 1e16],
        "shadow_margin": [0.0001, 0.00010000000000000002, 1e15, 1e17, 0.0001, -0.0, 1e-05],
    }
    for db in (db12, db_four7, eleven_disk_database(), eleven_disk_database(edges)):
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
        (db13, 13, "1377 cycles in 165 period classes: 395 atoms"),
        # no label symmetry: only a cycle and its time reversal share a period
        (db_four7, 7, "508 cycles in 287 period classes: 777 atoms"),
    ):
        cache = tmp_path / f"orbits{N}.bin"
        save_database(db, cache)
        assert cli.main(["poles", "--cache", str(cache), "--det-n", str(N)]) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_poles_csv_does_not_depend_on_the_blas_threads(tmp_path, db13):
    # the determinant sums are BLAS products: the bytes must not depend on
    # how many threads the BLAS library runs them on
    cache = tmp_path / "orbits13"
    save_database(db13, cache)
    searches = {
        "default": ["--det-n", "13"],
        "rect": ["--det-n", "13", "--rect", "-0.35", "-0.02", "0.2", "1.4",
                 "--grid", "40", "40"],
    }
    for name, flags in searches.items():
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            env = dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "billzeta.cli", "poles", "--cache", str(cache),
                 "--out", str(out), *flags],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            tables.append((out / "poles.csv").read_bytes())
        assert tables[0] == tables[1], name
        assert tables[0].count(b"\n") == (4 if name == "default" else 3), name


def test_orbits_csv_does_not_depend_on_the_simd_dispatch(tmp_path, db13):
    # np.unique sorts the writer's keys on AVX-512 paths where the CPU has
    # them: the bytes must equal those written without them
    cache = tmp_path / "orbits13"
    save_database(db13, cache)
    tables = []
    # an empty list disables nothing: numpy's default dispatch
    for i, disabled in enumerate(("", "X86_V4 AVX512_ICL AVX512_SPR")):
        env = dict(subprocess_env(), NPY_DISABLE_CPU_FEATURES=disabled)
        out = tmp_path / f"out-{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "billzeta.cli", "orbits", "--cache", str(cache),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "orbits.csv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0].count(b"\n") == len(db13) + 1


def eager_parser():
    """The command line parser with every subcommand's parser and
    arguments built up front, as argparse's own subparsers do."""
    parser = cli._Parser(prog="billzeta", description=cli.__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"billzeta {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=cli._Parser)
    for name, (help, _, _) in cli.SUBCOMMANDS.items():
        cli._setup_subcommand(sub.add_parser(name, help=help), name)
    return parser


def outcome(run, argv):
    """(result, stdout, stderr) of ``run(argv)``: what it returned, or
    the exit code of ``--help`` or ``--version``, or the usage error's
    message."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = ("returned", run(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except MalformedInputError as exc:
            result = ("usage", str(exc))
    return result, stdout.getvalue(), stderr.getvalue()


def test_lazy_subcommands_parse_as_the_full_parser(monkeypatch):
    argvs = [
        [], ["-h"], ["--help"], ["--version"], ["--bogus"], ["nope"], ["-1", "poles"],
        ["--", "poles", "--det-n", "3"], ["poles", "--det-n"], ["poles", "--det-n", "1"],
        ["poles", "--rect", "1", "0", "0", "1"], ["poles", "--grid", "2"],
        ["trace", "--beta", "nan"], ["zeta", "--window", "x"], ["counting", "--k", "0"],
        ["abscissas", "--bogus"], ["orbits", "--nmax"], ["validate", "extra"],
        ["poles", "--cache", "c", "--rect", "-0.3", "0", "0.2", "1.4", "--grid", "4", "5"],
        ["trace", "--experimental-trace-compare", "--sigma", "0.2"],
        ["validate", "--config", "x"],
    ]
    argvs += [[name, flag] for name in cli.SUBCOMMANDS for flag in ("-h", "--help")]
    argvs += [[name] for name in cli.SUBCOMMANDS]
    usage = 0
    for argv in argvs:
        lazy, full = (outcome(lambda a: vars(build().parse_args(a)), argv)
                      for build in (cli.build_parser, eager_parser))
        assert lazy == full, argv
        if full[0][0] != "usage":
            continue
        # main turns the usage error into the same text and exit code 1
        usage += 1
        codes = []
        for build in (cli.build_parser, eager_parser):
            monkeypatch.setattr(cli, "build_parser", build)
            codes.append(outcome(cli.main, argv))
        assert codes[0] == codes[1] and codes[0][0] == ("returned", 1), argv
        monkeypatch.undo()
    assert usage == 15


def test_a_command_builds_the_parser_of_its_subcommand_alone(monkeypatch):
    built = []
    real = cli._setup_subcommand

    def counted(p, name):
        built.append(name)
        real(p, name)

    monkeypatch.setattr(cli, "_setup_subcommand", counted)
    args = cli.build_parser().parse_args(["poles", "--det-n", "13"])
    assert built == ["poles"]
    assert (args.subcommand, args.det_n, args.func) == ("poles", 13, cli.cmd_poles)
