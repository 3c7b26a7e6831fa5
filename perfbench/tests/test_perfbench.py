"""Tests of the pipeline benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
from billzeta import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _bench("--workload", "deepen-n14", "--smoke", "--seconds", "0",
                  "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_benchmark_json_names_traced_metrics_in_order():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.per_layer_metrics()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "deepen-n14", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _moved_pole(write_csv):
    """A CSV writer that moves the first zero of every poles.csv."""
    def write(path, header, rows):
        rows = list(rows)
        if Path(path).name == "poles.csv":
            re, *rest = rows[0]
            rows[0] = (re + 1e-3, *rest)
        write_csv(path, header, rows)
    return write


def test_moved_pole_is_a_failed_command(tmp_path, monkeypatch):
    wl = pipeline.resonance_n13(5, True, tmp_path, REFERENCE)
    pipeline.set_up(wl)
    clean = pipeline.run_pass(wl, {})
    assert clean.failed == 0, [c.problems for c in clean.commands]

    monkeypatch.setattr(cli, "_write_csv", _moved_pole(cli._write_csv))
    corrupted = pipeline.run_pass(wl, {})
    failed = [c.sub for c in corrupted.commands if not c.ok]
    assert failed == ["poles", "poles"]
    assert all("recorded" in p for c in corrupted.commands for p in c.problems)


def test_csv_bytes_must_repeat_across_passes(tmp_path):
    wl = pipeline.resonance_n13(5, True, tmp_path, REFERENCE)
    pipeline.set_up(wl)
    baseline = {}
    assert pipeline.run_pass(wl, baseline).failed == 0
    counting = next(c for c in wl.commands if c.sub == "counting")
    digests = baseline[str(counting.out)]
    digests["counting.csv"] = "0" * 64
    again = pipeline.run_pass(wl, baseline)
    assert [c.sub for c in again.commands if not c.ok] == ["counting"]


def test_nonzero_exit_and_crash_are_failures(tmp_path, monkeypatch):
    missing = pipeline.Command(("abscissas", "--cache", str(tmp_path / "none.jsonl")),
                               tmp_path / "out")
    (result,) = pipeline.run_commands([missing])
    assert result.problems and result.problems[0].startswith("exit 1")

    def crash(argv):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "main", crash)
    (result,) = pipeline.run_commands([missing])
    assert result.problems[0].startswith("exit None") and "boom" in result.problems[0]


def test_orbit_check_reads_counts_and_residuals(tmp_path):
    out = tmp_path
    with open(out / "orbits.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["word", "length", "period", "lam", "residual", "shadow_margin"])
        w.writerows([["1-2", 2, 8.0, 1, 0.0, 1], ["1-3", 2, 8.0, 1, 0.0, 1],
                     ["2-3", 2, 8.0, 1, 1e-9, 1]])
    problems = pipeline.checks.orbits(out, 3, 3)
    assert any("cycle counts" in p for p in problems)
    assert any("residual" in p for p in problems)


def test_clock_scales_wall_time_by_the_probes_around_it(monkeypatch):
    probes = iter([0.03, 0.01, 0.02])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = hostspeed.Clock()
    _, wall, scaled = clock.measure(sum, [1, 2])
    assert scaled == pytest.approx(wall * hostspeed.REFERENCE_PROBE_S / 0.02)
    # the probe after one interval is the probe before the next
    _, wall, scaled = clock.measure(sum, [3])
    assert scaled == pytest.approx(wall * hostspeed.REFERENCE_PROBE_S / 0.015)
    assert clock.probes == [0.03, 0.01, 0.02]


def test_random_disks_draws_are_seeded_and_valid():
    first = pipeline.random_disk_configs(7)
    assert [c.r for c in first] == [4, 3, 4, 3, 4, 3]
    again = pipeline.random_disk_configs(7)
    assert all((a.centers == b.centers).all() and (a.radii == b.radii).all()
               for a, b in zip(first, again))


def test_random_disks_failures_count_as_failed(tmp_path):
    # at nmax 5 the periodic order is below the gate's, so only exit codes
    # and structural checks apply; every command is attempted and counted
    wl = pipeline.random_disks(7, True, tmp_path, REFERENCE)
    pipeline.set_up(wl)
    result = pipeline.run_pass(wl, {})
    assert len(result.commands) == 24
    assert result.failed == sum(1 for c in result.commands if c.problems)


def test_traced_pass_accounts_for_pipeline_time(tmp_path):
    wl = pipeline.deepen_n14(5, True, tmp_path, REFERENCE)
    pipeline.set_up(wl)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = pipeline.run_pass(wl, {}, tracer)
    layers = tracer.pass_metrics(0, tracing.Counter(), result.wall_s)
    self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total + layers["tracing.unaccounted_s"] == pytest.approx(result.wall_s)
    assert 0.0 <= layers["tracing.unaccounted_s"] < 0.05 * result.wall_s
    assert layers["orbits.solve_calls"] == layers["stability.certify_calls"] > 0
    assert layers["symbolic.cycles"] == (pipeline.total_cycles(3, 9)
                                         + pipeline.total_cycles(3, 10))
    assert layers["zeta.det_points"] > 0 and layers["zeta.poles"] > 0
    # wrappers are gone after the traced pass
    from billzeta import database, orbits
    assert cli.build_database is database.build_database
    assert not hasattr(orbits.solve_orbit, "__wrapped__")
