"""Workloads of the pipeline benchmark: inputs made from a seed, the
command sequence of one pass, and the timing and checking of each command.

Every command goes through ``billzeta.cli.main`` in this process, exactly
as a user would type it, with ``--out`` pointing at a directory of its own
so that its CSV files can be checked after it returns.  ``--jobs`` is
never passed, so the numbers are those of the default single-threaded path.
Each command is timed by a ``hostspeed.Clock``, in wall seconds and in
seconds scaled to the reference host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from billzeta import cli
from billzeta.geometry import Configuration, Disk, save_config, validate
from billzeta.symbolic import primitive_class_count

import checks
import hostspeed

# end-to-end stage metric that each subcommand's time is summed into
STAGE_OF = {
    "orbits": "orbits_s",
    "poles": "poles_s",
    "abscissas": "abscissas_s",
    "counting": "abscissas_s",
    "zeta": "spectrum_s",
    "trace": "spectrum_s",
}
STAGES = ("orbits_s", "poles_s", "abscissas_s", "spectrum_s")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it wrote to ``out``."""

    argv: tuple
    out: Path
    check: Callable[[Path], list] = checks.nothing

    @property
    def sub(self) -> str:
        return self.argv[0]


@dataclass
class CommandResult:
    sub: str
    out: str
    seconds: float  # scaled to the reference host speed
    wall_s: float
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    commands: list
    traced: bool = False
    layers: dict = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def stage_s(self, stage: str) -> float:
        return sum(c.seconds for c in self.commands if STAGE_OF.get(c.sub) == stage)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if not c.ok)


@dataclass
class Workload:
    """Inputs and command sequences of one workload.

    ``setup`` runs on every set-up repetition, after the configuration
    files are written and every cache removed; ``warmup`` follows it
    untimed.  ``commands`` is one measured pass.  Files in ``fresh`` are
    removed before every pass, so caches the pass builds are rebuilt.
    """

    work: Path
    configs: dict
    setup: list
    warmup: list
    commands: list
    fresh: list

    def config_path(self, label: str) -> Path:
        return self.work / f"{label}.json"


# ---------------------------------------------------------------------------
# inputs


def fixture_config(seed: int | None) -> Configuration:
    """The equilateral fixture (side 6, unit radii) under a rigid motion.

    From ``default_rng(seed)`` the draw order is: a rotation angle uniform
    in [0, 2 pi), a translation uniform in [-2, 2]^2, then a permutation
    of the three disk labels.  Orbit lengths and stabilities are invariant
    under all three, so every seed has the same cost and the same
    reference values; ``seed=None`` gives the fixture itself.
    """
    circum = 6.0 / np.sqrt(3.0)
    base = [
        (circum * np.cos(np.pi / 2 + 2.0 * np.pi * k / 3.0),
         circum * np.sin(np.pi / 2 + 2.0 * np.pi * k / 3.0))
        for k in range(3)
    ]
    if seed is None:
        return Configuration(tuple(Disk(center=c, radius=1.0) for c in base))
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(-2.0, 2.0, size=2)
    order = rng.permutation(3)
    cos, sin = np.cos(angle), np.sin(angle)
    disks = []
    for k in order:
        x, y = base[k]
        disks.append(
            Disk(center=(cos * x - sin * y + shift[0], sin * x + cos * y + shift[1]),
                 radius=1.0)
        )
    return Configuration(tuple(disks))


def random_disk_configs(seed: int, count: int = 6) -> list:
    """``count`` valid random configurations drawn from ``default_rng(seed)``.

    Draw order for each candidate: the disk count r from {3, 4}
    (``rng.choice``); then, disk by disk, its center (two uniform draws in
    [-8, 8]) followed by its radius (uniform in [0.5, 1.5]).  A candidate
    is kept only if ``geometry.validate`` accepts it; a rejected one still
    consumes its draws.  Seed 7 yields r = 4, 3, 4, 3, 4, 3, and the
    second and sixth configurations make the pressure root solve raise
    ``PowerIterationError``.
    """
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        r = int(rng.choice([3, 4]))
        disks = []
        for _ in range(r):
            center = rng.uniform(-8.0, 8.0, size=2)
            radius = rng.uniform(0.5, 1.5)
            disks.append(Disk(center=(float(center[0]), float(center[1])),
                              radius=float(radius)))
        config = Configuration(tuple(disks))
        if validate(config).ok:
            configs.append(config)
    return configs


def total_cycles(r: int, n_max: int) -> int:
    return sum(primitive_class_count(r, n) for n in range(2, n_max + 1))


# ---------------------------------------------------------------------------
# workloads


class _Sequence:
    """Numbers the output directories of a command sequence."""

    def __init__(self, work: Path, tag: str):
        self.work = work
        self.tag = tag
        self.commands = []

    def add(self, *argv, check=checks.nothing):
        out = self.work / "out" / self.tag / f"{len(self.commands):02d}-{argv[0]}"
        argv = tuple(str(a) for a in argv) + ("--out", str(out))
        self.commands.append(Command(argv=argv, out=out, check=check))


def _deepen_sequence(w: _Sequence, cfg: Path, cache: Path, n1: int, n2: int, ref: dict):
    w.add("validate", "--config", cfg)
    for n in (n1, n2):
        w.add("orbits", "--config", cfg, "--cache", cache, "--nmax", n,
              check=lambda out, n=n: checks.orbits(out, 3, n))
    w.add("abscissas", "--cache", cache, check=lambda out: checks.abscissas(out, ref))
    w.add("zeta", "--cache", cache, check=checks.zeta)
    det_n = min(12, n2)
    w.add("poles", "--cache", cache, check=lambda out: checks.poles(out, ref, det_n))
    w.add("counting", "--cache", cache,
          check=lambda out: checks.counting(out, total_cycles(3, n2)))
    w.add("trace", "--cache", cache, check=checks.trace)


def _resonance_sequence(w: _Sequence, cfg: Path, cache: Path, n: int, det_n: int, ref: dict):
    w.add("orbits", "--config", cfg, "--cache", cache, "--nmax", n,
          check=lambda out: checks.orbits(out, 3, n))
    w.add("abscissas", "--cache", cache, check=lambda out: checks.abscissas(out, ref))
    w.add("zeta", "--cache", cache, check=checks.zeta)
    default_n = min(12, n)
    w.add("poles", "--cache", cache, check=lambda out: checks.poles(out, ref, default_n))
    w.add("poles", "--cache", cache, "--det-n", det_n,
          check=lambda out: checks.poles(out, ref, det_n))
    w.add("counting", "--cache", cache,
          check=lambda out: checks.counting(out, total_cycles(3, n)))
    w.add("trace", "--cache", cache, "--experimental-trace-compare", check=checks.trace)


def _random_sequence(w: _Sequence, work: Path, configs: dict, n: int, suffix: str):
    caches = []
    for label, config in configs.items():
        cfg = work / f"{label}.json"
        cache = work / f"{label}{suffix}.jsonl"
        caches.append(cache)
        w.add("validate", "--config", cfg)
        w.add("orbits", "--config", cfg, "--cache", cache, "--nmax", n,
              check=lambda out, r=config.r: checks.orbits(out, r, n))
        w.add("abscissas", "--cache", cache, check=lambda out: checks.abscissas(out, None))
        w.add("counting", "--cache", cache,
              check=lambda out, r=config.r: checks.counting(out, total_cycles(r, n)))
    return caches


SMOKE_DEEPEN = (9, 10)
FULL_DEEPEN = (12, 14)
SMOKE_RESONANCE = (10, 9)
FULL_RESONANCE = (13, 13)
SMOKE_RANDOM_NMAX = 5
FULL_RANDOM_NMAX = 8


def deepen_n14(seed, smoke, work, ref):
    """Fresh cache every pass: validate, orbits to 12, extend to 14,
    then every consumer of the cache once."""
    cfg = work / "fixture.json"
    cache, warm_cache = work / "deepen.jsonl", work / "warmup.jsonl"
    passes, warm = _Sequence(work, "pass"), _Sequence(work, "warmup")
    _deepen_sequence(passes, cfg, cache, *(SMOKE_DEEPEN if smoke else FULL_DEEPEN), ref)
    _deepen_sequence(warm, cfg, warm_cache, *SMOKE_DEEPEN, ref)
    return Workload(work, {"fixture": fixture_config(seed)}, [], warm.commands,
                    passes.commands, [cache])


def resonance_n13(seed, smoke, work, ref):
    """Read-only passes over a cache that set-up builds: determinants of
    two truncation orders, contour searches and trace sums."""
    cfg = work / "fixture.json"
    cache, warm_cache = work / "resonance.jsonl", work / "warmup.jsonl"
    n, det_n = SMOKE_RESONANCE if smoke else FULL_RESONANCE
    setup = _Sequence(work, "setup")
    setup.add("orbits", "--config", cfg, "--cache", cache, "--nmax", n,
              check=lambda out: checks.orbits(out, 3, n))
    warm = _Sequence(work, "warmup")
    warm.add("orbits", "--config", cfg, "--cache", warm_cache, "--nmax", SMOKE_RESONANCE[0],
             check=lambda out: checks.orbits(out, 3, SMOKE_RESONANCE[0]))
    _resonance_sequence(warm, cfg, warm_cache, *SMOKE_RESONANCE, ref)
    passes = _Sequence(work, "pass")
    _resonance_sequence(passes, cfg, cache, n, det_n, ref)
    return Workload(work, {"fixture": fixture_config(seed)}, setup.commands,
                    warm.commands, passes.commands, [])


def random_disks(seed, smoke, work, ref):
    """Six random configurations per pass, each solved and run through
    the pressure root solves at a small nmax."""
    configs = {f"disks{i}": c for i, c in enumerate(random_disk_configs(seed))}
    passes, warm = _Sequence(work, "pass"), _Sequence(work, "warmup")
    n = SMOKE_RANDOM_NMAX if smoke else FULL_RANDOM_NMAX
    fresh = _random_sequence(passes, work, configs, n, "")
    _random_sequence(warm, work, configs, SMOKE_RANDOM_NMAX, "-warmup")
    return Workload(work, configs, [], warm.commands, passes.commands, fresh)


WORKLOADS = {
    "deepen-n14": deepen_n14,
    "resonance-n13": resonance_n13,
    "random-disks": random_disks,
}


# ---------------------------------------------------------------------------
# running


def _csv_digests(out: Path) -> dict:
    # manifests carry a timestamp, so only the CSV tables must repeat
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


def invoke(argv, tracer=None):
    """Run one CLI command; returns (exit code or None, stderr).

    An exception escaping ``cli.main`` is a failed command (exit None)
    with its traceback as the message, never a crash of the benchmark.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.command(argv[0]) if tracer is not None else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    except Exception:  # noqa: BLE001 - a crash is reported as a failure
        code = None
        stderr.write(traceback.format_exc())
    return code, stderr.getvalue()


def run_commands(commands, clock=None, tracer=None, baseline=None) -> list:
    """Run a command sequence; every command is checked after it returns.

    ``baseline`` maps an output directory to the CSV digests of an
    earlier pass; a CSV whose bytes differ from it is a failed check.
    """
    clock = clock or hostspeed.Clock()
    results = []
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
        (code, err), wall, seconds = clock.measure(invoke, cmd.argv, tracer)
        if code != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            problems = [f"exit {code}: {last}"]
        else:
            problems = list(cmd.check(cmd.out))
            digests = _csv_digests(cmd.out)
            if baseline is not None:
                want = baseline.setdefault(str(cmd.out), digests)
                problems += [
                    f"{name} bytes differ from the first pass"
                    for name in sorted(set(want) | set(digests))
                    if want.get(name) != digests.get(name)
                ]
        results.append(CommandResult(cmd.sub, str(cmd.out), seconds, wall, problems))
    return results


def remove(paths) -> None:
    for path in paths:
        Path(path).unlink(missing_ok=True)


def _write_inputs(wl: Workload) -> None:
    for label, config in wl.configs.items():
        save_config(config, wl.config_path(label))
    remove(list(wl.work.glob("*.jsonl")))


def set_up(wl: Workload, clock=None) -> tuple:
    """One set-up repetition: write the inputs, build what the passes
    read, and run the warm-up pass.  Returns the command results and the
    repetition's scaled seconds."""
    clock = clock or hostspeed.Clock()
    _, _, write_s = clock.measure(_write_inputs, wl)
    results = run_commands(wl.setup, clock) + run_commands(wl.warmup, clock)
    return results, write_s + sum(c.seconds for c in results)


def run_pass(wl: Workload, baseline: dict, tracer=None, clock=None) -> PassResult:
    remove(wl.fresh)
    return PassResult(run_commands(wl.commands, clock, tracer, baseline),
                      traced=tracer is not None)
