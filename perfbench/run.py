"""Pipeline benchmark: runs the billzeta command line over one workload,
checks every output and prints every metric by name and unit.

    python3 perfbench/run.py --workload deepen-n14 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload resonance-n13 --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --workload random-disks --smoke

Run it from anywhere; it imports the package from the ``src`` directory
next to it and writes only under ``.bench_work`` at the repository root.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  End-to-end times are wall seconds scaled to the
reference host speed (see ``hostspeed.py``); per-layer times are raw wall
seconds, so that they add up to the traced pass.  ``--smoke`` runs the
same sequences at tiny sizes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before the imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy is imported: the measured work then
# runs on one vCPU, as the probe that scales it does (hostspeed.py), and
# never waits on a second thread that a neighbour on the host has slowed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# a run stops starting passes once it could no longer finish in time
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("deepen-n14", "resonance-n13", "random-disks"))
    p.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measure passes for at most this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, runs in seconds")
    return p.parse_args(argv)


def bootstrap() -> None:
    """Import billzeta from this checkout's ``src`` or stop with exit 1."""
    src = ROOT / "src"
    if not (src / "billzeta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no billzeta sources at {src}")
    sys.path.insert(0, str(src))
    import billzeta

    if Path(billzeta.__file__).resolve().parent != src / "billzeta":
        sys.exit(f"perfbench: imported billzeta from {billzeta.__file__}, not {src}")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args, wl) -> dict:
    import numpy
    import scipy
    from billzeta import _accel
    from billzeta.geometry import config_digest

    return {
        "kernel_path": "numba" if _accel.NUMBA_ENABLED else "numpy",
        "NUMBA_ENABLED": _accel.NUMBA_ENABLED,
        "BILLZETA_NUMBA": os.environ.get("BILLZETA_NUMBA"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "config_digests": {k: config_digest(c) for k, c in wl.configs.items()},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s, untraced, pipeline) -> dict:
    """The end-to-end metrics (value, unit) from the untraced passes,
    in seconds scaled to the reference host speed."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (median([p.pipeline_s for p in untraced]), "s"),
    }
    for stage in pipeline.STAGES:
        metrics[stage] = (median([p.stage_s(stage) for p in untraced]), "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return metrics


def per_layer(traced, untraced, tracing) -> dict:
    """Median over the traced passes of each per-layer metric."""
    rows = [p.layers for p in traced]
    metrics = {name: (median([r[name] for r in rows]), tracing.unit(name))
               for name in tracing.per_layer_metrics() if name in rows[0]}
    traced_s = median([p.wall_s for p in traced])
    untraced_s = median([p.wall_s for p in untraced])
    metrics["tracing.pipeline_s"] = (traced_s, "s")
    metrics["tracing.untraced_pipeline_s"] = (untraced_s, "s")
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    return {name: metrics[name] for name in tracing.per_layer_metrics()}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import hostspeed
    import pipeline
    import tracing

    import_s = time.perf_counter() - T0
    clock = hostspeed.Clock()  # its first probe scales the import time
    import_scaled = import_s * hostspeed.REFERENCE_PROBE_S / clock.last_probe
    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = pipeline.WORKLOADS[args.workload](args.seed, args.smoke, work, reference)

    setup_times, setup_results = [], []
    for _ in range(SETUP_REPS):
        results, seconds = pipeline.set_up(wl, clock)
        setup_results += results
        setup_times.append(seconds)
    setup_s = import_scaled + median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    baseline, passes = {}, []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            first, before = len(tracer.spans), tracer.counters.copy()
            with tracer.installed():
                result = pipeline.run_pass(wl, baseline, tracer, clock)
            result.layers = tracer.pass_metrics(first, before, result.wall_s)
        else:
            result = pipeline.run_pass(wl, baseline, clock=clock)
        passes.append(result)
        now = time.perf_counter()
        need_traced = tracer is not None and not any(p.traced for p in passes)
        # start another pass only if one of average length still ends in time
        elapsed = now - t_start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds and not need_traced:
            break
        if now - T0 + max(p.wall_s for p in passes) > DEADLINE_S:
            break

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(p.failed for p in passes)
    setup_failed = [c for c in setup_results if not c.ok]
    e2e = end_to_end(setup_s, untraced, pipeline)
    e2e["fail_frac"] = (failed / attempted, "fraction")
    metrics = per_layer(traced, untraced, tracing) if args.trace else e2e

    facts = machine_facts(args, wl)
    print(f"workload {args.workload}, seed {args.seed}, {facts['kernel_path']} path, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"set-up median of {SETUP_REPS}")
    for c in setup_failed:
        print(f"SET-UP FAILED {c.sub} ({c.out}): {'; '.join(c.problems)}")
    for i, p in enumerate(passes):
        for c in p.commands:
            if not c.ok:
                print(f"FAILED pass {i} {c.sub} ({c.out}): {'; '.join(c.problems)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12s} {value:12.6f} {unit}")
    wall = median([p.wall_s for p in untraced])
    print(f"  unscaled: pipeline {wall:.6f} s wall, probe median "
          f"{median(clock.probes):.6f} s (reference {hostspeed.REFERENCE_PROBE_S} s)")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34s} {value:14.6f} {unit}")
        tracer.dump(work / "spans.jsonl")
    print("facts " + json.dumps(facts, sort_keys=True))

    record = {
        "facts": facts,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "import_scaled_s": import_scaled,
        "probes_s": clock.probes,
        "passes": [{"traced": p.traced, "pipeline_s": p.pipeline_s, "wall_s": p.wall_s,
                    "layers": p.layers,
                    "commands": [vars(c) for c in p.commands]} for p in passes],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": failed == 0 and not setup_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k != "fail_frac"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
