"""Spans and counters for the traced passes, recorded from outside the
program.

A wrapper replaces a layer's public function at every name under which a
``billzeta`` module looks it up: the module attribute itself (so
``billzeta.database`` calling ``orbits.solve_orbit`` is seen) and every
name another module imported it under (``billzeta.cli.build_database``).
Three ``DeterminantExpansion`` methods get counters.  Wrappers are
installed for a traced pass only and removed after it, so untraced
passes run the program as shipped.

Spans hold (name, layer, start, end, parent) and stay in memory until
the run ends.  Counters are derived only from arguments, return values
and raised exceptions; counts internal to a function (Newton iterations,
curvature sweeps) are not visible from here.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

LAYERS = ("geometry", "symbolic", "orbits", "stability", "database", "thermo",
          "zeta", "trace", "cli")


def _calls(name):
    def hook(c, args, kwargs, result, exc):
        c[name] += 1
    return hook


def _calls_and_failures(calls, failures):
    def hook(c, args, kwargs, result, exc):
        c[calls] += 1
        c[failures] += exc is not None
    return hook


def _cycles(c, args, kwargs, result, exc):
    c["symbolic.cycles"] += len(result) if exc is None else 0


def _saved(c, args, kwargs, result, exc):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if exc is None and path is not None:
        c["database.cache_bytes"] += os.path.getsize(path)


def _states(c, args, kwargs, result, exc):
    c["thermo.states"] += result.n_states if exc is None else 0


def _eigen(c, args, kwargs, result, exc):
    c["thermo.eigen_failed"] += exc is not None


def _determinant(c, args, kwargs, result, exc):
    if exc is None:
        c["zeta.poly_atoms"] += len(result.poly_coeff)
        c["zeta.log_atoms"] += len(result.log_coeff)


def _poles(c, args, kwargs, result, exc):
    c["zeta.poles"] += len(result) if exc is None else 0


# (module, function, metric of its inclusive time or None, counter hook);
# every target gets a span, so its time counts toward its layer's self time
TARGETS = (
    ("geometry", "validate", "geometry.validate_s", None),
    ("symbolic", "enumerate_cycles", "symbolic.enumerate_s", _cycles),
    ("orbits", "solve_orbit", "orbits.solve_s",
     _calls_and_failures("orbits.solve_calls", "orbits.solve_failed")),
    ("stability", "stability_record", "stability.certify_s",
     _calls("stability.certify_calls")),
    ("database", "build_database", "database.build_s", None),
    ("database", "save_database", "database.save_s", _saved),
    ("database", "load_database", "database.load_s", _calls("database.loads")),
    ("thermo", "build_potentials", "thermo.potentials_s", _states),
    ("thermo", "solve_abscissa", "thermo.root_s", _calls("thermo.roots")),
    ("thermo", "pressure", None, _calls("thermo.pressure_calls")),
    ("thermo", "pressure_periodic", None, _calls("thermo.pressure_calls")),
    ("thermo", "leading_eigenvalue", "thermo.eigen_s", _eigen),
    ("thermo", "sign_check_b1", None, None),
    ("thermo", "twisted_unit_gap", None, None),
    ("zeta", "build_determinant", "zeta.determinant_s", _determinant),
    ("zeta", "find_poles", "zeta.find_poles_s", _poles),
    ("zeta", "abscissa_estimate", "zeta.series_s", None),
    ("zeta", "counting_check", "zeta.counting_s", None),
    ("trace", "build_measure", "trace.measure_s", None),
    ("trace", "ikawa_scan", "trace.scan_s", None),
    ("trace", "gaussian_weight", "trace.gaussian_s", None),
    ("trace", "lemma41_search", "trace.shell_s", None),
    ("trace", "experimental_compare", "trace.compare_s", None),
)

# DeterminantExpansion methods counted per call: evaluations, points
# evaluated, and points x atoms summed (a computed operation count)
DET_METHODS = ("value", "derivative", "last_shell_value")

COUNTERS = (
    "symbolic.cycles", "orbits.solve_calls", "orbits.solve_failed",
    "stability.certify_calls", "database.cache_bytes", "database.loads",
    "thermo.states", "thermo.roots", "thermo.pressure_calls", "thermo.eigen_failed",
    "zeta.poly_atoms", "zeta.log_atoms", "zeta.poles", "zeta.det_evals",
    "zeta.det_points", "zeta.det_terms",
)
RATIOS = {
    "thermo.pressure_calls_per_root": ("thermo.pressure_calls", "thermo.roots"),
    "zeta.det_points_per_pole": ("zeta.det_points", "zeta.poles"),
}
TIMES = tuple(metric for _, _, metric, _ in TARGETS if metric) + tuple(
    f"{layer}.self_s" for layer in LAYERS
)
OVERALL = ("tracing.pipeline_s", "tracing.untraced_pipeline_s", "tracing.overhead_s",
           "tracing.unaccounted_s", "tracing.spans")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "database.cache_bytes":
        return "bytes"
    return "count"


def per_layer_metrics() -> list:
    """Every per-layer metric a traced run reports, in print order."""
    return list(TIMES) + list(COUNTERS) + list(RATIOS) + list(OVERALL)


@dataclass
class Span:
    name: str
    layer: str
    metric: str | None
    start: float
    parent: int | None
    end: float = float("nan")


class Tracer:
    """In-memory spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def _open(self, name, layer, metric):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, metric, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextlib.contextmanager
    def command(self, sub):
        """Root span of one CLI command; its self time is cli.self_s."""
        self._open(f"cli.{sub}", "cli", None)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, layer, metric, hook):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name, layer, metric)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(self.counters, args, kwargs, None, exc)
                raise
            finally:
                self._close()
            if hook is not None:
                hook(self.counters, args, kwargs, result, None)
            return result

        return wrapper

    def _wrap_det(self, method):
        counters = self.counters

        @functools.wraps(method)
        def wrapper(exp, s):
            points = int(np.size(s))
            atoms = int(np.count_nonzero(exp.poly_shell == exp.N)
                        if method.__name__ == "last_shell_value" else len(exp.poly_coeff))
            counters["zeta.det_evals"] += 1
            counters["zeta.det_points"] += points
            counters["zeta.det_terms"] += points * atoms
            return method(exp, s)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target for the duration of one traced pass."""
        from billzeta import zeta

        modules = [m for name, m in sys.modules.items()
                   if name == "billzeta" or name.startswith("billzeta.")]
        undo = []
        try:
            for mod_name, fn_name, metric, hook in TARGETS:
                original = getattr(sys.modules[f"billzeta.{mod_name}"], fn_name)
                wrapper = self._wrap(original, mod_name, metric, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for name in DET_METHODS:
                original = getattr(zeta.DeterminantExpansion, name)
                undo.append((zeta.DeterminantExpansion, name, original))
                setattr(zeta.DeterminantExpansion, name, self._wrap_det(original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def pass_metrics(self, first_span: int, counters_before: Counter,
                     pipeline_s: float) -> dict:
        """Per-layer metrics of the spans and counts recorded since
        ``first_span`` and ``counters_before``, for a pass that took
        ``pipeline_s``; what the layer self times miss is unaccounted."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        inclusive = Counter()
        self_time = Counter({layer: 0.0 for layer in LAYERS})
        for span in spans:
            duration = span.end - span.start
            if span.parent is not None:
                child[span.parent - first_span] += duration
            if span.metric is not None:
                inclusive[span.metric] += duration
        for i, span in enumerate(spans):
            self_time[span.layer] += span.end - span.start - child[i]
        counters = self.counters - counters_before
        metrics = {m: inclusive[m] for m in TIMES if not m.endswith(".self_s")}
        metrics.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        metrics.update({name: counters[name] for name in COUNTERS})
        for name, (num, den) in RATIOS.items():
            metrics[name] = counters[num] / counters[den] if counters[den] else 0.0
        metrics["tracing.spans"] = len(spans)
        metrics["tracing.unaccounted_s"] = pipeline_s - sum(self_time.values())
        return metrics

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                     "parent": s.parent, "start": s.start - t0,
                                     "end": s.end - t0}) + "\n")
