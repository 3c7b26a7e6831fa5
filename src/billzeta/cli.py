"""Command line driver.

With ``--out DIR`` a subcommand writes its tables into DIR and then
``<subcommand>_manifest.json`` beside them: the configuration hash,
resolved parameters, tool version, timestamp, and the names of exactly
the files it wrote.  CSV output is UTF-8 with LF line endings and
shortest round-trip float formatting, so repeated runs are
byte-identical.

``orbits`` without ``--nmax`` keeps an existing cache's n_max and builds
a fresh one to n_max 10; every other subcommand reads the whole cache.
``poles --grid`` needs ``--rect``: the default search sets its own grids.

Exit codes: 0 success, 1 usage or malformed input, 2 domain violation
(eclipse, stale cache, data horizon), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, thermo, trace, zeta
from .database import (
    OrbitDatabase,
    build_database,
    extend_database,
    load_database,
    restrict_database,
    save_database,
)
from .errors import BilliardError, IncompleteDataError, MalformedInputError, ShortSeriesError
from .geometry import config_digest, load_config, validate


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise MalformedInputError(message)


def _int_at_least(low: int):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


class _Rect(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        re0, re1, im0, im1 = values
        if not (re0 < re1 and im0 < im1):
            raise argparse.ArgumentError(self, f"needs RE0 < RE1 and IM0 < IM1, got {values}")
        setattr(namespace, self.dest, values)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="disk configuration JSON")
    p.add_argument("--cache", metavar="PATH", help="orbit cache file")
    p.add_argument("--nmax", type=_int_at_least(2), metavar="INT", help="maximum cycle length")
    p.add_argument("--out", metavar="DIR", help="directory for CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="billzeta", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"billzeta {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check disjointness and the no-eclipse condition")
    _common_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("orbits", help="solve periodic orbits, manage the cache")
    _common_flags(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("abscissas", help="pressure abscissas h, a1, b1 by two methods")
    _common_flags(p)
    p.add_argument(
        "--k", type=_int_at_least(1), metavar="INT", help="cylinder memory (transfer method)"
    )
    p.add_argument(
        "--n", type=_int_at_least(2), metavar="INT", help="period for the periodic-point method"
    )
    p.set_defaults(func=cmd_abscissas)

    p = sub.add_parser("zeta", help="orbit series growth estimates and shell scans")
    _common_flags(p)
    p.add_argument(
        "--window", type=_int_at_least(1), default=4, metavar="INT", help="regression window"
    )
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("poles", help="determinant zeros in a rectangle")
    _common_flags(p)
    p.add_argument(
        "--det-n", type=_int_at_least(2), metavar="INT", help="determinant truncation order"
    )
    p.add_argument(
        "--det-kmax", type=_int_at_least(0), default=5, metavar="INT", help="repetition cutoff"
    )
    p.add_argument(
        "--rect",
        type=_finite_float,
        nargs=4,
        action=_Rect,
        metavar=("RE0", "RE1", "IM0", "IM1"),
        help="search rectangle (default: leading strip plus a real-axis box)",
    )
    p.add_argument(
        "--grid", type=_int_at_least(1), nargs=2, metavar=("NX", "NY"), help="cell grid"
    )
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("counting", help="orbit counting against e^{hx}/(hx)")
    _common_flags(p)
    p.add_argument("--k", type=_int_at_least(1), metavar="INT", help="cylinder memory for h")
    p.set_defaults(func=cmd_counting)

    p = sub.add_parser("trace", help="length-spectrum window scans and Gaussian sums")
    _common_flags(p)
    p.add_argument("--beta", type=_finite_float, default=1.0, help="window sharpening rate")
    p.add_argument("--alpha0", type=_finite_float, default=0.25, help="decay threshold exponent")
    p.add_argument("--sigma", type=_finite_float, default=0.1, help="Gaussian width parameter")
    p.add_argument("--eps", type=_finite_float, default=0.1, help="shell-search rate slack")
    p.add_argument(
        "--experimental-trace-compare",
        action="store_true",
        help="also emit the heuristic resonance-side comparison table",
    )
    p.set_defaults(func=cmd_trace)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_orbits_csv(path: Path, db: OrbitDatabase) -> None:
    """``orbits.csv`` from the columns; the bytes are those of
    :func:`_write_csv`, whose ``_fmt`` is ``str`` of an int and ``repr``
    of a float.  Every symbol of every word is joined by "-" in one
    string, which is cut at the character offsets of the row bounds."""
    labels = np.array([str(k) for k in range(int(db.word.max(initial=0)) + 1)])
    joined = "-".join(labels[db.word].tolist())
    # symbol i starts at the sum of (width + 1) over the symbols before it
    widths = np.char.str_len(labels)[db.word] + 1
    starts = np.concatenate(([0], np.cumsum(widths)))[db.bounds].tolist()
    words = [joined[a : b - 1] for a, b in zip(starts, starts[1:])]
    lines = map(
        "{},{},{!r},{!r},{!r},{!r}".format,
        words,
        db.n.tolist(),
        db.T.tolist(),
        db.lam.tolist(),
        db.residual.tolist(),
        db.shadow_margin.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(["word,length,period,lam,residual,shadow_margin", *lines]) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_out_dir(args) -> None:
    """Create the --out directory, if given; each subcommand calls this before any work."""
    if args.out is None:
        return
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MalformedInputError(f"cannot create output directory {args.out}: {exc}") from exc


def _write_outputs(args, config_hash: str, params: dict, tables: dict) -> None:
    """Write every table into the --out directory, then the run manifest
    that lists exactly those files; nothing without --out.

    ``tables`` maps a file name to ``(header, rows)`` of a CSV table, or
    to a function that writes the file at the path it is given.
    """
    if args.out is None:
        return
    out = Path(args.out)
    for name, table in tables.items():
        if callable(table):
            table(out / name)
        else:
            _write_csv(out / name, *table)
    _write_json(out / f"{args.subcommand}_manifest.json", {
        "format": "billzeta-run/1",
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "config_hash": config_hash,
        "parameters": params,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": sorted(tables),
    })


# --nmax of a build from --config alone; with a cache, it is the cache's n_max
FRESH_NMAX = 10


def _load_db(args) -> OrbitDatabase:
    """The orbit database: the cache (cross-checked against --config when
    both are given) or an in-memory build from --config, honoring --nmax.
    The arguments and the output directory are checked before any cycle
    is loaded or solved.
    """
    config = load_config(args.config) if args.config else None
    cached = bool(args.cache) and Path(args.cache).exists()
    if not cached and config is None:
        raise MalformedInputError(
            "no orbit data: provide --cache with an existing cache file, or "
            "--config to solve the orbits in memory"
        )
    _make_out_dir(args)
    if not cached:
        return build_database(config, FRESH_NMAX if args.nmax is None else args.nmax)
    db = load_database(args.cache, config)
    if args.nmax is None:
        return db
    if args.nmax > db.n_max:
        raise IncompleteDataError(
            f"cache {args.cache} stops at n_max={db.n_max}, requested "
            f"{args.nmax}; re-run `billzeta orbits --cache {args.cache} "
            f"--nmax {args.nmax}` to extend it"
        )
    return restrict_database(db, args.nmax)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> None:
    if not args.config:
        raise MalformedInputError("validate requires --config")
    _make_out_dir(args)
    config = load_config(args.config)
    digest = config_digest(config)
    report = validate(config)
    print(f"configuration: {config.r} disks, hash {digest[:12]}")
    print(report.summary())
    _write_outputs(args, digest, {"config": args.config},
                   {"validate_report.json": lambda path: _write_json(path, asdict(report))})
    if not report.ok:
        raise BilliardError(f"configuration rejected: {'; '.join(report.reasons)}")


def cmd_orbits(args) -> None:
    cache = Path(args.cache) if args.cache else None
    cached = cache is not None and cache.exists()
    if not args.config and not cached:
        raise MalformedInputError("orbits requires --config (or an existing --cache)")
    _make_out_dir(args)
    config = load_config(args.config) if args.config else None
    if cached:
        db = load_database(cache, config)
        n_max = db.n_max if args.nmax is None else args.nmax
        if db.n_max >= n_max:
            print(f"cache hit: {cache} holds n_max={db.n_max} ({len(db)} cycles); "
                  "no re-solve needed")
            db = restrict_database(db, n_max)
        else:
            print(f"cache stops at n_max={db.n_max}; solving lengths {db.n_max + 1}..{n_max}")
            db = extend_database(db, n_max)
            save_database(db, cache)
            print(f"wrote {cache}")
    else:
        db = build_database(config, FRESH_NMAX if args.nmax is None else args.nmax)
        if cache is not None:
            save_database(db, cache)
            print(f"wrote {cache}")

    lengths, counts = np.unique(db.n, return_counts=True)
    per_length = ", ".join(f"{n}:{c}" for n, c in zip(lengths.tolist(), counts.tolist()))
    print(f"orbits: {len(db)} primitive cycles (length:count {per_length})")
    print(f"residuals: min {db.residual.min():.3e}, max {db.residual.max():.3e}")
    _write_outputs(args, db.config_hash, {"nmax": db.n_max, "cache": args.cache},
                   {"orbits.csv": lambda path: _write_orbits_csv(path, db)})


def cmd_abscissas(args) -> None:
    db = _load_db(args)
    k = args.k if args.k is not None else min(6, db.n_max - 1)
    n = args.n if args.n is not None else min(10, db.n_max)
    pot = thermo.build_potentials(db, k)
    rows = []
    values = {}
    for name, beta in (("h", 0.0), ("a1", 0.5), ("b1", 1.0)):
        v_t = thermo.solve_abscissa(db, beta, "transfer", k=k, pot=pot)
        v_p = thermo.solve_abscissa(db, beta, "periodic", n=n)
        values[name] = (v_t, v_p)
        rows.append((name, "transfer", k, v_t))
        rows.append((name, "periodic", n, v_p))
    sign, pg = thermo.sign_check_b1(pot)
    gap = thermo.twisted_unit_gap(pot, values["b1"][0])
    for name in ("h", "a1", "b1"):
        v_t, v_p = values[name]
        print(f"{name}: transfer(k={k}) {v_t:.10f}  periodic(n={n}) {v_p:.10f}  "
              f"gap {abs(v_t - v_p):.2e}")
    order_ok = values["b1"][0] < values["a1"][0] < values["h"][0]
    print(f"ordering b1 < a1 < h: {'ok' if order_ok else 'VIOLATED'}")
    print(f"sign of P(g) at s=0: {sign:+d} (value {pg:.3e})")
    print(f"twisted spectrum distance from +1 at s=b1: {gap:.6f}")
    _write_outputs(args, db.config_hash, {"k": k, "n": n, "nmax": db.n_max},
                   {"abscissas.csv": (["quantity", "method", "order", "value"], rows)})


def cmd_zeta(args) -> None:
    db = _load_db(args)
    est_rows = []
    shell_rows = []
    short = []
    for weight, parity in (("none", None), ("half", None), ("full", None),
                           ("unstable", None), ("half", "even")):
        try:
            est, err, shells = zeta.abscissa_estimate(
                db, weight=weight, parity=parity, window=args.window
            )
        except ShortSeriesError as exc:
            short.append(exc)
            continue
        label = weight if parity is None else f"{weight}/{parity}"
        est_rows.append((label, est, err))
        for m, total, mean_tau in shells:
            shell_rows.append((label, m, total, mean_tau))
        print(f"growth of {label:<12s} series: {est:+.6f} (spread {err:.1e})")
    if short:
        # one message for every short series, with a cutoff that fits them all
        raise ShortSeriesError([series for exc in short for series in exc.short],
                               args.window, db.n_max, max(exc.nmax for exc in short))
    _write_outputs(args, db.config_hash, {"window": args.window, "nmax": db.n_max}, {
        "zeta_estimates.csv": (["series", "estimate", "spread"], est_rows),
        "zeta_shells.csv": (["series", "shell", "shell_sum", "mean_length"], shell_rows),
    })


def _conjugate_closed(poles, rects) -> list:
    """The zeros with near-real ones put on the axis, plus the mirror image
    of each zero whose conjugate lies outside every searched rectangle
    (the zeros inside were found by the search), sorted by (Im s, Re s)."""

    def searched(s):
        return any(re0 <= s.real <= re1 and im0 <= s.imag <= im1 for re0, re1, im0, im1 in rects)

    full = [replace(p, s=p.s.real + 0.0j) if abs(p.s.imag) < 1e-12 else p for p in poles]
    mirrored = [
        replace(p, s=p.s.conjugate())
        for p in full
        if p.s.imag and not searched(p.s.conjugate())
    ]
    return sorted(full + mirrored, key=lambda p: (p.s.imag, p.s.real))


def _pole_search(exp, searches) -> list:
    """The conjugate-closed zeros of ``find_poles`` over each (rect, grid)."""
    poles = []
    for rect, grid in searches:
        poles += zeta.find_poles(exp, rect, grid=grid)
    return _conjugate_closed(poles, [rect for rect, _ in searches])


def _default_pole_search(exp):
    # stay right of the trust floor; deeper searches need a larger N
    re0 = max(-0.45, exp.trust_floor + 0.01)
    searches = []
    if re0 < -0.06:
        searches.append(((max(re0, -0.20), -0.05, -0.10, 0.10), (3, 3)))
    if re0 < -0.03:
        searches.append(((re0, -0.02, 0.20, 1.40), (5, 6)))
    return _pole_search(exp, searches)


def cmd_poles(args) -> None:
    if args.grid is not None and args.rect is None:
        raise MalformedInputError("--grid needs --rect: the default search sets its own grids")
    db = _load_db(args)
    det_n = args.det_n if args.det_n is not None else min(12, db.n_max)
    exp = zeta.build_determinant(db, det_n, k_max=args.det_kmax)
    print(f"determinant truncation N={det_n}, repetitions k<={args.det_kmax}, "
          f"trust floor Re s > {exp.trust_floor:.3f}")
    _, classes = zeta.class_periods(db, det_n)
    print(f"{len(exp.cycles[0])} cycles in {classes} period classes (label symmetry "
          f"order {len(db.config.label_symmetries)}, with time reversal): "
          f"{len(exp.poly_coeff)} atoms")
    grid = None
    if args.rect is not None:
        grid = tuple(args.grid) if args.grid else (8, 8)
        poles = _pole_search(exp, [(tuple(args.rect), grid)])
    else:
        poles = _default_pole_search(exp)
    rows = [
        (p.s.real, p.s.imag, p.multiplicity, p.residual, p.trust_margin) for p in poles
    ]
    print(f"found {len(poles)} zeros (conjugate-closed):")
    for p in poles:
        print(f"  {p.s.real:+.10f} {p.s.imag:+.10f}i  m={p.multiplicity}  "
              f"|D|={p.residual:.1e}  margin {p.trust_margin:.1f}")
    params = {
        "det_n": det_n,
        "det_kmax": args.det_kmax,
        "rect": list(args.rect) if args.rect else None,
        "grid": list(grid) if grid else None,
        "nmax": db.n_max,
    }
    _write_outputs(args, db.config_hash, params,
                   {"poles.csv": (["re", "im", "multiplicity", "residual", "trust_margin"], rows)})


def cmd_counting(args) -> None:
    db = _load_db(args)
    k = args.k if args.k is not None else min(6, db.n_max - 1)
    h = thermo.solve_abscissa(db, 0.0, "transfer", k=k)
    rows = zeta.counting_check(db, h)
    print(f"h = {h:.10f} (transfer, k={k})")
    x, count, model, ratio = rows[-1]
    print(f"at x={x:.2f}: N(x)={count}, e^(hx)/(hx)={model:.1f}, ratio {ratio:.3f}")
    _write_outputs(args, db.config_hash, {"k": k, "h": h, "nmax": db.n_max},
                   {"counting.csv": (["x", "count", "model", "ratio"], rows)})


def cmd_trace(args) -> None:
    db = _load_db(args)
    bump = trace.BumpFunction()
    measure = trace.build_measure(db, "dirichlet")
    gamma0 = (1, 2)
    t0 = float(db.T[db.row(gamma0)])
    j_max = max(2, min(6, int((measure.cutoff - 1.0) // t0)))
    scan = trace.ikawa_scan(db, args.beta, args.alpha0, j_max, gamma0=gamma0, bump=bump)
    n_pass = sum(1 for r in scan.rows if r[4])
    print(f"window scan at multiples of T{''.join(str(s) for s in gamma0)}="
          f"{scan.gamma0_T:g}: {n_pass}/{len(scan.rows)} windows above "
          f"e^(-{args.alpha0} ell); fit c={scan.fit_c:.4f}, c0={scan.fit_c0:.4f}")

    t_grid = [float(t) for t in np.linspace(8.0, 15.0, 10)]
    if 12.8 not in t_grid:
        t_grid.append(12.8)
    t_grid.sort()
    gauss_rows = []
    for t in t_grid:
        g = trace.gaussian_weight(db, t, args.sigma, bump=bump)
        gauss_rows.append(
            (t, args.sigma, g.direct, g.quadrature, g.quad_error, g.lower_bound,
             g.bound_holds)
        )
    worst = max(abs(r[2] - r[3]) for r in gauss_rows)
    print(f"gaussian dual forms agree to {worst:.2e} over {len(gauss_rows)} points; "
          f"lower bound holds at {sum(1 for r in gauss_rows if r[6])}/{len(gauss_rows)}")

    k = min(6, db.n_max - 1)
    b1 = thermo.solve_abscissa(db, 1.0, "transfer", k=k)
    t_max = float(int(measure.cutoff) - 1)
    report = trace.lemma41_search(db, b1, args.eps, t_max)
    shell_rows = list(
        zip(report.centers, report.sums, report.counts, report.thresholds,
            report.qualifying)
    )
    print(f"shell search (b1={b1:.6f}, eps={args.eps}): {report.summary()}")
    tables = {
        "trace_windows.csv": (["ell", "m", "pairing", "threshold", "passes", "atoms"], scan.rows),
        "trace_gaussian.csv": (
            ["t", "sigma", "direct", "quadrature", "quad_error", "lower_bound", "bound_holds"],
            gauss_rows,
        ),
        "trace_shells.csv": (["center", "shell_sum", "atoms", "threshold", "qualifying"],
                             shell_rows),
    }

    if args.experimental_trace_compare:
        det_n = min(12, db.n_max)
        exp = zeta.build_determinant(db, det_n, k_max=5)
        # resonance_side counts each off-axis zero with its conjugate
        poles = [p for p in _default_pole_search(exp) if p.s.imag >= 0]
        ells = [r[0] for r in scan.rows]
        compare_rows = trace.experimental_compare(db, poles, args.beta, ells, bump=bump)
        print("experimental resonance-side comparison (heuristic, no claim):")
        for ell, m, orbit, res, ratio in compare_rows:
            print(f"  ell={ell:6.2f}  orbit {orbit:+.3e}  resonance {res:+.3e}  "
                  f"ratio {ratio:+.3f}")
        tables["trace_compare.csv"] = (["ell", "m", "orbit_side", "resonance_side", "ratio"],
                                       compare_rows)

    params = {
        "beta": args.beta,
        "alpha0": args.alpha0,
        "sigma": args.sigma,
        "eps": args.eps,
        "nmax": db.n_max,
        "experimental_trace_compare": bool(args.experimental_trace_compare),
    }
    _write_outputs(args, db.config_hash, params, tables)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except BilliardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
