"""Command line driver.

Every subcommand that writes files drops a run manifest next to them
listing the configuration hash, resolved parameters, tool version,
timestamp, and every output file.  CSV output is UTF-8 with LF line
endings and shortest round-trip float formatting, so repeated runs are
byte-identical.

Exit codes: 0 success, 1 usage or malformed input, 2 domain violation
(eclipse, stale cache, data horizon), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, thermo, trace, zeta
from .database import (
    PER_CYCLE,
    SECTIONS,
    OrbitDatabase,
    build_database,
    extend_database,
    load_database,
    save_database,
)
from .errors import BilliardError, IncompleteDataError, MalformedInputError
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


class _Rect(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        re0, re1, im0, im1 = values
        if not (np.isfinite(values).all() and re0 < re1 and im0 < im1):
            raise argparse.ArgumentError(
                self, f"needs finite RE0 < RE1 and IM0 < IM1, got {values}"
            )
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
    p.add_argument("--k", type=int, metavar="INT", help="cylinder memory (transfer method)")
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
        type=float,
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
    p.add_argument("--k", type=int, metavar="INT", help="cylinder memory for h")
    p.set_defaults(func=cmd_counting)

    p = sub.add_parser("trace", help="length-spectrum window scans and Gaussian sums")
    _common_flags(p)
    p.add_argument("--beta", type=float, default=1.0, help="window sharpening rate")
    p.add_argument("--alpha0", type=float, default=0.25, help="decay threshold exponent")
    p.add_argument("--sigma", type=float, default=0.1, help="Gaussian width parameter")
    p.add_argument("--eps", type=float, default=0.1, help="shell-search rate slack")
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
    """``orbits.csv`` written row by row from the columns; the bytes are
    those of :func:`_write_csv`, whose ``_fmt`` is ``str`` of an int and
    ``repr`` of a float."""
    word, bounds = db.word.tolist(), db.bounds.tolist()
    rows = zip(
        bounds,
        bounds[1:],
        db.n.tolist(),
        db.T.tolist(),
        db.lam.tolist(),
        db.residual.tolist(),
        db.shadow_margin.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,length,period,lam,residual,shadow_margin\n")
        for a, b, n, T, lam, residual, margin in rows:
            symbols = "-".join(map(str, word[a:b]))
            fh.write(f"{symbols},{n},{T!r},{lam!r},{residual!r},{margin!r}\n")


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MalformedInputError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_manifest(out: Path, args, config_hash: str, params: dict, outputs) -> None:
    manifest = {
        "format": "billzeta-run/1",
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "config_hash": config_hash,
        "parameters": params,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": sorted(str(name) for name in outputs),
    }
    path = out / f"{args.subcommand}_manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _restrict(db: OrbitDatabase, n_max: int) -> OrbitDatabase:
    if n_max == db.n_max:
        return db
    # rows are sorted by length, so the kept ones are a prefix
    keep = int(np.searchsorted(db.n, n_max, side="right"))
    flat = int(db.bounds[keep])
    columns = {
        name: getattr(db, name)[: keep if name in PER_CYCLE else flat] for name, _ in SECTIONS
    }
    return OrbitDatabase(db.config, n_max, columns)


def _load_db(args, default_nmax: int = 10):
    """The orbit database and the --out directory (None without --out).

    The database is the cache (cross-checked against --config when both
    are given) or an in-memory build from --config, honoring --nmax.
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
    out = _out_dir(args)
    if not cached:
        return build_database(config, default_nmax if args.nmax is None else args.nmax), out
    db = load_database(args.cache, config)
    if args.nmax is not None:
        if args.nmax > db.n_max:
            raise IncompleteDataError(
                f"cache {args.cache} stops at n_max={db.n_max}, requested "
                f"{args.nmax}; re-run `billzeta orbits --cache {args.cache} "
                f"--nmax {args.nmax}` to extend it"
            )
        db = _restrict(db, args.nmax)
    return db, out


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> None:
    if not args.config:
        raise MalformedInputError("validate requires --config")
    out = _out_dir(args)
    config = load_config(args.config)
    report = validate(config)
    print(f"configuration: {config.r} disks, hash {config_digest(config)[:12]}")
    print(report.summary())
    if out is not None:
        path = out / "validate_report.json"
        payload = {
            "ok": report.ok,
            "n_disks": report.n_disks,
            "min_pair_gap": report.min_pair_gap,
            "min_triple_margin": report.min_triple_margin,
            "bad_pairs": [list(p) for p in report.bad_pairs],
            "bad_triples": [list(t) for t in report.bad_triples],
            "reasons": list(report.reasons),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(
            out, args, config_digest(config), {"config": args.config}, [path.name]
        )
    if not report.ok:
        raise BilliardError(f"configuration rejected: {'; '.join(report.reasons)}")


def cmd_orbits(args) -> None:
    cache = Path(args.cache) if args.cache else None
    if not args.config and (cache is None or not cache.exists()):
        raise MalformedInputError("orbits requires --config (or an existing --cache)")
    out = _out_dir(args)
    n_max = 10 if args.nmax is None else args.nmax
    config = load_config(args.config) if args.config else None
    if cache is not None and cache.exists():
        cached = load_database(cache, config)
        if cached.n_max >= n_max:
            print(
                f"cache hit: {cache} holds n_max={cached.n_max} "
                f"({len(cached)} cycles); no re-solve needed"
            )
            db = _restrict(cached, n_max)
        else:
            print(
                f"cache stops at n_max={cached.n_max}; solving lengths "
                f"{cached.n_max + 1}..{n_max}"
            )
            db = extend_database(cached, n_max)
            save_database(db, cache)
            print(f"wrote {cache}")
    else:
        db = build_database(config, n_max)
        if cache is not None:
            save_database(db, cache)
            print(f"wrote {cache}")

    lengths, counts = np.unique(db.n, return_counts=True)
    per_length = ", ".join(f"{n}:{c}" for n, c in zip(lengths.tolist(), counts.tolist()))
    print(f"orbits: {len(db)} primitive cycles (length:count {per_length})")
    print(f"residuals: min {db.residual.min():.3e}, max {db.residual.max():.3e}")

    if out is not None:
        path = out / "orbits.csv"
        _write_orbits_csv(path, db)
        _write_manifest(
            out,
            args,
            db.config_hash,
            {"nmax": n_max, "cache": args.cache},
            [path.name],
        )


def cmd_abscissas(args) -> None:
    db, out = _load_db(args)
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
    if out is not None:
        path = out / "abscissas.csv"
        _write_csv(path, ["quantity", "method", "order", "value"], rows)
        _write_manifest(
            out, args, db.config_hash, {"k": k, "n": n, "nmax": db.n_max}, [path.name]
        )


def cmd_zeta(args) -> None:
    db, out = _load_db(args)
    est_rows = []
    shell_rows = []
    for weight, parity in (
        ("none", None),
        ("half", None),
        ("full", None),
        ("unstable", None),
        ("half", "even"),
    ):
        est, err, shells = zeta.abscissa_estimate(
            db, weight=weight, parity=parity, window=args.window
        )
        label = weight if parity is None else f"{weight}/{parity}"
        est_rows.append((label, est, err))
        for m, total, mean_tau in shells:
            shell_rows.append((label, m, total, mean_tau))
        print(f"growth of {label:<12s} series: {est:+.6f} (spread {err:.1e})")
    if out is not None:
        p1 = out / "zeta_estimates.csv"
        _write_csv(p1, ["series", "estimate", "spread"], est_rows)
        p2 = out / "zeta_shells.csv"
        _write_csv(p2, ["series", "shell", "shell_sum", "mean_length"], shell_rows)
        _write_manifest(
            out,
            args,
            db.config_hash,
            {"window": args.window, "nmax": db.n_max},
            [p1.name, p2.name],
        )


def _conjugate_closed(poles) -> list:
    """The zeros with near-real ones put on the axis, plus the mirror image
    of each zero above it, sorted by (Im s, Re s)."""
    full = [replace(p, s=p.s.real + 0.0j) if abs(p.s.imag) < 1e-13 else p for p in poles]
    mirrored = [replace(p, s=p.s.conjugate()) for p in full if p.s.imag > 1e-12]
    return sorted(full + mirrored, key=lambda p: (p.s.imag, p.s.real))


def _default_pole_search(exp):
    # stay right of the trust floor; deeper searches need a larger N
    re0 = max(-0.45, exp.trust_floor + 0.01)
    poles = []
    if re0 < -0.06:
        poles += zeta.find_poles(exp, (max(re0, -0.20), -0.05, -0.10, 0.10), grid=(3, 3))
    if re0 < -0.03:
        poles += zeta.find_poles(exp, (re0, -0.02, 0.20, 1.40), grid=(5, 6))
    return poles


def cmd_poles(args) -> None:
    db, out = _load_db(args)
    det_n = args.det_n if args.det_n is not None else min(12, db.n_max)
    exp = zeta.build_determinant(db, det_n, k_max=args.det_kmax)
    print(f"determinant truncation N={det_n}, repetitions k<={args.det_kmax}, "
          f"trust floor Re s > {exp.trust_floor:.3f}")
    if args.rect is not None:
        grid = tuple(args.grid) if args.grid else (8, 8)
        poles = zeta.find_poles(exp, tuple(args.rect), grid=grid)
    else:
        poles = _default_pole_search(exp)
    poles = _conjugate_closed(poles)
    rows = [
        (p.s.real, p.s.imag, p.multiplicity, p.residual, p.trust_margin) for p in poles
    ]
    print(f"found {len(poles)} zeros (conjugate-closed):")
    for p in poles:
        print(f"  {p.s.real:+.10f} {p.s.imag:+.10f}i  m={p.multiplicity}  "
              f"|D|={p.residual:.1e}  margin {p.trust_margin:.1f}")
    if out is not None:
        path = out / "poles.csv"
        _write_csv(path, ["re", "im", "multiplicity", "residual", "trust_margin"], rows)
        _write_manifest(
            out,
            args,
            db.config_hash,
            {
                "det_n": det_n,
                "det_kmax": args.det_kmax,
                "rect": list(args.rect) if args.rect else None,
                "nmax": db.n_max,
            },
            [path.name],
        )


def cmd_counting(args) -> None:
    db, out = _load_db(args)
    k = args.k if args.k is not None else min(6, db.n_max - 1)
    h = thermo.solve_abscissa(db, 0.0, "transfer", k=k)
    rows = zeta.counting_check(db, h)
    print(f"h = {h:.10f} (transfer, k={k})")
    x, count, model, ratio = rows[-1]
    print(f"at x={x:.2f}: N(x)={count}, e^(hx)/(hx)={model:.1f}, ratio {ratio:.3f}")
    if out is not None:
        path = out / "counting.csv"
        _write_csv(path, ["x", "count", "model", "ratio"], rows)
        _write_manifest(
            out, args, db.config_hash, {"k": k, "h": h, "nmax": db.n_max}, [path.name]
        )


def cmd_trace(args) -> None:
    db, out = _load_db(args)
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

    compare_rows = None
    if args.experimental_trace_compare:
        det_n = min(12, db.n_max)
        exp = zeta.build_determinant(db, det_n, k_max=5)
        poles = _conjugate_closed(_default_pole_search(exp))
        ells = [r[0] for r in scan.special_rows]
        compare_rows = trace.experimental_compare(db, poles, args.beta, ells, bump=bump)
        print("experimental resonance-side comparison (heuristic, no claim):")
        for ell, m, orbit, res, ratio in compare_rows:
            print(f"  ell={ell:6.2f}  orbit {orbit:+.3e}  resonance {res:+.3e}  "
                  f"ratio {ratio:+.3f}")

    if out is not None:
        outputs = []
        p = out / "trace_windows.csv"
        _write_csv(
            p,
            ["ell", "m", "pairing", "threshold", "passes", "atoms"],
            scan.rows,
        )
        outputs.append(p.name)
        p = out / "trace_gaussian.csv"
        _write_csv(
            p,
            ["t", "sigma", "direct", "quadrature", "quad_error", "lower_bound",
             "bound_holds"],
            gauss_rows,
        )
        outputs.append(p.name)
        p = out / "trace_shells.csv"
        _write_csv(
            p, ["center", "shell_sum", "atoms", "threshold", "qualifying"], shell_rows
        )
        outputs.append(p.name)
        if compare_rows is not None:
            p = out / "trace_compare.csv"
            _write_csv(
                p, ["ell", "m", "orbit_side", "resonance_side", "ratio"], compare_rows
            )
            outputs.append(p.name)
        _write_manifest(
            out,
            args,
            db.config_hash,
            {
                "beta": args.beta,
                "alpha0": args.alpha0,
                "sigma": args.sigma,
                "eps": args.eps,
                "nmax": db.n_max,
                "experimental_trace_compare": bool(args.experimental_trace_compare),
            },
            outputs,
        )


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
