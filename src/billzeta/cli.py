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
import re
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, contour, thermo, trace, zeta
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with "-" is a number, not an option, also
        # with an exponent (-1e-1) or as float() spells inf and nan, which
        # argparse's own pattern lacks
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )

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


def _float_between(low: float = -np.inf, high: float = np.inf):
    """A parser of finite floats strictly between ``low`` and ``high``."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}), got {text}")
        return value

    return parse


class _Rect(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        re0, re1, im0, im1 = values
        if not (re0 < re1 and im0 < im1):
            raise argparse.ArgumentError(self, f"needs RE0 < RE1 and IM0 < IM1, got {values}")
        setattr(namespace, self.dest, values)


def _abscissas_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--k", type=_int_at_least(1), metavar="INT", help="cylinder memory (transfer method)"
    )
    p.add_argument(
        "--n", type=_int_at_least(2), metavar="INT", help="period for the periodic-point method"
    )


def _zeta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--window", type=_int_at_least(1), default=4, metavar="INT", help="regression window"
    )


def _poles_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--det-n", type=_int_at_least(2), metavar="INT", help="determinant truncation order"
    )
    p.add_argument(
        "--det-kmax", type=_int_at_least(0), default=zeta.K_MAX, metavar="INT",
        help="repetition cutoff"
    )
    p.add_argument(
        "--rect",
        type=_float_between(),
        nargs=4,
        action=_Rect,
        metavar=("RE0", "RE1", "IM0", "IM1"),
        help="search rectangle (default: leading strip plus a real-axis box)",
    )
    p.add_argument(
        "--grid", type=_int_at_least(1), nargs=2, metavar=("NX", "NY"), help="cell grid"
    )


def _counting_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_int_at_least(1), metavar="INT", help="cylinder memory for h")


def _trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=_float_between(), default=1.0, help="window sharpening rate")
    p.add_argument("--alpha0", type=_float_between(), default=0.25, help="decay threshold exponent")
    p.add_argument(
        "--sigma", type=_float_between(0.0, 1.0), default=0.1, help="Gaussian width parameter"
    )
    p.add_argument("--eps", type=_float_between(0.0), default=0.1, help="shell-search rate slack")
    p.add_argument(
        "--experimental-trace-compare",
        action="store_true",
        help="also emit the heuristic resonance-side comparison table",
    )


def _setup_subcommand(p: argparse.ArgumentParser, name: str) -> None:
    """Add the arguments of subcommand ``name`` to its parser ``p``;
    ``validate`` reads the configuration alone."""
    _, func, flags = SUBCOMMANDS[name]
    p.add_argument("--config", metavar="PATH", help="disk configuration JSON")
    if name != "validate":
        p.add_argument("--cache", metavar="PATH", help="orbit cache file")
        p.add_argument("--nmax", type=_int_at_least(2), metavar="INT", help="maximum cycle length")
    p.add_argument("--out", metavar="DIR", help="directory for CSV output")
    if flags is not None:
        flags(p)
    p.set_defaults(func=func)


class _Subcommands(argparse._SubParsersAction):
    """Subparsers that are built only when the command line selects
    them.  ``--help`` and the invalid-choice error read nothing of a
    subcommand but its name and help, so a command line builds the
    parser of its own subcommand alone, when argparse hands it the
    subcommand's arguments."""

    def add_command(self, name, help):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = None

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self._name_parser_map[name] is None:
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
            _setup_subcommand(sub, name)
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="billzeta", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"billzeta {__version__}")
    sub = parser.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser, action=_Subcommands
    )
    for name, (help, _, _) in SUBCOMMANDS.items():
        sub.add_command(name, help)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _texts(column) -> list:
    """The CSV text of every value of ``column``: ``repr`` of a float64,
    once per distinct bit pattern (symmetric cycles share doubles), so -0.0
    and 0.0 keep their own text; ``true`` or ``false`` of a bool; ``str`` of
    anything else.  A column whose first value is a str is its own texts."""
    if len(column) and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    if values.dtype == np.float64:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        return texts[inverse].tolist()
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    return [str(v) for v in values.tolist()]


def _write_columns(path: Path, header, columns) -> None:
    """A CSV table from its ``columns``, each turned into text by :func:`_texts`."""
    lines = map(",".join, zip(*map(_texts, columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """A CSV table from its rows, the tuple tables of :func:`_write_outputs`."""
    _write_columns(path, header, zip(*rows))


def _word_columns(db: OrbitDatabase):
    """The word and length texts of every row, from the blocks of
    :meth:`OrbitDatabase.word_table`.  Each label becomes a field as wide
    as the widest label, NUL-filled and followed by "-" (by a NUL after
    the last label), so a length's ``(count, n)`` block of labels becomes
    one UCS-4 matrix, read as one fixed-width string per row; dropping
    each row's NULs leaves its labels joined by "-"."""
    r = db.config.r
    width = len(str(r))
    digits = np.array([str(k) for k in range(r + 1)], dtype=f"U{width}")
    fields = digits.view(np.uint32).reshape(r + 1, width)
    words, lengths = [], []
    for n, (_, block, _) in db.word_table().items():
        chars = np.full((len(block), n, width + 1), ord("-"), dtype=np.uint32)
        chars[:, :, :width] = fields[block]
        chars[:, -1, width] = 0
        rows = chars.reshape(len(block), -1).view(f"U{n * (width + 1)}")[:, 0]
        words += [word.replace("\0", "") for word in rows.tolist()]
        lengths += [str(n)] * len(block)
    return words, lengths


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


def _write_file(path: Path, write, *args) -> None:
    """``write(path, *args)``; an unwritable file is malformed input."""
    try:
        write(path, *args)
    except OSError as exc:
        raise MalformedInputError(f"cannot write output file {path}: {exc}") from exc


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
            _write_file(out / name, table)
        else:
            _write_file(out / name, _write_csv, *table)
    _write_file(out / f"{args.subcommand}_manifest.json", _write_json, {
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


def _load_db(args, extend=False) -> OrbitDatabase:
    """The orbit database: the cache (cross-checked against --config when
    both are given) cut to --nmax, or an in-memory build from --config.
    A cache that stops below --nmax is an :class:`IncompleteDataError`,
    or with ``extend`` comes back whole, for ``orbits`` to extend.  The
    arguments and the output directory are checked before any cycle is
    loaded or solved.
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
    n_max = db.n_max if args.nmax is None else args.nmax
    if n_max > db.n_max and not extend:
        raise IncompleteDataError(
            f"cache {args.cache} stops at n_max={db.n_max}, requested "
            f"{args.nmax}; re-run `billzeta orbits --cache {args.cache} "
            f"--nmax {args.nmax}` to extend it"
        )
    return restrict_database(db, min(n_max, db.n_max))


def _memory(db, k=None) -> int:
    """The cylinder memory: ``k``, or the default for ``db``."""
    return min(6, db.n_max - 1) if k is None else k


def _det_order(db, n=None) -> int:
    """The determinant truncation order: ``n``, or the default for ``db``."""
    return min(12, db.n_max) if n is None else n


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
    db = _load_db(args, extend=True)
    # nothing is written before the save, so a cache that exists is the one loaded
    write = bool(args.cache) and not Path(args.cache).exists()
    if args.nmax is not None and args.nmax > db.n_max:
        print(f"cache stops at n_max={db.n_max}; solving lengths {db.n_max + 1}..{args.nmax}")
        db, write = extend_database(db, args.nmax), True
    elif args.cache and not write:
        print(f"cache hit: {args.cache} holds every cycle to n_max={db.n_max}; "
              "no re-solve needed")
    if write:
        save_database(db, args.cache)
        print(f"wrote {args.cache}")

    per_length = ", ".join(f"{n}:{len(block)}" for n, (_, block, _) in db.word_table().items())
    print(f"orbits: {len(db)} primitive cycles (length:count {per_length})")
    print(f"residuals: min {db.residual.min():.3e}, max {db.residual.max():.3e}")
    _write_outputs(args, db.config_hash, {"nmax": db.n_max, "cache": args.cache}, {
        "orbits.csv": lambda path: _write_columns(
            path, ["word", "length", "period", "lam", "residual", "shadow_margin"],
            [*_word_columns(db), db.T, db.lam, db.residual, db.shadow_margin]),
    })


def cmd_abscissas(args) -> None:
    db = _load_db(args)
    k = _memory(db, args.k)
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
    det_n = _det_order(db, args.det_n)
    exp = zeta.build_determinant(db, det_n, k_max=args.det_kmax)
    print(f"determinant truncation N={det_n}, repetitions k<={args.det_kmax}, "
          f"trust floor Re s > {exp.trust_floor:.3f}")
    _, classes = zeta.class_periods(db, det_n)
    print(f"{len(exp.cycles[0])} cycles in {classes} period classes: "
          f"{len(exp.poly_coeff)} atoms")
    grid = None
    if args.rect is not None:
        grid = tuple(args.grid) if args.grid else contour.GRID
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
    k = _memory(db, args.k)
    h = thermo.solve_abscissa(db, 0.0, "transfer", k=k)
    rows = zeta.counting_check(db, h)
    print(f"h = {h:.10f} (transfer, k={k})")
    x, count, model, ratio = rows[-1]
    print(f"at x={x:.2f}: N(x)={count}, e^(hx)/(hx)={model:.1f}, ratio {ratio:.3f}")
    _write_outputs(args, db.config_hash, {"k": k, "h": h, "nmax": db.n_max},
                   {"counting.csv": (["x", "count", "model", "ratio"], rows)})


# trace's Gaussian centers: ten nodes of step 7/9, and 12.8 between two
GAUSS_T_GRID = tuple(sorted([*np.linspace(8.0, 15.0, 10).tolist(), 12.8]))


def cmd_trace(args) -> None:
    db = _load_db(args)
    t0 = float(db.T[db.row(trace.GAMMA0)])
    j_max = max(2, min(int((db.horizon - 1.0) // t0), 6))
    scan = trace.ikawa_scan(db, args.beta, args.alpha0, j_max)
    n_pass = sum(1 for r in scan.rows if r[4])
    print(f"window scan at multiples of T{''.join(str(s) for s in trace.GAMMA0)}="
          f"{scan.gamma0_T:g}: {n_pass}/{len(scan.rows)} windows above "
          f"e^(-{args.alpha0} ell); fit c={scan.fit_c:.4f}, c0={scan.fit_c0:.4f}")

    gauss_rows = []
    for t in GAUSS_T_GRID:
        g = trace.gaussian_weight(db, t, args.sigma)
        gauss_rows.append(
            (t, args.sigma, g.direct, g.quadrature, g.quad_error, g.lower_bound,
             g.bound_holds)
        )
    worst = max(abs(r[2] - r[3]) for r in gauss_rows)
    print(f"gaussian dual forms agree to {worst:.2e} over {len(gauss_rows)} points; "
          f"lower bound holds at {sum(1 for r in gauss_rows if r[6])}/{len(gauss_rows)}")

    b1 = thermo.solve_abscissa(db, 1.0, "transfer", k=_memory(db))
    t_max = float(int(db.horizon) - 1)
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
        exp = zeta.build_determinant(db, _det_order(db))
        # resonance_side counts each off-axis zero with its conjugate
        poles = [p for p in _default_pole_search(exp) if p.s.imag >= 0]
        ells = [r[0] for r in scan.rows]
        compare_rows = trace.experimental_compare(db, poles, args.beta, ells)
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


# name -> (help, function, its own flags beside the common ones)
SUBCOMMANDS = {
    "validate": ("check disjointness and the no-eclipse condition", cmd_validate, None),
    "orbits": ("solve periodic orbits, manage the cache", cmd_orbits, None),
    "abscissas": ("pressure abscissas h, a1, b1 by two methods", cmd_abscissas, _abscissas_flags),
    "zeta": ("orbit series growth estimates and shell scans", cmd_zeta, _zeta_flags),
    "poles": ("determinant zeros in a rectangle", cmd_poles, _poles_flags),
    "counting": ("orbit counting against e^{hx}/(hx)", cmd_counting, _counting_flags),
    "trace": ("length-spectrum window scans and Gaussian sums", cmd_trace, _trace_flags),
}


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
