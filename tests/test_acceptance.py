"""Acceptance gate: twelve checks, one reported line each.

Each test prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) before asserting, so a full run always shows the
complete scoreboard.  Check 10 tests the sign twist of eta_D: every
transfer edge appends one symbol, i.e. one reflection, so the twist is
the constant -1 and the twisted matrix is -B.  Its spectral radius
therefore equals the untwisted one, and what the twist changes is where
the spectrum lies: -B keeps a gap of about 0.47 from +1 at s = b1.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from billzeta.geometry import save_config
from billzeta.orbits import solve_orbit
from billzeta.stability import (
    expanding_eigenvalue,
    expansion_factor,
    monodromy,
    unstable_curvatures,
    wavefront_green,
)
from billzeta.thermo import (
    build_potentials,
    solve_abscissa,
    twisted_spectral_test,
    twisted_unit_gap,
)
from billzeta.zeta import (
    _cell_winding,
    abscissa_estimate,
    counting_check,
    eta_direct,
    eta_via_roots_of_unity,
    find_poles,
    real_zero,
    reflection_shift_matrix,
    track_zero,
)
from tests.conftest import records, subprocess_env


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_dual_oracle_stability(config, db10):
    t0 = time.perf_counter()
    worst = 0.0
    for rec in records(db10):
        orbit = solve_orbit(config, rec.word)
        kappa = unstable_curvatures(config, orbit)
        _, lam_curv = expansion_factor(orbit, kappa)
        lam_mono = expanding_eigenvalue(monodromy(config, orbit))
        worst = max(worst, abs(lam_curv - abs(lam_mono)) / abs(lam_mono))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        1,
        "dual-oracle stability",
        ok,
        f"max rel diff {worst:.2e} over {len(db10)} cycles in {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_02_closed_form_anchors(config):
    two = solve_orbit(config, (1, 2))
    kappa = unstable_curvatures(config, two)
    _, lam_abs = expansion_factor(two, kappa)
    per_bounce = np.sqrt(lam_abs)
    bounce_form = 1.0 + 4.0 * (1.0 + np.sqrt(6.0) / 2.0)
    three = solve_orbit(config, (1, 2, 3))
    t3_form = 3.0 * (6.0 - np.sqrt(3.0))
    err_t2 = abs(two.T - 8.0)
    err_b = abs(per_bounce - bounce_form)
    err_t3 = abs(three.T - t3_form)
    ok = err_t2 < 1e-12 and err_b < 1e-10 and err_t3 < 1e-10
    report(
        2,
        "closed-form anchors",
        ok,
        f"|T12-8|={err_t2:.1e}, |factor-(1+4(1+sqrt6/2))|={err_b:.1e}, "
        f"|T123-3(6-sqrt3)|={err_t3:.1e}",
    )
    assert err_t2 < 1e-12
    assert err_b < 1e-10
    assert err_t3 < 1e-10


def test_criterion_03_log_factor_equals_green_integral(config, db8):
    worst = 0.0
    bounces = 0
    for rec in records(db8):
        orbit = solve_orbit(config, rec.word)
        kappa = unstable_curvatures(config, orbit)
        for k, f in zip(kappa, orbit.flights):
            integral, _ = quad(
                lambda y: wavefront_green(k, y), 0.0, f, epsabs=1e-14, epsrel=1e-13
            )
            worst = max(worst, abs(2.0 * integral + np.log1p(f * k)))
            bounces += 1
    ok = worst <= 1e-10
    report(
        3,
        "per-flight log factor vs doubled integral",
        ok,
        f"max abs diff {worst:.2e} over {bounces} bounces (cycles <= 8)",
    )
    assert worst <= 1e-10


def test_criterion_04_pressure_cross_method(db12):
    t0 = time.perf_counter()
    pot = build_potentials(db12, 6)
    values = {}
    gap = 0.0
    for beta in (0.0, 0.5, 1.0):
        v_t = solve_abscissa(db12, beta, "transfer", k=6, pot=pot)
        v_p = solve_abscissa(db12, beta, "periodic", n=10)
        values[beta] = v_t
        gap = max(gap, abs(v_t - v_p))
    elapsed = time.perf_counter() - t0
    h, a1, b1 = values[0.0], values[0.5], values[1.0]
    ordered = b1 < a1 < h and a1 - b1 > 1e-3 and h - a1 > 1e-3
    ok = gap < 1e-3 and ordered and elapsed < 300.0
    report(
        4,
        "pressure cross-method",
        ok,
        f"max gap {gap:.2e}, b1={b1:.6f} < a1={a1:.6f} < h={h:.6f}, {elapsed:.1f}s",
    )
    assert gap < 1e-3
    assert ordered
    assert elapsed < 300.0


def test_criterion_05_series_growth_matches_abscissas(db12, abscissas, exp12):
    half, _, _ = abscissa_estimate(db12, weight="half")
    full, _, _ = abscissa_estimate(db12, weight="full")
    zero = real_zero(exp12, -0.2, -0.05)
    d_half = abs(half - abscissas[0.5])
    d_full = abs(full - abscissas[1.0])
    d_zero = abs(zero - abscissas[0.5])
    ok = d_half < 0.02 and d_full < 0.02 and d_zero < 1e-3
    report(
        5,
        "series growth and determinant zero at the abscissas",
        ok,
        f"|half-a1|={d_half:.4f}, |full-b1|={d_full:.4f}, |zero-a1|={d_zero:.2e}",
    )
    assert d_half < 0.02
    assert d_full < 0.02
    assert d_zero < 1e-3


def test_criterion_06_determinant_bracketing(db10):
    lo, hi = np.inf, 0.0
    for rec in records(db10):
        for r in range(1, 6):
            ratio = rec.det_one_minus_p(r) / rec.lam_abs**r
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 0.2 <= lo and hi <= 5.0
    report(
        6,
        "poincare determinant bracketing",
        ok,
        f"ratio range [{lo:.4f}, {hi:.4f}] over cycles <= 10, r <= 5",
    )
    assert lo >= 0.2
    assert hi <= 5.0


def test_criterion_07_filter_identities(db10):
    rng = np.random.default_rng(31415)
    worst_d = 0.0
    worst_q = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-0.1, 0.8), rng.uniform(-4.0, 4.0))
        lhs = eta_direct(db10, s, dirichlet=True, m_max=10)
        rhs = eta_direct(db10, s, q=2, m_max=10) - eta_direct(db10, s, q=1, m_max=10)
        worst_d = max(worst_d, abs(lhs - rhs) / max(1.0, abs(lhs)))
        for q in range(1, 7):
            a = eta_direct(db10, s, q=q, m_max=10)
            b = eta_via_roots_of_unity(db10, s, q, m_max=10)
            worst_q = max(worst_q, abs(a - b) / max(1.0, abs(a)))
    matrix_ok = True
    for q in range(1, 7):
        A = reflection_shift_matrix(q)
        matrix_ok &= bool(
            np.array_equal(np.linalg.matrix_power(A, q), np.eye(q, dtype=np.int64))
        )
        for j in range(1, q):
            matrix_ok &= int(np.trace(np.linalg.matrix_power(A, j))) == 0
    ok = worst_d <= 1e-12 and worst_q <= 1e-12 and matrix_ok
    report(
        7,
        "alternating and root-of-unity filter identities",
        ok,
        f"max rel: difference form {worst_d:.1e}, filter {worst_q:.1e}; "
        f"shift-matrix checks {'ok' if matrix_ok else 'failed'}",
    )
    assert worst_d <= 1e-12
    assert worst_q <= 1e-12
    assert matrix_ok


def test_criterion_08_counting_band(db12, abscissas):
    h = abscissas[0.0]
    x_max = (db12.n_max + 1) * db12.config.d0
    x_lo = max(8.0, x_max / 10.0)
    rows = counting_check(db12, h, x_values=np.linspace(x_lo, x_max, 45))
    ratios = [r[3] for r in rows]
    counts = [r[1] for r in rows]
    monotone = counts == sorted(counts)
    ok = monotone and all(0.5 <= r <= 2.0 for r in ratios)
    report(
        8,
        "counting law over the top decade",
        ok,
        f"ratio in [{min(ratios):.3f}, {max(ratios):.3f}] on x in "
        f"[{x_lo:.0f}, {x_max:.0f}], counts monotone: {monotone}",
    )
    assert monotone
    assert all(0.5 <= r <= 2.0 for r in ratios)


def test_criterion_09_gaussian_dual_forms(db12):
    from billzeta.trace import gaussian_weight

    g = gaussian_weight(db12, 12.8, 0.1)
    gap = abs(g.direct - g.quadrature)
    bounds = []
    for t in np.linspace(9.0, 14.0, 5):
        for sigma in (0.1, 0.3):
            bounds.append(gaussian_weight(db12, float(t), sigma).bound_holds)
    ok = gap <= 1e-8 and all(bounds)
    report(
        9,
        "gaussian two-point dual forms",
        ok,
        f"|direct-quadrature|={gap:.2e} at (12.8, 0.1); lower bound holds at "
        f"{sum(bounds)}/10 grid points",
    )
    assert gap <= 1e-8
    assert all(bounds)


def test_criterion_10_twisted_contraction(pot6, abscissas):
    b1 = abscissas[1.0]
    lam_plain, lam_twisted = twisted_spectral_test(pot6, b1)
    gap = twisted_unit_gap(pot6, b1)
    plain_ok = abs(lam_plain - 1.0) <= 1e-8
    # One reflection per symbol makes the twist the constant -1, so the
    # radius is unchanged; a character that is not constant on edges
    # would shrink it (0.703 when only edges appending symbol 1 flip).
    radius_ok = abs(lam_twisted - lam_plain) <= 1e-9
    # -B has no eigenvalue near +1: the gap is 1 - |lambda_2| of B(b1),
    # while the untwisted spectrum touches +1.
    gap_ok = gap > 0.4
    ok = plain_ok and radius_ok and gap_ok
    report(
        10,
        "sign-twisted spectrum",
        ok,
        f"untwisted {lam_plain:.12f}, twisted {lam_twisted:.12f} (must agree: "
        f"one reflection per symbol, so the twist is the constant -1), "
        f"distance of the twisted spectrum from +1 {gap:.4f} (must exceed "
        f"0.4), see docs/twisted_spectrum.md",
    )
    assert plain_ok
    assert radius_ok
    assert gap_ok


def test_criterion_11_pole_finder_integrity(exp10, exp12):
    real_box = find_poles(exp12, (-0.20, -0.05, -0.10, 0.10), grid=(3, 3))
    strip = find_poles(exp12, (-0.31, -0.02, 0.20, 1.30), grid=(5, 6))
    tall = find_poles(exp12, (-0.31, -0.02, 0.20, 2.40), grid=(5, 11))
    poles = real_box + strip

    worst_winding = 0.0
    for p in poles:
        w = _cell_winding(
            exp12,
            p.s.real - 0.03,
            p.s.real + 0.03,
            p.s.imag - 0.03,
            p.s.imag + 0.03,
        )
        worst_winding = max(worst_winding, abs(w - p.multiplicity))

    conj_err = 0.0
    for p in poles:
        conj_err = max(
            conj_err, abs(exp12.value(np.conj(p.s)) - np.conj(exp12.value(p.s)))
        )

    move = abs(real_zero(exp10, -0.2, -0.05) - real_zero(exp12, -0.2, -0.05))
    _, z10 = track_zero(exp10, strip[0].s, strip[0].multiplicity, radius=0.08)
    move = max(move, abs(z10 - strip[0].s))

    n_short = sum(p.multiplicity for p in strip)
    n_tall = sum(p.multiplicity for p in tall)
    ok = (
        worst_winding <= 0.05
        and conj_err < 1e-12
        and move < 1e-4
        and n_tall >= n_short
    )
    report(
        11,
        "pole-finder integrity",
        ok,
        f"winding dev {worst_winding:.3f}, conjugate symmetry {conj_err:.1e}, "
        f"N10->N12 move {move:.1e}, window doubling {n_short}->{n_tall} poles",
    )
    assert worst_winding <= 0.05
    assert conj_err < 1e-12
    assert move < 1e-4
    assert n_tall >= n_short


def test_criterion_12_cli_determinism(tmp_path, config):
    cfg = tmp_path / "config.json"
    save_config(config, cfg)
    outputs = {}
    for run in (1, 2):
        out_dir = tmp_path / f"run{run}"
        out_dir.mkdir()
        cache = out_dir / "orbits.jsonl"
        base = [sys.executable, "-m", "billzeta.cli"]
        runs = [
            ["validate", "--config", cfg],
            ["orbits", "--config", cfg, "--cache", cache, "--nmax", "10"],
            ["abscissas", "--cache", cache],
            ["zeta", "--cache", cache],
            ["poles", "--cache", cache],
            ["counting", "--cache", cache],
            ["trace", "--cache", cache],
        ]
        for extra in runs:
            cmd = base + [str(a) for a in extra]
            if extra[0] != "validate":
                cmd += ["--out", str(out_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
            assert proc.returncode == 0, (extra[0], proc.stderr)
        outputs[run] = {
            p.name: p.read_bytes()
            for p in sorted(Path(out_dir).iterdir())
            if p.suffix in (".csv", ".jsonl")
        }
    same_names = outputs[1].keys() == outputs[2].keys()
    diffs = [name for name in outputs[1] if outputs[1][name] != outputs[2].get(name)]
    ok = same_names and not diffs
    report(
        12,
        "byte-identical outputs across runs",
        ok,
        f"{len(outputs[1])} files compared, mismatches: {diffs if diffs else 'none'}",
    )
    assert same_names
    assert not diffs
