"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from ymvac import bps_profiles as bp
from ymvac import greens, interference as itf, pheno, rotator, topology as topo
from ymvac.cli import main as cli_main

UNIT = bp.MonopoleScale(g=1.0, eps=1.0)


def _report(num: int, label: str, passed: bool, detail: str):
    print(f"[acceptance] criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {label}: {detail}"


def _sample_points(n, r_lo, r_hi, seed=20260810):
    rng = np.random.default_rng(seed)
    radii = np.linspace(r_lo, r_hi, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return [r * d for r, d in zip(radii, dirs)]


def test_criterion_01_bogomolnyi_residual():
    stencil = bp.StencilConfig(h=UNIT.eps / 200.0, order=4)
    points = _sample_points(20, 0.5 * UNIT.eps, 10.0 * UNIT.eps)
    res, res_half = bp.bogomolnyi_residual(UNIT, points, stencil)
    ratio = res / res_half
    _report(
        1, "first-order pair residual",
        res < 1e-6 and ratio >= 8.0,
        f"max residual {res:.3e} (tol 1e-6), halving ratio {ratio:.1f} (need >= 8)",
    )


def test_criterion_02_wu_yang_field_law():
    gauge, _ = bp.build_fields(UNIT, "WuYangPlus")
    stencil = bp.default_stencil(UNIT)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=3)
        x *= rng.uniform(0.5, 8.0) / np.linalg.norm(x)
        B = bp.magnetic_tension(gauge, x, stencil, UNIT.g)
        r = np.linalg.norm(x)
        target = np.outer(x, x) / (UNIT.g * r**4)
        worst = max(worst, np.abs(B - target).max() / np.abs(target).max())
    _report(2, "singular hedgehog tension law", worst < 1e-6,
            f"max componentwise relative deviation {worst:.3e} over 20 points (tol 1e-6)")


def test_criterion_03_gribov_refinement():
    orders = []
    extrap = []
    for r_over in (2.0, 5.0, 20.0):
        r = r_over * UNIT.eps
        st = bp.StencilConfig(h=min(r, 8.0 * UNIT.eps) / 100.0, order=4)
        x = np.array([0.0, 0.0, r])
        n1 = float(np.linalg.norm(bp.gribov_residual(UNIT, x, st)))
        n2 = float(np.linalg.norm(bp.gribov_residual(UNIT, x, st.halved())))
        orders.append(math.log2(n1 / n2))
        extrap.append(abs(16.0 * n2 - n1) / 15.0)
    ok = min(orders) >= 3.0 and all(e < 1e-9 for e in extrap)
    _report(3, "phase-equation refinement", ok,
            f"observed orders {['%.2f' % o for o in orders]} (need >= 3), "
            f"extrapolated limits {['%.1e' % e for e in extrap]}")


def test_criterion_04_degree_quantization_and_shift():
    quad = topo.QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
    worst_int = 0.0
    worst_oracle = 0.0
    for n in range(-3, 4):
        deg = topo.map_degree(n, quad)
        oracle = topo.map_degree_radial_oracle(n)
        worst_int = max(worst_int, abs(deg - n))
        worst_oracle = max(worst_oracle, abs(deg - oracle))
    gauge, _ = bp.build_fields(UNIT, "BPS")
    x_mono = topo.winding_functional(gauge, quad, UNIT.g)
    fmap = topo.GribovFactorMap(1)
    transformed = topo.gauge_transform(gauge, fmap, UNIT.g)
    x_shift = topo.winding_functional(transformed, quad, UNIT.g, tail_fraction=None)
    surf = topo.surface_flux_term(gauge, fmap, UNIT.g, quad.r_max)

    def F(r):  # the radial reduction of the degree of v^(1)
        a = math.pi * bp.f01_bps(r, UNIT.eps)
        return (a - math.sin(a) * math.cos(a)) / math.pi

    # the shift's degree over the same ball: F(r_max) - F(0), not the cutoff-free 1
    defect = abs(x_shift - x_mono - (F(quad.r_max) - F(0.0)) - surf)
    ok = worst_int < 1e-3 and worst_oracle < 1e-4 and abs(x_mono) < 1e-3 and defect < 1e-9
    _report(4, "degree quantization / winding shift", ok,
            f"|deg-n| {worst_int:.1e} (tol 1e-3), oracle gap {worst_oracle:.1e} (tol 1e-4), "
            f"X[monopole] {x_mono:.1e} (tol 1e-3), shift defect {defect:.1e} (tol 1e-9)")


def test_criterion_05_golden_section_sector():
    l1, l2 = greens.golden_roots(1)
    root_ok = (
        abs(l1 - (-(1.0 + math.sqrt(5.0)) / 2.0)) < 1e-14
        and abs(l2 - ((-1.0 + math.sqrt(5.0)) / 2.0)) < 1e-14
    )
    rng = np.random.default_rng(13)
    s0 = greens.golden_solution(0, -1.0 / (4.0 * math.pi), 0.0)
    s1 = greens.golden_solution(1, 1.0, 1.0)
    worst_euler = 0.0
    for _ in range(100):
        z = rng.uniform(0.25, 4.0)
        worst_euler = max(worst_euler, abs(greens.euler_residual(s0, z)), abs(greens.euler_residual(s1, z)))
    G = greens.GreenTensor(s0, s1)
    y = np.array([0.0, 0.0, 1e-9])
    worst_op = 0.0
    for r in (0.8, 2.0, 5.0):
        x = np.array([0.0, 0.0, r])
        z = float(np.linalg.norm(x - y))
        res = greens.monopole_covariant_laplacian(lambda P: G.evaluate(P, y), x, h=z / 500.0)
        worst_op = max(worst_op, float(np.abs(res).max()))
    ok = root_ok and worst_euler < 1e-12 and worst_op < 1e-3
    _report(5, "golden-section sector", ok,
            f"roots exact {root_ok}, euler residual {worst_euler:.1e} (tol 1e-12), "
            f"operator residual {worst_op:.1e} (tol 1e-3)")


def test_criterion_06_radial_fixed_points_and_limit():
    exact = all(
        greens.radial_ym_residual(lambda _: f, r) == 0.0
        for f in (0.0, 1.0, -1.0)
        for r in (0.5, 1.0, 5.0)
    )
    r_grid = np.linspace(1.0, 60.0, 400)
    sups = [float(np.max(np.abs(bp.f1_bps(r_grid, e) - 1.0))) for e in (1.0, 0.5, 0.25, 0.125)]
    monotone = all(a > b for a, b in zip(sups, sups[1:]))
    _report(6, "radial fixed points / singular limit", exact and monotone,
            f"fixed-point residuals exactly zero: {exact}; sup|f1-1| over eps: "
            + ", ".join(f"{s:.2e}" for s in sups))


def test_criterion_07_theta_identity():
    worst_mod = 0.0
    for z in (0.0, 0.3, 1.0, -0.7, 2.0):
        for im_tau in (0.3, 0.7, 1.0, 2.0, 3.0):
            worst_mod = max(worst_mod, rotator.theta3_modular_defect(z, 1j * im_tau))
    worst_rep = 0.0
    for th, dn, te, inertia in itertools.product(
        (0.0, math.pi / 2, math.pi), (0.0, 0.3, 1.0), (0.3, 1.0, 3.0), (0.5, 1.0, 5.0)
    ):
        prm = rotator.RotatorParams(inertia, th, te, dn)
        worst_rep = max(worst_rep, abs(rotator.spectral_green(prm) - rotator.path_green(prm)))
    ok = worst_mod < 1e-10 and worst_rep < 1e-8
    _report(7, "theta identity / representation equality", ok,
            f"modular defect {worst_mod:.1e} (tol 1e-10) on 5x5 grid, "
            f"spectral-path gap {worst_rep:.1e} (tol 1e-8) on 81-point grid")


def test_criterion_08_destructive_interference():
    t0 = time.time()
    L = 1000
    rng = np.random.default_rng(3)
    off_ok = True
    for _ in range(20):
        th = rng.uniform(0.0, 2.0 * math.pi)
        p = rng.uniform(-10.0, 10.0)
        delta = math.remainder(p - th, 2.0 * math.pi)
        if abs(math.sin(delta / 2.0)) < 1e-3:
            continue
        mod = abs(rotator.averaged_wavefunction(p, th, L))
        off_ok &= mod < 10.0 / (L * abs(math.sin(delta / 2.0)))
    on_mod = abs(abs(rotator.averaged_wavefunction(2 * math.pi * 3 + 0.7, 0.7, L)) - 1.0)
    p4 = np.array([0.31, 0.7, -0.2, 0.45])
    norms = [np.linalg.norm(itf.momentum_green_average(p4, n), 2) for n in (100, 1000, 10000)]
    gamma = float(-np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(norms), 1)[0])
    elapsed = time.time() - t0
    ok = off_ok and on_mod < 1e-12 and 0.9 <= gamma <= 1.1 and elapsed < 300.0
    _report(8, "destructive interference", ok,
            f"off-spectrum bound ok {off_ok}, on-spectrum defect {on_mod:.1e} (tol 1e-12), "
            f"decay exponent {gamma:.3f} (band [0.9, 1.1]), runtime {elapsed:.1f}s (< 300s)")


def test_criterion_09_shift_averaged_loop():
    q = np.array([0.0, 0.125, 0.0625, 0.0])
    cutoffs = (1.0, 2.0, 4.0, 8.0)  # three doublings
    diffs = [abs(itf.shifted_loop_average(q, c, 8).difference) for c in cutoffs]
    monotone = all(a > b for a, b in zip(diffs, diffs[1:]))
    _report(9, "shift-averaged loop", monotone,
            "differences " + " > ".join(f"{d:.2e}" for d in diffs) + " across three cutoff doublings")


def test_criterion_10_phenomenology_numbers():
    inputs = pheno.PhenoInputs()
    alpha0 = pheno.alpha_mod_zero(inputs)
    sch = abs(pheno.schwinger_mass(1.7) * math.pi / 1.7**2 - 1.0)
    numer = pheno.b2_numerator(inputs)
    sc = bp.MonopoleScale(g=1.3, eps=0.8)
    inertia = pheno.rotary_momentum(sc)
    inertia_q, norm_q = pheno.zero_mode_integrals(sc)
    rel_i = abs(inertia_q - inertia) / inertia
    norm = abs(norm_q - 1.0)
    me = pheno.magnetic_energy_shell(sc)  # over the shell eps <= r <= 1e3 eps that the quadrature integrates
    rel_me = abs(pheno.magnetic_energy_quadrature(sc) - me) / me
    ok = (
        0.18 <= alpha0 <= 0.21
        and sch < 1e-14
        and 0.05 <= numer <= 0.07
        and rel_i < 0.01
        and norm < 0.01
        and rel_me < 1e-8
    )
    _report(10, "phenomenology chain", ok,
            f"alpha0 {alpha0:.4f} in [0.18, 0.21], schwinger defect {sch:.1e} (tol 1e-14), "
            f"numerator {numer:.4f} GeV^4 in [0.05, 0.07], inertia rel {rel_i:.1e} (tol 1e-2), "
            f"normalization defect {norm:.1e} (tol 1e-2), energy rel {rel_me:.1e} (tol 1e-8)")


def test_criterion_11_dressed_factor_asymptotics():
    ang = itf.EulerAngles(0.3, 1.1, -0.7)
    eps = 1.0
    bound_ok = True
    worst = 0.0
    for n in (1, -1, 2, -2):
        dev = itf.dressed_factor_map(n, ang, eps).distance_to_identity([0.0, 0.0, 100.0 * eps])[0]
        bound_ok &= dev < 1.2 * (eps / 100.0) * 2.0 * math.pi * abs(n)
        worst = max(worst, dev)
    origin_dev = max(
        itf.dressed_factor_map(n, ang, eps).distance_to_identity([0.0, 0.0, 1e-9])[0]
        for n in (1, -2, 3)
    )
    ok = bound_ok and origin_dev < 1e-7
    _report(11, "dressed-factor asymptotics", ok,
            f"far-field deviations within 1.2 (eps/r) 2 pi |n| (max {worst:.4f}), "
            f"origin deviation {origin_dev:.1e}")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    fast = {
        "profiles": ["--n-points", "9"],
        "check-bogomolnyi": ["--n-points", "4"],
        "check-gribov": ["--radii-over-eps", "2,5"],
        "winding": ["--n-min", "-1", "--n-max", "1", "--n-r", "32", "--n-theta", "16", "--n-phi", "16"],
        "greens": ["--n-z", "20"],
        "rotator": ["--theta", "0.5", "--tau", "1.0", "--inertia", "1.0"],
        "interference": [],
        "pheno": [],
    }
    identical = True
    codes_ok = True
    for sub, args in sorted(fast.items()):
        code1 = cli_main([sub, *args, "--seed", "11"])
        out1 = capsys.readouterr().out
        code2 = cli_main([sub, *args, "--seed", "11"])
        out2 = capsys.readouterr().out
        identical &= out1 == out2
        codes_ok &= code1 == 0 and code2 == 0
        json.loads(out1)  # payload well-formed
    neg = cli_main(["check-bogomolnyi", "--n-points", "4", "--tol", "1e-30"])
    capsys.readouterr()
    ok = identical and codes_ok and neg == 3
    _report(12, "cli determinism / exit discipline", ok,
            f"byte-identical reruns {identical}, exit-0 runs {codes_ok}, "
            f"overtight-tolerance exit code {neg} (want 3)")
