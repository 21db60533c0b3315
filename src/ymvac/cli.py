"""Command-line frontend: every computation as a subcommand with a
machine-readable report.

Report schema (json): one object with "meta", "inputs", "results", "checks".
"checks" is a list of {name, value, tolerance, passed}; csv output flattens
the "results" block only.  Exit codes: 0 all checks passed, 2 validation
error, 3 consistency-check failure.  Identical configurations (including
--seed) produce byte-identical payloads: reports carry no timestamps and all
sweep orderings are seeded.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, bps_profiles as bp, greens, interference as itf, pheno, rotator, topology as topo
from .algebra import norm
from .errors import ConsistencyError, ConvergenceError, ResolutionError, TruncationError

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_CONSISTENCY = 3


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    output_format: str = "json"
    output_path: str | None = None
    seed: int = 0
    tol: float | None = None
    constants: str | None = None


@dataclass
class Report:
    meta: dict
    inputs: dict
    results: dict
    checks: list = field(default_factory=list)

    def check(self, name: str, value, tolerance, passed: bool):
        self.checks.append(
            {"name": name, "value": _jsonable(value), "tolerance": _jsonable(tolerance), "passed": bool(passed)}
        )

    def payload(self) -> dict:
        return {
            "meta": self.meta,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "checks": self.checks,
        }

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _meta(cfg: RunConfig, tags, tolerances) -> dict:
    return {
        "tool": "ymvac",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "quantity_tags": sorted(tags),
        "parameters": _jsonable(cfg.params),
        "tolerances": _jsonable(tolerances),
        "seed": cfg.seed,
    }


def _table(columns, rows):
    return {"columns": list(columns), "rows": [[_jsonable(v) for v in row] for row in rows]}


def _worst(gaps) -> float:
    """The largest of a non-empty sweep's gaps; NaN if any gap is NaN, so that
    a NaN row fails its check (the builtin max can drop it)."""
    return float(np.max(list(gaps)))


def _require_sweep(flag: str, count: int):
    if count < 1:
        raise ValueError(f"{flag} gives an empty sweep")


def _require_positive(p: dict, key: str):
    if not p[key] > 0:
        raise ValueError(f"{_flag(key)} must be positive, got {p[key]}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _run_profiles(cfg: RunConfig) -> Report:
    p = cfg.params
    _require_sweep("--n-points", p["n_points"])
    scale = bp.MonopoleScale(g=p["g"], eps=p["eps"])
    eps, g = scale.eps, scale.g
    r = np.linspace(p["r_min"], p["r_max"], p["n_points"])
    rows = zip(r, bp.f0_bps(r, eps), bp.f1_bps(r, eps), bp.f01_bps(r, eps))
    rep = Report(
        meta=_meta(cfg, ["bps-profiles", "phase-profile"], {"boundary": 5e-3}),
        inputs={"eps": eps, "g": g},
        results={"table": _table(["r", "f0", "f1", "f01"], rows)},
    )
    rep.check("phase-profile-zero-at-origin", bp.f01_bps(0.0, eps), 1e-12, abs(bp.f01_bps(0.0, eps)) < 1e-12)
    tail = abs(bp.f01_bps(1e3 * eps, eps) - 1.0)
    rep.check("phase-profile-unit-at-infinity", tail, 5e-3, tail < 5e-3)
    return rep


def _run_check_bogomolnyi(cfg: RunConfig) -> Report:
    p = cfg.params
    _require_sweep("--n-points", p["n_points"])
    _require_positive(p, "inv_h_over_eps")
    scale = bp.MonopoleScale(g=p["g"], eps=p["eps"])
    stencil = bp.StencilConfig(h=p["eps"] / p["inv_h_over_eps"], order=p["order"])
    rng = np.random.default_rng(cfg.seed)
    radii = np.linspace(p["r_lo_over_eps"], p["r_hi_over_eps"], p["n_points"]) * p["eps"]
    dirs = rng.normal(size=(p["n_points"], 3))
    dirs /= norm(dirs.T)[:, None]
    points = radii[:, None] * dirs
    res, res_half = bp.bogomolnyi_residual(scale, points, stencil, variant=p["variant"])
    tol = cfg.tol if cfg.tol is not None else 1e-6
    # halving h should shrink an order-p error by 2^p; expect 2^(p-1) at least
    factor = 2.0 ** (stencil.order - 1)
    rep = Report(
        meta=_meta(cfg, ["bogomolnyi-identity"], {"residual": tol, "refinement_factor": factor}),
        inputs={"g": p["g"], "eps": p["eps"], "h": stencil.h, "order": stencil.order, "variant": p["variant"]},
        results={"max_relative_residual": res, "max_relative_residual_half_h": res_half},
    )
    rep.check("first-order-pair-residual", res, tol, res < tol)
    ratio = res / max(res_half, 1e-300)
    # an exactly zero residual (the PT pair) has nothing left to refine
    rep.check("stencil-refinement-factor", ratio, factor, res == 0.0 or ratio >= factor)
    return rep


def _run_check_gribov(cfg: RunConfig) -> Report:
    p = cfg.params
    _require_positive(p, "inv_h_over_r")
    scale = bp.MonopoleScale(g=p["g"], eps=p["eps"])
    radii = np.array(p["radii_over_eps"]) * p["eps"]
    # step tied to the local scale but capped below the core-resolution bound;
    # one pass over every radius at h and at h/2
    h = np.minimum(radii, 8.0 * p["eps"]) / p["inv_h_over_r"]
    centres = np.outer(np.concatenate([radii, radii]), (0.0, 0.0, 1.0))
    stencil = bp.StencilConfig(h=np.concatenate([h, h / 2.0]), order=p["order"])
    with np.errstate(over="ignore"):  # a norm past the float range is reported below
        norms = [float(np.linalg.norm(v)) for v in bp.gribov_residual(scale, centres, stencil)]
    rows = []
    min_order = math.inf
    for r_over, n1, n2 in zip(p["radii_over_eps"], norms, norms[len(radii):]):
        if not (math.isfinite(n1) and math.isfinite(n2)):
            raise ConsistencyError(
                f"the phase-equation residual norm at r = {r_over:g} eps leaves the float range "
                f"(eps = {p['eps']:g}): {n1:g} at h, {n2:g} at h/2"
            )
        if n1 == 0.0 or n2 == 0.0:
            raise ConsistencyError(
                f"the phase-equation residual at r = {r_over:g} eps is at the rounding floor "
                f"(eps = {p['eps']:g}): its norm is {n1:g} at h and {n2:g} at h/2, so no refinement order "
                f"can be observed"
            )
        order = math.log2(n1 / n2)
        min_order = min(min_order, order)
        rows.append((r_over, n1, n2, order))
    tol = cfg.tol if cfg.tol is not None else p["order"] - 1.0
    rep = Report(
        meta=_meta(cfg, ["phase-equation-residual"], {"min_observed_order": tol}),
        inputs={"g": p["g"], "eps": p["eps"], "order": p["order"]},
        results={"table": _table(["r_over_eps", "residual_h", "residual_h_half", "observed_order"], rows)},
    )
    rep.check("phase-equation-refinement-order", min_order, tol, min_order >= tol)
    return rep


def _run_winding(cfg: RunConfig) -> Report:
    p = cfg.params
    _require_sweep("--n-min/--n-max", p["n_max"] - p["n_min"] + 1)
    scale = bp.MonopoleScale(g=p["g"], eps=1.0)
    quad = topo.QuadratureSpec(r_max=p["r_max"], n_r=p["n_r"], n_theta=p["n_theta"], n_phi=p["n_phi"])
    tol = cfg.tol if cfg.tol is not None else 1e-3
    ns = [n for n in range(p["n_min"], p["n_max"] + 1) if n != 0]
    degrees = dict(zip(ns, topo.map_degree(ns, quad, check_resolution=False)))
    rows = [
        (n, 0.0, 0.0) if n == 0 else (n, float(degrees[n]), topo.map_degree_radial_oracle(n))
        for n in range(p["n_min"], p["n_max"] + 1)
    ]
    worst = _worst(abs(deg - n) for n, deg, _ in rows)
    worst_oracle = _worst(abs(deg - oracle) for _, deg, oracle in rows)
    gauge, _ = bp.build_fields(scale, "BPS")
    x_mono = topo.winding_functional(gauge, quad, scale.g)
    rep = Report(
        meta=_meta(cfg, ["degree-quantization", "chern-simons-winding"], {"integer": tol, "oracle": 1e-4}),
        inputs={"g": p["g"], "r_max": p["r_max"]},
        results={
            "table": _table(["n", "degree", "radial_oracle"], rows),
            "winding_of_monopole": x_mono,
        },
    )
    rep.check("degree-integer-quantization", worst, tol, worst < tol)
    rep.check("degree-radial-oracle-agreement", worst_oracle, 1e-4, worst_oracle < 1e-4)
    rep.check("monopole-winding-zero", abs(x_mono), tol, abs(x_mono) < tol)
    return rep


def _run_greens(cfg: RunConfig) -> Report:
    p = cfg.params
    _require_sweep("--n-z", p["n_z"])
    rng = np.random.default_rng(cfg.seed)
    root_rows = [(n, *greens.golden_roots(n)) for n in (0, 1, 2)]
    s0 = greens.golden_solution(0, -1.0 / (4.0 * math.pi), 0.0)
    s1 = greens.golden_solution(1, p["d1"], p["c1"])
    zs = rng.uniform(0.25, 4.0, p["n_z"])
    worst_euler = _worst(np.max(np.abs(greens.euler_residual(s, zs))) for s in (s0, s1))
    # one call per solution over the grid: its array powers are the per-z
    # scalar powers bit for bit (pinned in the tests)
    z_grid = np.linspace(0.2, 5.0, 25)
    pot_rows = list(zip(z_grid, s0.value(z_grid), s1.value(z_grid)))
    G = greens.GreenTensor(s0, s1)
    y = np.array([0.0, 0.0, 1e-6])
    x = np.outer((0.8, 2.0, 5.0), (0.0, 0.0, 1.0))
    z = np.array([np.linalg.norm(xi - y) for xi in x])
    res = greens.monopole_covariant_laplacian(lambda P: G.evaluate(P, y), x, h=z / 500.0)
    worst_op = _worst(np.abs(res).max(axis=(1, 2)))
    tol = cfg.tol if cfg.tol is not None else 1e-3
    rep = Report(
        meta=_meta(cfg, ["golden-section-roots", "euler-radial-equation", "background-operator"],
                   {"euler": 1e-12, "operator": tol}),
        inputs={"d1": p["d1"], "c1": p["c1"]},
        results={
            "roots": _table(["n", "l1", "l2"], root_rows),
            "table": _table(["z", "V0", "V1"], pot_rows),
            "max_euler_residual": worst_euler,
            "max_operator_residual": worst_op,
        },
    )
    rep.check("euler-closed-form-residual", worst_euler, 1e-12, worst_euler < 1e-12)
    rep.check("background-operator-annihilation", worst_op, tol, worst_op < tol)
    return rep


def _run_rotator(cfg: RunConfig) -> Report:
    p = cfg.params
    tol = cfg.tol if cfg.tol is not None else 1e-8
    thetas = [0.0, math.pi / 2, math.pi] if p["theta"] is None else [p["theta"]]
    taus = [0.3, 1.0, 3.0] if p["tau"] is None else [p["tau"]]
    inertias = [0.5, 1.0, 5.0] if p["inertia"] is None else [p["inertia"]]
    rows, skipped = [], []
    for th in thetas:
        for te in taus:
            for dn in (0.0, 0.3, 1.0):
                for inertia in inertias:
                    prm = rotator.RotatorParams.euclidean(inertia, th, te, dn)
                    # evaluate only the sides that fit the term cap; a lone
                    # side is checked against its own theta route instead
                    need_s, need_w = rotator.terms_needed(prm)
                    if need_w > rotator.TERM_CAP:
                        s = rotator.spectral_green(prm)
                        d = abs(s - rotator.spectral_green_via_theta(prm))
                        skipped.append((len(rows), "path", need_w, "spectral_green_via_theta"))
                    elif need_s > rotator.TERM_CAP:
                        s = rotator.path_green(prm)
                        d = abs(s - rotator.path_green_via_theta(prm))
                        skipped.append((len(rows), "spectral", need_s, "path_green_via_theta"))
                    else:
                        s = rotator.spectral_green(prm)
                        d = abs(s - rotator.path_green(prm))
                    rows.append((th, te, dn, inertia, s.real, s.imag, d))
    decay_rows = []
    p_off = p["theta_probe"] + math.pi
    for L in (10, 100, 1000):
        m = abs(rotator.averaged_wavefunction(p_off, p["theta_probe"], L))
        decay_rows.append((L, m, rotator.interference_bound(p_off, p["theta_probe"], L)))
    rep = Report(
        meta=_meta(cfg, ["theta-function-identity", "interference-decay"], {"representation": tol}),
        inputs={"theta": p["theta"], "tau": p["tau"], "inertia": p["inertia"], "theta_probe": p["theta_probe"],
                # with --theta every row's params carry it, reduced to [0, 2 pi)
                "theta_in_half_window": None if p["theta"] is None else prm.in_half_window},
        results={
            "table": _table(["theta", "tau_e", "dN", "inertia", "re_G", "im_G", "spectral_vs_path"], rows),
            "interference_decay": _table(["L", "off_spectrum_modulus", "bound"], decay_rows),
        },
    )
    if skipped:  # only then, so that reports with both sides keep their bytes
        rep.meta["term_cap"] = rotator.TERM_CAP
        rep.meta["skipped_sides"] = [{"row": r, "side": side, "terms_needed": n} for r, side, n, _ in skipped]
        rep.results["skipped_sides"] = _table(["row", "side", "terms_needed", "second_route"], skipped)
    worst = _worst(row[-1] for row in rows)
    rep.check("spectral-vs-path-identity", worst, tol, worst < tol)
    on_mod = abs(abs(rotator.averaged_wavefunction(p["theta_probe"], p["theta_probe"], 1000)) - 1.0)
    rep.check("on-spectrum-survival", on_mod, 1e-12, on_mod < 1e-12)
    return rep


def _run_interference(cfg: RunConfig) -> Report:
    p = cfg.params
    eps = p["eps"]
    ang = itf.EulerAngles(*p["angles"])
    rows = []
    ok_bound = True
    for n in (1, -1, 2, -2):
        dev = float(itf.dressed_factor_map(n, ang, eps).distance_to_identity([0.0, 0.0, 100.0 * eps])[0])
        bound = 1.2 * (1.0 / 100.0) * 2.0 * math.pi * abs(n)
        ok_bound &= dev < bound
        rows.append((n, dev, bound))
    norms = {}
    for L in (100, 1000, 10000):
        norms[L] = float(np.linalg.norm(itf.momentum_green_average(np.array(p["momentum"]), None, L), 2))
    logL = np.log(np.array(list(norms.keys()), dtype=float))
    gamma = float(-np.polyfit(logL, np.log(list(norms.values())), 1)[0])
    q = np.array(p["loop_q"])
    diffs = []
    loop_rows = []
    for cut in (1.0, 2.0, 4.0):
        la = itf.shifted_loop_average(q, cut, p["loop_window"])
        diffs.append(abs(la.difference))
        loop_rows.append((cut, la.unshifted, la.shift_averaged, abs(la.difference)))
    monotone = diffs[0] > diffs[1] > diffs[2]
    rep = Report(
        meta=_meta(cfg, ["dressed-factor-asymptotics", "window-average-decay", "shift-averaged-loop"],
                   {"gamma_band": [0.9, 1.1]}),
        inputs={"eps": eps, "angles": list(p["angles"]), "momentum": list(p["momentum"]), "loop_q": list(p["loop_q"]),
                "angle_sampling": "point"},
        results={
            "dressed_asymptotics": _table(["n", "deviation", "bound"], rows),
            "window_norms": {str(k): v for k, v in norms.items()},
            "decay_exponent": gamma,
            "table": _table(["cutoff", "unshifted", "shift_averaged", "difference"], loop_rows),
        },
    )
    rep.check("dressed-factor-unit-asymptotics", float(ok_bound), 1.0, ok_bound)
    rep.check("window-average-decay-exponent", gamma, [0.9, 1.1], 0.9 <= gamma <= 1.1)
    rep.check("loop-difference-monotone", diffs[-1], diffs[0], monotone)
    return rep


def _run_pheno(cfg: RunConfig) -> Report:
    p = cfg.params
    # precedence: --set flags > constants file > built-in defaults
    inputs = pheno.read_constants(cfg.constants, p["set"] or ())
    scale = bp.MonopoleScale(g=p["g"], eps=p["eps"])
    alpha0 = pheno.alpha_mod_zero(inputs)
    schwinger = pheno.schwinger_mass(p["e"])
    numer = pheno.b2_numerator(inputs)
    b2 = pheno.b2_estimate(inputs)
    shift = pheno.eta_mass_shift(inputs, b2)
    me = pheno.magnetic_energy(scale)
    meq = pheno.magnetic_energy_quadrature(scale)
    inertia = pheno.rotary_momentum(scale)
    inertia_q = pheno.rotary_momentum_quadrature(scale)
    norm = pheno.normalization_check(scale)
    sens_rows = []
    for f_pi in np.linspace(0.09, 0.13, 5):
        sens_rows.append((float(f_pi), pheno.b2_numerator(replace(inputs, f_pi=float(f_pi)))))
    rep = Report(
        meta=_meta(cfg, ["modified-coupling", "schwinger-mass", "b2-estimate", "vacuum-inertia",
                         "normalization-integral", "vacuum-magnetic-energy"],
                   {"alpha_band": [0.18, 0.21], "numerator_band": [0.05, 0.07],
                    "inertia": 0.01, "normalization": 0.01, "magnetic_energy": 0.002}),
        inputs={"constants": dict(inputs.__dict__), "g": p["g"], "eps": p["eps"], "e": p["e"]},
        results={
            "alpha_mod_zero": alpha0,
            "schwinger_mass": schwinger,
            "b2_numerator": numer,
            "b2_estimate": b2,
            "eta_mass_shift": shift.dm2,
            "c_eta": shift.c_eta,
            "magnetic_energy": me,
            "magnetic_energy_quadrature": meq,
            "inertia": inertia,
            "inertia_quadrature": inertia_q,
            "normalization_integral": norm,
            "hamiltonian_at_zero": pheno.vacuum_hamiltonian(0.0, scale),
            "table": _table(["f_pi", "b2_numerator"], sens_rows),
        },
    )
    rep.check("modified-coupling-band", alpha0, [0.18, 0.21], 0.18 <= alpha0 <= 0.21)
    rep.check("schwinger-mass-identity", schwinger * math.pi / p["e"] ** 2 - 1.0, 1e-12,
              abs(schwinger * math.pi / p["e"] ** 2 - 1.0) < 1e-12)
    rep.check("b2-numerator-band", numer, [0.05, 0.07], 0.05 <= numer <= 0.07)
    rel_i = abs(inertia_q - inertia) / inertia
    rep.check("inertia-quadrature-vs-closed-form", rel_i, 0.01, rel_i < 0.01)
    rep.check("normalization-integral-unity", abs(norm - 1.0), 0.01, abs(norm - 1.0) < 0.01)
    rel_me = abs(meq - me) / me
    tol_me = cfg.tol if cfg.tol is not None else 0.002
    rep.check("magnetic-energy-quadrature", rel_me, tol_me, rel_me < tol_me)
    return rep


_HANDLERS = {
    "profiles": _run_profiles,
    "check-bogomolnyi": _run_check_bogomolnyi,
    "check-gribov": _run_check_gribov,
    "winding": _run_winding,
    "greens": _run_greens,
    "rotator": _run_rotator,
    "interference": _run_interference,
    "pheno": _run_pheno,
}


# ---------------------------------------------------------------------------
# argument parsing and output
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them as one JSON line (exit 2)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at first use; parse_args leaves it as it was."""
    ap = _Parser(prog="ymvac", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, tol=True):
        sp.add_argument("--output", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        if tol:  # only where a report has a main check tolerance to override
            sp.add_argument("--tol", type=float, default=None, help="override the main check tolerance")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("profiles", help="tabulate the radial profiles")
    common(sp, tol=False)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--r-min", type=float, default=0.0)
    sp.add_argument("--r-max", type=float, default=10.0)
    sp.add_argument("--n-points", type=int, default=41)

    sp = sub.add_parser("check-bogomolnyi", help="first-order pair residual")
    common(sp)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=4, choices=(2, 4))
    sp.add_argument("--inv-h-over-eps", type=float, default=200.0, help="h = eps / this")
    sp.add_argument("--n-points", type=int, default=20)
    sp.add_argument("--r-lo-over-eps", type=float, default=0.5)
    sp.add_argument("--r-hi-over-eps", type=float, default=10.0)
    sp.add_argument("--variant", default="BPS", choices=("BPS", "WuYangPlus", "WuYangMinus", "PT"))

    sp = sub.add_parser("check-gribov", help="phase-equation residual refinement")
    common(sp)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=4, choices=(2, 4))
    sp.add_argument("--inv-h-over-r", type=float, default=100.0, help="h = r / this")
    sp.add_argument("--radii-over-eps", default="2,5,20")

    sp = sub.add_parser("winding", help="degree sweep and winding functional")
    common(sp)
    sp.add_argument("--n-min", type=int, default=-2)
    sp.add_argument("--n-max", type=int, default=2)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--r-max", type=float, default=300.0)
    sp.add_argument("--n-r", type=int, default=48)
    sp.add_argument("--n-theta", type=int, default=24)
    sp.add_argument("--n-phi", type=int, default=24)

    sp = sub.add_parser("greens", help="roots, potentials, operator residual")
    common(sp)
    sp.add_argument("--d1", type=float, default=1.0 / (4.0 * math.pi))
    sp.add_argument("--c1", type=float, default=1.0)
    sp.add_argument("--n-z", type=int, default=100)

    sp = sub.add_parser("rotator", help="spectral/path comparison and decay curves")
    common(sp)
    sp.add_argument("--inertia", type=float, default=None, help="fix I (default: grid)")
    sp.add_argument("--tau", type=float, default=None, help="fix tau_E (default: grid)")
    sp.add_argument("--theta", type=float, default=None, help="fix theta (default: grid)")
    sp.add_argument("--theta-probe", type=float, default=0.7)

    sp = sub.add_parser("interference", help="dressed factors, window decay, loop shifts")
    common(sp, tol=False)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--angles", default="0.3,1.1,-0.7")
    sp.add_argument("--momentum", default="0.31,0.7,-0.2,0.45")
    sp.add_argument("--loop-q", default="0.0,0.125,0.0625,0.0")
    sp.add_argument("--loop-window", type=int, default=8)

    sp = sub.add_parser("pheno", help="constants chain report")
    common(sp)
    sp.add_argument("--constants", default=None, help="constants file path")
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--e", type=float, default=1.0)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a constants-file entry (repeatable)")

    return ap


def _csv_payload(results: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for key in sorted(results):
        val = results[key]
        if isinstance(val, dict) and "columns" in val:
            writer.writerow(val["columns"])
            for row in val["rows"]:
                writer.writerow(row)
        elif isinstance(val, dict):
            for k2 in sorted(val):
                writer.writerow([f"{key}.{k2}", val[k2]])
        else:
            writer.writerow([key, val])
    return buf.getvalue()


def _error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def _emit(rep: Report, cfg: RunConfig) -> int:
    if cfg.output_format == "json":
        try:
            text = json.dumps(rep.payload(), sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # a non-finite number reached the report
            _error("consistency", exc)
            return _EXIT_CONSISTENCY
    else:
        text = _csv_payload(_jsonable(rep.results))
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _error("validation", exc)
            return _EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return _EXIT_OK if rep.all_passed() else _EXIT_CONSISTENCY


# comma-list flags and their value counts (None: one or more)
_LIST_FLAGS = {"radii_over_eps": None, "angles": 3, "momentum": 4, "loop_q": 4}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _float_list(key: str, text: str) -> list:
    flag, count = _flag(key), _LIST_FLAGS[key]
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if count is not None and len(vals) != count:
        raise ValueError(f"{flag} takes {count} values, got {len(vals)}")
    return vals


def _parse_config(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    d = vars(args)
    cfg = RunConfig(
        subcommand=d.pop("subcommand"),
        params={},
        output_format=d.pop("output"),
        output_path=d.pop("out"),
        seed=d.pop("seed"),
        tol=d.pop("tol", None),
        constants=d.pop("constants", None),
    )
    for key, val in d.items():
        if key in _LIST_FLAGS:
            val = _float_list(key, val)
        cfg.params[key] = val
    # every float flag, scalar or comma-list, must be finite
    for key, val in [("tol", cfg.tol), *cfg.params.items()]:
        vals = val if isinstance(val, list) else [val]
        if not all(math.isfinite(v) for v in vals if isinstance(v, float)):
            raise ValueError(f"{_flag(key)} must be finite, got {val}")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = _parse_config(argv if argv is not None else sys.argv[1:])
        rep = _HANDLERS[cfg.subcommand](cfg)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (ConsistencyError, ConvergenceError, ResolutionError, TruncationError) as exc:
        _error("consistency", exc)
        return _EXIT_CONSISTENCY
    except (ValueError, OSError) as exc:
        _error("validation", exc)
        return _EXIT_VALIDATION
    return _emit(rep, cfg)


if __name__ == "__main__":
    sys.exit(main())
