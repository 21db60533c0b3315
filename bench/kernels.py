"""Per-kernel timings with accuracy figures for the stencil, topology, interference, rotator, pheno and greens kernels.

Times each kernel once in each of two source trees (a baseline and this
checkout's `src/`), at two problem sizes or more and beside an accuracy
figure, and writes one JSON file:

- `map_degree` (n = 1, no refinement pass), the winding report's degree sweep
  (one call over SWEEP_N) and `winding_functional` of the BPS monopole (g = 1),
  each at the winding report's quadrature 48/24/24 and its `refined()`
  72/36/36; accuracy: |N[1] - 1|, the largest |N[n] - n| and |X[monopole]| (0);
- the gauge-shifted `winding_functional` (the monopole transformed by
  `GribovFactorMap(1)`, `tail_fraction=None`) at the same specs; accuracy:
  the shift defect |X[v(A + d)v^-1] - X[A] - N(R) - surface term|, N(R) =
  (a - sin a cos a)/pi with a = pi f01(R), R = r_max, and beside it the
  covariance gaps max |B[A'] - R(q) B[A]| and max |D phi' - R(q) D phi| at
  `covariance_setup` of tests/oracles.py (`covariance_gap_B`, `_D`);
- `surface_flux_term` of the monopole and `GribovFactorMap(1)` on r = R with
  48x48 and 72x72 nodes; accuracy: the gap to f1(R) sin(a) cos(a)/pi;
- `momentum_green_average` at the interference report's momentum, L = 10000
  and 100000; accuracy: |gamma - 1|, gamma the slope of log ||S|| between L/10
  and L, and beside it the relative 2-norm gap of S at L = 1000 to the
  30-digit `resolvent_window_sums` of tests/oracles.py;
- `QuadratureSpec.ball_nodes` at 48/24/24 and 72/36/36; accuracy: the
  relative gap of the rule on the ball integral of e^-r;
- `path_green` at I = 1e-6 and 1e-7 (tau_E = 0.3, dN = 0.3, theta = 0 and
  pi/2) and `spectral_green` at I = 1e4 and 1e5 (tau_E = 0.01, dN = 0, theta =
  0.9); accuracy: the gap to 30-digit `mpmath.jtheta` on the other side's nome;
- `algebra.exact_sums` on rows that the long-sums workload sums, at two sizes:
  the oscillating theta = pi rows and the exactly cancelling imaginary rows of
  `path_green` (I = 1e-6 and 1e-7, tau_E = 0.3) and the window sums H_k of
  `momentum_green_average` (L = 60000 and 10000); accuracy: the rows whose sum
  differs from math.fsum's in any bit (0), and beside it each row's passes;
- `topology._gauss_legendre` at 48 nodes on [0, ln 1000] and 64 on [0, 1],
  called again after its first call; accuracy: the gap on the integral of e^-t;
- the pheno companions `magnetic_energy_quadrature` and `zero_mode_integrals`
  (g = eps = 1) at their node counts and twice them; accuracy: the relative
  gap to the truncated closed form 4 pi (1 - 1e-3), and the inertia's to
  4 pi^2/alpha_s with the normalization's gap to 1 beside it;
- `bogomolnyi_residual` at check-bogomolnyi's points for --seed 0, N in
  BOGOMOLNYI_POINTS; accuracy: the residual at h, and beside it the residual at
  h/2, their ratio, the number of the two in which the trees differ
  (`tree_mismatches`, 0), the hedgehog sampler's calls and rows per call (equal
  in every round) and the median CPU time of the calling thread and of the
  thread it starts (`caller_busy_median_s`, `worker_busy_median_s`);
- the radial kernels `_x_over_sinh`, `_coth_minus_inv`, `d_f01_bps` (as
  `radial_<name>`) and `hedgehog_vector` on RADIAL_ROWS rows, as they come
  and with one element set to 0 (`+guard`); accuracy: entries unlike one call
  per element or row alone (0);
- `pheno._shell_sum` on the magnetic energy's 48 nodes and the inertia's 64;
  accuracy: sums unlike `per_node_shell_sum` of tests/oracles.py (0), and
  beside it the sum (`value`);
- the BPS gauge sampler (`sample_batch`), `algebra.norm` and
  `StencilConfig._gradient` of that sampler at N = 1000 and 27 648; accuracy:
  entries unlike `_where_hedgehog_gauge` of tests/oracles.py or
  np.linalg.norm (0), and the gradient's relative gap to its closed form;
- `ColorField.curl` of the BPS gauge field at h = 1e-3 (N = 4 608 and 27 648)
  and longdouble `magnetic_tension` at check-bogomolnyi's points (N = 20 and
  1000); accuracy: the relative gap to the closed-form curl or tension;
- `f0_bps`, `f1_bps` and `d_f01_bps` at eps = 1 on 10^3 and 10^5 radii over
  [1e-10, 1e5]; accuracy: the largest gap to 30-digit mpmath on 1000 radii;
- `cli._parse_config` on `winding` and on an interference argv with two comma
  lists; accuracy: parsed fields unlike a fresh parser's (0);
- `shifted_loop_average` at the report's loop_q, window 8, cutoffs 2 and 4;
  accuracy: values unlike `per_shift_loop_average` of tests/oracles.py;
- `gribov_residual` over GRIBOV_RADII and DENSE_GRIBOV_RADII at h = min(r, 8)/100
  and h/2 in one call; accuracy: the smallest observed order;
- `monopole_covariant_laplacian` on the greens report's tensor at h = z/500,
  at its 3 points and at GREENS_SCALING_POINTS radii over [0.8, 5]; accuracy:
  the largest operator residual;
- the `winding` report in process at default arguments and at 72/36/36, and
  the `rotator` report at default arguments and at `--inertia 1e-7 --tau
  0.3`; accuracy: the exit code (0), and beside the rotator's its tracemalloc
  peak (`traced_peak_bytes`, from a separate untimed call);
- `path_green` over the 9-row table of `rotator --inertia I --tau 0.3` at
  I = 1e-7 and 1e-6, one call; accuracy: the largest gap to `mpmath.jtheta`;
- `greens.shoot_radial(0.97, 0.05, (1, r1))` at r1 in SHOT_SPANS; accuracy:
  the gap of f(r1) to `_radial_oracle`, and beside it the step count.

Each tree is timed in fresh worker processes, alternating baseline and
current for ROUNDS rounds of REPEATS calls per kernel; the JSON holds the
median and the quartiles over all calls, and marks a case `within_noise`
when its two medians differ by less than the baseline's interquartile range.
Beside them it holds the median of IMPORTS cold `import ymvac.cli` times, the
median wall time of TIER1_RUNS alternating runs of each tree's Tier-1 suite
(`pytest -q` over the `tests/` beside its `src/`) with its summary line, and
each tree's code lines per module of `src/ymvac` (lines that are not blank, a
comment or a docstring; `src_code_lines`).

End to end, it times COLD_RUNS alternating fresh-process runs
(`python -m ymvac.cli`, import included) of each of the eight subcommands
with default arguments and of COLD_EXTRA_ARGV, and byte-compares stdout,
stderr and exit code between the two trees (both with `--seed 0`) for those
eight argv, every argv of `perfbench/workloads.json`, the validation-error
argv in ERROR_ARGV and the off-default argv in EXTRA_ARGV; the JSON lists each
argv with its exit codes and whether the bytes are identical.

Last, a property campaign runs the hypothesis-driven tests of this checkout
(`pytest -m hypothesis`) once under each of the CAMPAIGN_SEEDS explicit
`--hypothesis-seed` values, each run in a fresh directory so that no saved
example carries over, and records each test's pass count and failing seeds:
a marginal bound shows there before it makes Tier-1 flaky.  Run from the
repository root, for example against the parent commit:

    mkdir -p ../base && git archive HEAD~1 src tests | tar -x -C ../base
    python3 bench/kernels.py --baseline ../base/src --out BENCH_<PR>.json

It is not a test (no `test_` name), so the tier-1 suite does not collect it.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported, here and in the workers: one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ast
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time, thread_time
from xml.etree import ElementTree

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3  # alternating worker processes per tree
COLD_RUNS = 3  # alternating fresh-process runs of each default subcommand per tree
REPEATS = 5  # timed calls per kernel in each worker, after one warm-up call
IMPORTS = 5  # cold imports of ymvac.cli per tree
TIER1_RUNS = 2  # alternating Tier-1 suite runs per tree
CAMPAIGN_SEEDS = range(1, 51)  # --hypothesis-seed values of the property campaign
POOLED = ("times_s", "caller_busy_s", "worker_busy_s")  # per-call seconds of a case, pooled over the rounds
COUNTS = ("hedgehog_calls", "hedgehog_rows", "passes_per_row")  # work counts of a case, equal in every round
SWEEP_N = (-2, -1, 1, 2)  # the non-zero n of the winding report's default degree sweep
GRIBOV_RADII = (2.0, 5.0, 20.0)  # check-gribov's default radii over eps
DENSE_GRIBOV_RADII = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0)  # its radii in the dense-stencil workload
GREENS_RADII = (0.8, 2.0, 5.0)  # the greens report's operator points
SHOT_SPANS = (60.0, 1e4)  # r1 of shoot_radial's timed shots from r0 = 1
GREENS_SCALING_POINTS = 5000  # the operator's second size: as many points as dense-stencil's --n-z 5000
BOGOMOLNYI_POINTS = (20, 100, 300, 1000)  # either side of the pair's two-thread gate (256 points)
RADIAL_ROWS = (("float64", 4608), ("longdouble", 4000))  # a full sampler call; check-bogomolnyi's at 1000 points
_LIST_ARGV = ("interference", "--momentum", "1.3,-0.4,0.25,0.9", "--angles", "1.0,0.2,0.5")
_FINE_WINDING_ARGV = ("winding", "--n-r", "72", "--n-theta", "36", "--n-phi", "36")
SUBCOMMANDS = ("profiles", "check-bogomolnyi", "check-gribov", "winding", "greens", "rotator", "interference",
               "pheno")
COLD_EXTRA_ARGV = (("check-bogomolnyi", "--n-points", "1000"),)  # its two walks on two threads
# off the default path, mostly validation errors: output that must not move
ERROR_ARGV = (
    ("interference", "--eps", "0"),
    ("interference", "--eps", "-1"),
    ("winding", "--n-r", "10"),
    ("winding", "--r-max", "10"),
    ("rotator", "--theta", "7"),
    ("rotator", "--theta", "-1"),
    ("check-gribov", "--inv-h-over-r", "0"),
    ("check-bogomolnyi", "--inv-h-over-eps", "0"),
    ("pheno", "--g", "1e-200"),
    ("pheno", "--g", "1e200"),
    ("pheno", "--eps", "1e300"),
    ("winding", "--g", "1e200"),
    ("profiles", "--out", "missing-dir/x.json"),
    (),
    ("check-bogomolnyi", "--order", "3"),
    ("profiles", "--unknown-flag", "1"),
    ("profiles", "--tol", "5", "--constants", "/nonexistent"),
    ("interference", "--tol", "1e-3"),
    ("greens", "--constants", "c.txt"),
    ("pheno", "--eps", "1e-200"),
    ("pheno", "--eps", "1e-100"),
    ("pheno", "--eps", "1e80"),
    ("pheno", "--eps", "1e100"),
    ("pheno", "--constants", ""),
    ("pheno", "--set", "volume=1"),
    ("greens", "--c1", "1e308"),
    ("greens", "--d1", "1e308"),
    ("greens", "--c1", "1e305"),
    # residual norms past the float range, and at the rounding floor (0)
    ("check-gribov", "--eps", "1e-100"), ("check-gribov", "--radii-over-eps", "1e-300,2"),
    ("check-gribov", "--radii-over-eps", "1e300"), ("check-gribov", "--radii-over-eps", "5e143"),
    # a step so small that the first-derivative weights overflow
    ("check-bogomolnyi", "--eps", "1e-10", "--inv-h-over-eps", "1e300"),
    ("check-gribov", "--eps", "1e-10", "--inv-h-over-r", "1e300"),
    # squares past the float range; a probe reduced before + pi; a time before an inertia
    ("pheno", "--e", "1e-160"), ("pheno", "--e", "1e160"), ("pheno", "--e", "1e200"), ("pheno", "--set", "n_f=1e300"),
    ("pheno", "--set", "f_pi=1e200"), ("pheno", "--set", "f_pi=1e-200"), ("pheno", "--set", "alpha_s=1e-200"),
    ("interference", "--loop-q", "1e160,0,0,0"), ("rotator", "--theta-probe", "1e17"),
    ("rotator", "--inertia", "-1", "--tau", "0"),
)
# off-default argv of the degree sweep and the point norms: output that must not move
EXTRA_ARGV = (
    ("winding", "--n-min", "-3", "--n-max", "3"),
    ("winding", "--n-min", "0", "--n-max", "0"),
    _FINE_WINDING_ARGV,
    ("check-bogomolnyi", "--variant", "WuYangPlus"),
    ("check-gribov", "--order", "2"),
    # the shared walk over h and h/2: every variant and order, a dense sweep,
    # subnormal steps h = 1e-308 (its half exact) and 9.09e-309 (its half
    # inexact, so no sample is shared), and h = 5e-309, whose half has
    # overflowing weights
    ("check-bogomolnyi", "--variant", "BPS"),
    ("check-bogomolnyi", "--variant", "WuYangMinus"),
    ("check-bogomolnyi", "--variant", "PT"),
    ("check-bogomolnyi", "--order", "2"),
    ("check-bogomolnyi", "--n-points", "1000"),
    ("check-bogomolnyi", "--eps", "1e-300", "--inv-h-over-eps", "1e8"),
    ("check-bogomolnyi", "--eps", "1e-300", "--inv-h-over-eps", "1.1e8"),
    ("check-bogomolnyi", "--eps", "1e-300", "--inv-h-over-eps", "2e8"),
    # the shared +-n steps of the degree sweep: an asymmetric and a one-signed
    # sweep; the stacked walk: 18 shifts of 300 points in a full and a
    # ragged sampler call
    ("winding", "--n-min", "-1", "--n-max", "3"),
    ("winding", "--n-min", "-4", "--n-max", "-1"),
    ("check-bogomolnyi", "--n-points", "300"),
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ymvac.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def _timed(fn):
    """Seconds of each of REPEATS calls (after one warm-up call) and the last value."""
    value, times = fn(), []
    for _ in range(REPEATS):
        t = perf_counter()
        value = fn()
        times.append(perf_counter() - t)
    return times, value


def _jtheta_spectral(prm) -> complex:
    """The Green function through mpmath.jtheta on the spectral nome e^(-4 pi^2 a)."""
    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        a = te / (2 * I)
        z = mpmath.pi * dn + 2j * mpmath.pi * a * th
        pref = mpmath.exp(1j * th * dn - a * th**2) / (2 * mpmath.pi)
        return complex(pref * mpmath.jtheta(3, z, mpmath.exp(-4 * mpmath.pi**2 * a)))


def _jtheta_winding(prm) -> complex:
    """The Green function through mpmath.jtheta on the winding nome e^(-b), b = I/(2 tau_E)."""
    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        b = I / (2 * te)
        pref = mpmath.sqrt(I / (8 * mpmath.pi**3 * te)) * mpmath.exp(-b * dn**2)
        return complex(pref * mpmath.jtheta(3, -th / 2 + 1j * b * dn, mpmath.exp(-b)))


def _radial_oracle(f0, slope, r1) -> float:
    """f(r1) of f'' = f(1 - f^2)/r^2 from f(1) = f0, f'(1) = slope by mpmath.odefun at 20 digits
    in t = ln r, f_tt = f_t + f(1 - f^2) (in r itself it takes 20 s to r1 = 1e3)."""
    with mpmath.workdps(20):
        sol = mpmath.odefun(lambda t, y: [y[1], y[1] + y[0] * (1 - y[0] ** 2)], 0, [mpmath.mpf(f0), mpmath.mpf(slope)])
        return float(sol(mpmath.log(r1))[0])


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees during one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quiet_main(main, argv) -> int:
    """Exit code of one in-process CLI run, its report written to memory."""
    with redirect_stdout(io.StringIO()):
        return main(argv)


def _busy_times(route) -> tuple[float, float]:
    """CPU seconds of the calling thread over one run of route()
    (time.thread_time), and of the rest of the process (time.process_time
    less that): the thread that route() starts."""
    p, t = process_time(), thread_time()
    route()
    caller_s = thread_time() - t
    return caller_s, process_time() - p - caller_s


def _spied(owner, name, route, seen=lambda *args, **kw: args) -> list:
    """What seen(*args, **kw) returns at each call of owner.name, on any thread, in one run of route()."""
    calls, fn = [], getattr(owner, name)
    setattr(owner, name, lambda *args, **kw: calls.append(seen(*args, **kw)) or fn(*args, **kw))
    try:
        route()
    finally:
        setattr(owner, name, fn)
    return calls


def _bps_gauge_gradient(pts):
    """d_j A_i^a, [n][j][i][a], of the BPS gauge field at g = eps = 1 from its
    closed form A_i^a = eps_{iak} x_k c(r), c = f1(r)/r^2."""
    from ymvac.algebra import EPS3

    r = np.linalg.norm(pts, axis=1)
    f1 = 1.0 - r / np.sinh(r)
    c = f1 / r**2
    dc = (r * np.cosh(r) - np.sinh(r)) / (np.sinh(r) ** 2 * r**2) - 2.0 * f1 / r**3
    # d_j (x_k c) = delta_jk c + x_j x_k c'/r
    dxc = c[:, None, None] * np.eye(3) + (dc / r)[:, None, None] * pts[:, :, None] * pts[:, None, :]
    return np.einsum("iak,njk->njia", EPS3, dxc)


def _bps_tension(pts):
    """B_i^a, [n][i][a], of the BPS pair at g = eps = 1 in closed form:
    f1'/r (delta - n n) + (2 f1 - f1^2)/r^2 n n."""
    r = np.linalg.norm(pts, axis=1)
    f1 = 1.0 - r / np.sinh(r)
    df1 = (r * np.cosh(r) - np.sinh(r)) / np.sinh(r) ** 2
    nn = pts[:, :, None] * pts[:, None, :] / (r * r)[:, None, None]
    return (df1 / r)[:, None, None] * (np.eye(3) - nn) + ((2.0 * f1 - f1 * f1) / (r * r))[:, None, None] * nn


def _profile_gaps(r, values) -> dict:
    """Largest absolute gap of each sampler's values to 30-digit mpmath at
    eps = 1, over every (len(r) // 1000)-th radius."""
    refs = {
        "f0_bps": lambda x: mpmath.coth(x) - 1 / x,
        "f1_bps": lambda x: 1 - x / mpmath.sinh(x),
        "d_f01_bps": lambda x: 1 / x**2 - 1 / mpmath.sinh(x) ** 2,
    }

    def ref(name, x):
        # below x = 1 the two terms cancel in up to 2 log10(1/x) digits
        with mpmath.workdps(32 + max(0, math.ceil(-2.0 * math.log10(x)))):
            return refs[name](mpmath.mpf(float(x)))

    step = max(len(r) // 1000, 1)
    return {
        name: float(max(abs(mpmath.mpf(float(v)) - ref(name, x)) for x, v in zip(r[::step], values[name][::step])))
        for name in refs
    }


def _relative_gap(value, exact) -> float:
    """Largest absolute gap of value to exact over the largest entry of exact."""
    return float(np.max(np.abs(value - exact)) / np.max(np.abs(exact)))


def _mismatches(a, b) -> int:
    """Entries of two equally shaped arrays (or tuples or lists of them)
    that differ in value or in the sign of zero."""
    if isinstance(a, (tuple, list)):
        return sum(_mismatches(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return int(np.sum((a != b) | (np.signbit(a) != np.signbit(b))))


def _gribov_radii(bp, unit, radii_over_eps):
    """check-gribov's residuals at radii r (eps = 1) with h = min(r, 8)/100 and
    at h/2, (2M, 3), from one gribov_residual call over all 2M centres."""
    r = np.array(radii_over_eps, dtype=float)
    h = np.minimum(r, 8.0) / 100.0
    centres = np.outer(np.concatenate([r, r]), (0.0, 0.0, 1.0))
    return bp.gribov_residual(unit, centres, bp.StencilConfig(np.concatenate([h, h / 2.0]), 4))


def _greens_operator(greens, radii):
    """The greens report's operator on its tensor at points (0, 0, r) with
    h = z/500, from one call over all points."""
    s0 = greens.golden_solution(0, -1.0 / (4.0 * math.pi), 0.0)
    G = greens.GreenTensor(s0, greens.golden_solution(1, 1.0 / (4.0 * math.pi), 1.0))
    y = np.array([0.0, 0.0, 1e-6])
    x = np.outer(radii, (0.0, 0.0, 1.0))
    h = np.array([np.linalg.norm(xi - y) for xi in x]) / 500.0
    return greens.monopole_covariant_laplacian(lambda P: G.evaluate(P, y), x, h=h)


def worker() -> dict:
    """Time every kernel case in this process; `ymvac` comes from PYTHONPATH."""
    from ymvac import algebra, bps_profiles as bp, cli, greens, interference as itf, pheno, rotator as rot
    from ymvac import topology as topo
    from ymvac.cli import _parse_config

    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import (_where_hedgehog_gauge, covariance_gaps, covariance_setup, per_node_shell_sum,
                         per_shift_loop_average, resolvent_window_sums)

    default = topo.QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
    specs = {"48x24x24": default, "72x36x36": default.refined()}
    gauge, _ = bp.build_fields(bp.MonopoleScale(g=1.0, eps=1.0), "BPS")
    momentum = np.array(_parse_config(["interference"]).params["momentum"])
    # one level on both sides: a baseline whose map_degree still refines by default is told not to
    one_level = {"check_resolution": False} if "check_resolution" in topo.map_degree.__code__.co_varnames else {}

    def norm(L):
        return float(np.linalg.norm(itf.momentum_green_average(momentum, L), 2))

    fmap = topo.GribovFactorMap(1)
    shifted = topo.gauge_transform(gauge, fmap, 1.0)

    def surface(n_nodes):
        return topo.surface_flux_term(gauge, fmap, 1.0, default.r_max, n_theta=n_nodes, n_phi=n_nodes)

    a = math.pi * bp.f01_bps(default.r_max, 1.0)
    surface_exact = bp.f1_bps(default.r_max, 1.0) * math.sin(a) * math.cos(a) / math.pi
    degree_at_r_max = (a - math.sin(a) * math.cos(a)) / math.pi  # the degree truncated like the integral
    gaps = covariance_gaps(*covariance_setup())  # no quadrature spec enters: one figure beside both shift defects
    covariance = {f"covariance_gap_{k}": float(gaps[k][0].max()) for k in ("B", "D")}

    cases = {}
    extra = {}  # second accuracy figures, by case

    for size, quad in specs.items():
        times, deg = _timed(lambda: topo.map_degree(1, quad, **one_level))
        cases[f"map_degree/{size}"] = (times, "degree_gap", abs(deg - 1.0))
        times, degrees = _timed(lambda: topo.map_degree(SWEEP_N, quad, **one_level))
        cases[f"degree_sweep/{size}"] = (times, "largest_degree_gap",
                                         max(abs(d - n) for n, d in zip(SWEEP_N, degrees)))
        times, x = _timed(lambda: topo.winding_functional(gauge, quad, 1.0))
        cases[f"winding_functional/{size}"] = (times, "abs_winding_of_monopole", abs(x))
        times, xs = _timed(lambda: topo.winding_functional(shifted, quad, 1.0, tail_fraction=None))
        defect = abs(xs - x - degree_at_r_max - surface(48))
        cases[f"gauge_shifted_winding/{size}"] = (times, "shift_defect", defect)
        extra[f"gauge_shifted_winding/{size}"] = covariance
        times, (pts, wts) = _timed(lambda: quad.ball_nodes(1.0))
        exact = 4.0 * math.pi * (2.0 - math.exp(-quad.r_max) * (quad.r_max**2 + 2.0 * quad.r_max + 2.0))
        gap = abs(np.sum(wts * np.exp(-np.linalg.norm(pts, axis=1))) / exact - 1.0)
        cases[f"ball_nodes/{size}"] = (times, "exp_integral_gap", gap)
    for n_nodes in (48, 72):
        times, value = _timed(lambda: surface(n_nodes))
        cases[f"surface_flux_term/{n_nodes}x{n_nodes}"] = (times, "closed_form_gap", abs(value - surface_exact))
    oracle = resolvent_window_sums(tuple(momentum), (1000,))[1000]
    s_1000 = itf.momentum_green_average(momentum, 1000)
    mpmath_gap = float(np.linalg.norm(s_1000 - oracle, 2) / np.linalg.norm(oracle, 2))
    for L in (10000, 100000):
        times, value = _timed(lambda: norm(L))
        gamma = -math.log(value / norm(L // 10)) / math.log(10.0)
        cases[f"momentum_green_average/L={L}"] = (times, "decay_exponent_gap", abs(gamma - 1.0))
        extra[f"momentum_green_average/L={L}"] = {"mpmath_gap_L1000": mpmath_gap}
    for theta, label in ((0.0, ""), (math.pi / 2, ",theta=pi_2")):
        for inertia in (1e-6, 1e-7):
            prm = rot.RotatorParams(inertia, theta, 0.3, 0.3)
            times, value = _timed(lambda: rot.path_green(prm))
            cases[f"path_green/I={inertia:g}{label}"] = (times, "jtheta_gap", abs(value - _jtheta_spectral(prm)))

    def summed(module, route):  # the rows that route() hands module.exact_sums, copied at each call
        return [row for rows in _spied(module, "exact_sums", route, lambda rows: [np.array(r) for r in rows])
                for row in rows]

    for inertia, L in ((1e-6, 60000), (1e-7, 10000)):  # rows (re, im) at theta = pi/2, pi by dN = 0, 0.3, 1
        rows = summed(rot, lambda: rot.path_green([rot.RotatorParams(inertia, th, 0.3, dn)
                                                    for th in (math.pi / 2, math.pi) for dn in (0.0, 0.3, 1.0)]))
        h_k = summed(itf, lambda: itf.momentum_green_average(momentum, L))
        for kind, group in (("theta_pi", rows[6::2]), ("cancelling", [rows[1], rows[7]]), ("H_k", h_k)):
            times, sums = _timed(lambda: algebra.exact_sums(group))
            name = f"exact_sums/{kind},{len(group)}x{group[0].size}"
            mismatches = sum(a.hex() != math.fsum(r.tolist()).hex() for a, r in zip(sums, group))
            cases[name] = (times, "fsum_mismatches", mismatches)
            # np.add runs once per pass over a block, in either tree
            extra[name] = {"passes_per_row": [len(_spied(np, "add", lambda: algebra.exact_sums([r]))) for r in group]}
    for inertia in (1e4, 1e5):
        prm = rot.RotatorParams(inertia, 0.9, 0.01, 0.0)
        times, value = _timed(lambda: rot.spectral_green(prm))
        cases[f"spectral_green/I={inertia:g}"] = (times, "jtheta_gap", abs(value - _jtheta_winding(prm)))
    for n_nodes, upper in ((48, math.log(pheno._MAGNETIC_R_MAX_OVER_EPS)), (64, 1.0)):
        times, (t, w) = _timed(lambda: topo._gauss_legendre(n_nodes, upper))
        gap = abs(np.sum(w * np.exp(-t)) / -math.expm1(-upper) - 1.0)
        cases[f"gauss_legendre/{n_nodes}_nodes"] = (times, "exp_integral_gap", gap)
    unit = bp.MonopoleScale(g=1.0, eps=1.0)
    truncated = pheno.magnetic_energy(unit) * (1.0 - 1.0 / pheno._MAGNETIC_R_MAX_OVER_EPS)
    inertia = pheno.rotary_momentum(unit)
    nodes = pheno._MAGNETIC_NODES, pheno._RADIAL_NODES
    for factor in (1, 2):
        pheno._MAGNETIC_NODES, pheno._RADIAL_NODES = (n * factor for n in nodes)
        times, value = _timed(lambda: pheno.magnetic_energy_quadrature(unit))
        cases[f"magnetic_energy_quadrature/{pheno._MAGNETIC_NODES}_nodes"] = (
            times, "truncated_closed_form_gap", abs(value / truncated - 1.0))
        times, (value, unity) = _timed(lambda: pheno.zero_mode_integrals(unit))
        cases[f"zero_mode_integrals/{pheno._RADIAL_NODES}_nodes"] = (times, "closed_form_gap", abs(value / inertia - 1.0))
        extra[f"zero_mode_integrals/{pheno._RADIAL_NODES}_nodes"] = {"unity_gap": abs(unity - 1.0)}
    pheno._MAGNETIC_NODES, pheno._RADIAL_NODES = nodes

    bogo = _parse_config(["check-bogomolnyi"]).params

    def report_points(n):  # check-bogomolnyi's points for --seed 0
        rng = np.random.default_rng(0)
        radii = np.linspace(bogo["r_lo_over_eps"], bogo["r_hi_over_eps"], n) * bogo["eps"]
        dirs = rng.normal(size=(n, 3))
        return radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]

    for n in BOGOMOLNYI_POINTS:
        pts = report_points(n)

        def pair():
            return bp.bogomolnyi_residual(unit, pts, bp.default_stencil(unit))

        times, value = _timed(pair)
        rows = _spied(bp, "_hedgehog", pair, lambda pts, *_: len(pts))  # per sampler call, on both threads
        caller_s, worker_s = zip(*(_busy_times(pair) for _ in range(REPEATS)))
        cases[f"bogomolnyi_pair/N={n}"] = (times, "max_relative_residual", value[0])
        extra[f"bogomolnyi_pair/N={n}"] = {
            "residual_half_h": value[1], "refinement_ratio": value[0] / value[1], "pair": list(value),
            "hedgehog_calls": len(rows), "hedgehog_rows": sum(rows),
            "caller_busy_s": list(caller_s), "worker_busy_s": list(worker_s),
        }
    # the radial kernels and the hedgehog sampler on one sampler call's rows,
    # as they come (no guarded element) and with one element set to 0
    radial = {"radial_x_over_sinh": bp._x_over_sinh, "radial_coth_minus_inv": bp._coth_minus_inv,
              "radial_d_f01_bps": lambda r: bp.d_f01_bps(r, 1.0)}
    for dtype, n in RADIAL_ROWS:
        for guard in ("", "+guard"):
            pts = report_points(n).astype(dtype)
            if guard:
                pts[n // 2] = 0.0
            r = np.linalg.norm(pts, axis=1)
            for name, fn in radial.items():
                times, value = _timed(lambda: fn(r))
                alone = np.array([fn(np.asarray(v)) for v in r], dtype=value.dtype)
                cases[f"{name}/{dtype}x{n}{guard}"] = (times, "alone_mismatches", _mismatches(value, alone))
            times, value = _timed(lambda: gauge.vector_batch(pts))
            alone = np.concatenate([gauge.vector_batch(pts[i:i + 1]) for i in range(n)])
            cases[f"hedgehog_vector/{dtype}x{n}{guard}"] = (times, "alone_mismatches", _mismatches(value, alone))
    # the shell sums of the magnetic energy (48 nodes) and the inertia (64)
    shell_sums = {}  # node count -> the arguments of its call
    shell_sum = pheno._shell_sum

    def recorded(*args):
        shell_sums.setdefault(len(args[0]), args)
        return shell_sum(*args)

    pheno._shell_sum = recorded
    try:
        pheno.magnetic_energy_quadrature(unit)
        pheno.zero_mode_integrals(unit)
    finally:
        pheno._shell_sum = shell_sum
    for n_nodes, args in sorted(shell_sums.items()):
        times, value = _timed(lambda: pheno._shell_sum(*args))
        mismatches = int(float(value).hex() != float(per_node_shell_sum(*args)).hex())
        cases[f"shell_sum/{n_nodes}_nodes"] = (times, "per_node_mismatches", mismatches)
        extra[f"shell_sum/{n_nodes}_nodes"] = {"value": float(value)}
    stencil = bp.default_stencil(unit)
    gradient = bp.StencilConfig._gradient
    for n in (1000, 27648):
        pts = report_points(n)
        times, A = _timed(lambda: gauge.sample_batch(pts))
        ref = _where_hedgehog_gauge(pts, 1.0, lambda r: bp.f1_bps(r, 1.0))
        cases[f"hedgehog_gauge/N={n}"] = (times, "where_form_mismatches", int(np.sum(A != ref)))
        times, value = _timed(lambda: algebra.norm(pts.T))  # the (N, 3) layout of every node batch
        cases[f"norm/N={n}"] = (times, "linalg_norm_mismatches", int(np.sum(value != np.linalg.norm(pts, axis=1))))
        times, (dA,) = _timed(lambda: gradient(gauge.sample_batch, pts, [(stencil, 1)]))
        exact = _bps_gauge_gradient(pts)
        cases[f"stencil_gradient/N={n}"] = (times, "relative_gap_to_closed_form", _relative_gap(dA, exact))
    winding_stencil = bp.StencilConfig(1e-3, 4)
    for n in (4608, 27648):
        pts = report_points(n)
        times, value = _timed(lambda: gauge.curl(winding_stencil, pts))
        exact = np.einsum("ijk,njka->nia", algebra.EPS3, _bps_gauge_gradient(pts))
        cases[f"color_field_curl/N={n}"] = (times, "closed_form_gap", _relative_gap(value, exact))
    for n in (20, 1000):
        pts = report_points(n).astype(np.longdouble)
        times, value = _timed(lambda: bp.magnetic_tension(gauge, pts, stencil, 1.0))
        cases[f"magnetic_tension_longdouble/N={n}"] = (
            times, "closed_form_gap", _relative_gap(value, _bps_tension(pts.astype(float))))
    samplers = {"f0_bps": bp.f0_bps, "f1_bps": bp.f1_bps, "d_f01_bps": bp.d_f01_bps}
    for n in (1000, 100000):
        r = np.geomspace(1e-10, 1e5, n)
        timed = {name: _timed(lambda: fn(r, 1.0)) for name, fn in samplers.items()}
        gaps = _profile_gaps(r, {name: value for name, (_, value) in timed.items()})
        for name, (times, _) in timed.items():
            cases[f"{name}/N={n}"] = (times, "mpmath_gap", gaps[name])
    fresh_parser = cli._build_parser.__wrapped__
    for label, argv in (("winding", ["winding"]), ("interference_lists", list(_LIST_ARGV))):
        times, _ = _timed(lambda: _parse_config(argv))
        reused, fresh = vars(cli._build_parser().parse_args(argv)), vars(fresh_parser().parse_args(argv))
        mismatched = sum(reused[k] != v for k, v in fresh.items())
        cases[f"parse_config/{label}"] = (times, "fields_unlike_a_fresh_parser", mismatched)
    q = np.array(_parse_config(["interference"]).params["loop_q"])
    for cutoff in (2.0, 4.0):
        times, value = _timed(lambda: itf.shifted_loop_average(q, cutoff, 8))
        ref = per_shift_loop_average(q, cutoff, 8)
        cases[f"shifted_loop_average/cutoff={cutoff:g}"] = (
            times, "shift_by_shift_mismatches", sum(a.hex() != b.hex() for a, b in zip(value, ref)))

    def min_order(res):  # the report's smallest log2(|res(h)| / |res(h/2)|) over the radii
        norms = [float(np.linalg.norm(v)) for v in res]
        m = len(norms) // 2
        return min(math.log2(a / b) for a, b in zip(norms[:m], norms[m:]))

    for radii in (GRIBOV_RADII, DENSE_GRIBOV_RADII):
        times, res = _timed(lambda: _gribov_radii(bp, unit, radii))
        cases[f"gribov_residual/{len(radii)}x2_centres"] = (times, "min_observed_order", min_order(res))
    for radii in (GREENS_RADII, np.geomspace(0.8, 5.0, GREENS_SCALING_POINTS)):
        times, res = _timed(lambda: _greens_operator(greens, radii))
        cases[f"monopole_covariant_laplacian/{len(radii)}_points"] = (
            times, "max_operator_residual", float(np.abs(res).max()))
    for label, argv in (("default", ["winding"]), ("72x36x36", list(_FINE_WINDING_ARGV))):
        times, code = _timed(lambda: _quiet_main(cli.main, argv))
        cases[f"winding_report/{label}"] = (times, "exit_code", code)
    # the rotator report's winding sides, one call over its table
    for inertia in (1e-7, 1e-6):
        table = [rot.RotatorParams(inertia, theta, 0.3, dn)
                 for theta in (0.0, math.pi / 2, math.pi) for dn in (0.0, 0.3, 1.0)]
        times, value = _timed(lambda: rot.path_green(table))
        gap = max(abs(z - _jtheta_spectral(prm)) for z, prm in zip(value, table))
        cases[f"path_green_table/I={inertia:g}"] = (times, "max_jtheta_gap", gap)
    for label, argv in (("default", ["rotator"]), ("I=1e-7", ["rotator", "--inertia", "1e-7", "--tau", "0.3"])):
        times, code = _timed(lambda: _quiet_main(cli.main, argv))
        cases[f"rotator_report/{label}"] = (times, "exit_code", code)
        extra[f"rotator_report/{label}"] = {"traced_peak_bytes": _traced_peak(lambda: _quiet_main(cli.main, argv))}
    for r1 in SHOT_SPANS:
        times, shot = _timed(lambda: greens.shoot_radial(0.97, 0.05, (1.0, r1)))
        cases[f"shoot_radial/r1={r1:g}"] = (times, "mpmath_gap", abs(shot.f[-1] - _radial_oracle(0.97, 0.05, r1)))
        extra[f"shoot_radial/r1={r1:g}"] = {"steps": len(shot.r) - 1}
    return {
        case: {"times_s": times, "accuracy_name": name, "accuracy": value, **extra.get(case, {})}
        for case, (times, name, value) in cases.items()
    }


def code_lines(path: Path) -> int:
    """Lines of a Python file that hold a token other than a comment (by
    tokenize), less the lines of the module's, classes' and functions'
    docstrings (by ast)."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines(src: Path) -> dict:
    """code_lines of each module of the ymvac package under src, and their total."""
    modules = {path.name: code_lines(path) for path in sorted((src / "ymvac").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def _run(src: Path, args: list[str], **extra_env) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), **extra_env)
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"worker on {src} failed:\n{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def tier1(src: Path) -> tuple[float, str]:
    """Wall seconds and summary line of one Tier-1 run over the tests beside src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    t = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=src.parent, capture_output=True, text=True)
    seconds = perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    return seconds, lines[-1] if lines else f"exit {proc.returncode}"


def _cli(src: Path, argv, cwd: Path) -> tuple[float, dict]:
    """Wall seconds of one fresh `python -m ymvac.cli` process, and its
    stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ymvac.cli", *argv], env=env, cwd=cwd, capture_output=True)
    seconds = perf_counter() - t
    return seconds, {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode}


def cold_subcommands(trees: dict) -> dict:
    """Median of COLD_RUNS fresh-process wall times of each default
    subcommand and each argv of COLD_EXTRA_ARGV, keyed by the argv."""
    argvs = [(sub,) for sub in SUBCOMMANDS] + list(COLD_EXTRA_ARGV)
    times = {name: {" ".join(argv): [] for argv in argvs} for name in trees}
    for _ in range(COLD_RUNS):
        for argv in argvs:
            for name, src in trees.items():
                times[name][" ".join(argv)].append(_cli(src, list(argv), ROOT)[0])
    return {
        name: {sub: {"median_s": statistics.median(ts), "samples": COLD_RUNS} for sub, ts in per.items()}
        for name, per in times.items()
    }


def compare_outputs(trees: dict) -> list:
    """Exit codes and byte identity of stdout, stderr and exit code between the
    trees, for each argv (all given --seed 0), run in a scratch directory each."""
    with open(ROOT / "perfbench" / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)
    groups = [("default", [(sub,) for sub in SUBCOMMANDS])]
    groups += [(f"workload:{w}", [tuple(a) for a in spec["reports"]]) for w, spec in workloads.items()]
    groups += [("error", ERROR_ARGV), ("extra", EXTRA_ARGV)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for group, argvs in groups:
            for argv in argvs:
                out = {}
                for name, src in trees.items():
                    cwd = Path(tmp) / name
                    cwd.mkdir(exist_ok=True)
                    out[name] = _cli(src, [*argv, "--seed", "0"], cwd)[1]
                exits = {name: rec["exit"] for name, rec in out.items()}
                rows.append({"group": group, "argv": list(argv), "exit": exits,
                             "identical": out["baseline"] == out["current"]})
    return rows


def property_campaign() -> dict:
    """Pass count and failing seeds of each hypothesis-driven test of this
    checkout, one `pytest -m hypothesis` run per seed in CAMPAIGN_SEEDS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tests = {}
    for seed in CAMPAIGN_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:  # a fresh .hypothesis example database
            report = Path(tmp) / "report.xml"
            cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "hypothesis",
                   f"--hypothesis-seed={seed}", f"--junitxml={report}", "-c", str(ROOT / "pyproject.toml"),
                   "--rootdir", str(ROOT), str(ROOT / "tests")]
            subprocess.run(cmd, env=env, cwd=tmp, capture_output=True)
            for case in ElementTree.parse(report).iter("testcase"):
                name = f"{case.get('classname')}::{case.get('name')}"
                rec = tests.setdefault(name, {"passed": 0, "failed_seeds": []})
                if any(child.tag in ("failure", "error") for child in case):
                    rec["failed_seeds"].append(seed)
                else:
                    rec["passed"] += 1
    return {"seeds": list(CAMPAIGN_SEEDS), "tests": tests}


def measure(trees: dict) -> dict:
    samples = {name: {} for name in trees}
    import_s = {name: [] for name in trees}
    for _ in range(ROUNDS):
        for name, src in trees.items():
            out = json.loads(_run(src, [__file__, "--worker"]))
            for case, rec in out.items():
                acc = samples[name].setdefault(case, {k: [] if k in POOLED else v for k, v in rec.items()})
                for k, v in rec.items():
                    if k in POOLED:
                        acc[k] += v
                    elif k in COUNTS and v != acc[k]:
                        sys.exit(f"{name} {case}: {k} is {acc[k]} in one round and {v} in another")
    for _ in range(IMPORTS):
        for name, src in trees.items():
            import_s[name].append(float(_run(src, ["-c", IMPORT_CODE])))
    tier1_s = {name: [] for name in trees}
    tier1_summary = {}
    for _ in range(TIER1_RUNS):
        for name, src in trees.items():
            seconds, tier1_summary[name] = tier1(src)
            tier1_s[name].append(seconds)
    kernels = []
    for case in samples["current"]:
        kernel, size = case.split("/")
        row = {"kernel": kernel, "size": size, "accuracy_name": samples["current"][case]["accuracy_name"]}
        for name in trees:
            rec = samples[name][case]
            q1, _, q3 = statistics.quantiles(rec["times_s"], n=4)
            row[name] = {
                "median_s": statistics.median(rec["times_s"]),
                "quartiles_s": [q1, q3],
                "samples": len(rec["times_s"]),
                "accuracy": rec["accuracy"],
                **{k: v for k, v in rec.items() if k not in (*POOLED, "accuracy_name", "accuracy")},
                **{f"{k[:-2]}_median_s": statistics.median(rec[k]) for k in POOLED[1:] if k in rec},
            }
        base, cur = row["baseline"], row["current"]
        row["speedup"] = base["median_s"] / cur["median_s"]
        row["within_noise"] = abs(base["median_s"] - cur["median_s"]) < base["quartiles_s"][1] - base["quartiles_s"][0]
        if "pair" in row["current"]:
            row["tree_mismatches"] = _mismatches(*(tuple(row[name]["pair"]) for name in trees))
        kernels.append(row)
    return {
        "kernels": kernels,
        "import_ymvac_cli": {name: {"median_s": statistics.median(import_s[name]), "samples": IMPORTS}
                             for name in trees},
        "tier1_wall": {name: {"median_s": statistics.median(tier1_s[name]), "samples": TIER1_RUNS,
                              "summary": tier1_summary[name]} for name in trees},
    }


def _brief(v) -> str:
    return f"{v:.3e}" if isinstance(v, float) else repr(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.baseline is None or args.out is None:
        ap.error("--baseline and --out are required")
    trees = {"baseline": args.baseline.resolve(), "current": ROOT / "src"}
    for src in trees.values():
        if not (src / "ymvac" / "__init__.py").is_file():
            ap.error(f"{src} has no ymvac package")
    result = measure(trees)
    result["src_code_lines"] = {name: src_code_lines(src) for name, src in trees.items()}
    result["cold_subcommand_wall"] = cold_subcommands(trees)
    result["output_identity"] = compare_outputs(trees)
    result["property_campaign"] = property_campaign()
    result["settings"] = {
        "rounds": ROUNDS, "repeats": REPEATS, "nproc": os.cpu_count(), "machine": platform.machine(),
        "statistic": "median over rounds x repeats timed calls, each tree in fresh alternating processes",
        "python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for row in result["kernels"]:
        q1, q3 = (q * 1e3 for q in row["baseline"]["quartiles_s"])
        noise = f", within noise: baseline IQR {q3 - q1:.2f} ms" if row["within_noise"] else ""
        print(f"{row['kernel']:>24} {row['size']:>9}: {row['baseline']['median_s'] * 1e3:8.2f} -> "
              f"{row['current']['median_s'] * 1e3:8.2f} ms ({row['speedup']:.2f}x{noise}); {row['accuracy_name']} "
              f"{row['baseline']['accuracy']:.3e} -> {row['current']['accuracy']:.3e}")
        for key in [k for k in row["current"] if k not in ("median_s", "quartiles_s", "samples", "accuracy")]:
            print(f"{'':>36}{key} {_brief(row['baseline'][key])} -> {_brief(row['current'][key])}")
        for key in [k for k in row if k not in (*trees, "kernel", "size", "accuracy_name", "speedup", "within_noise")]:
            print(f"{'':>36}{key} {_brief(row[key])}")
    lines = result["src_code_lines"]
    for module in sorted(lines["baseline"]["modules"].keys() | lines["current"]["modules"].keys()):
        base, cur = (lines[name]["modules"].get(module, 0) for name in ("baseline", "current"))
        print(f"code lines {module:>16}: {base} -> {cur}")
    print(f"code lines {'src/ymvac':>16}: {lines['baseline']['total']} -> {lines['current']['total']}")
    for name, rec in result["import_ymvac_cli"].items():
        print(f"import ymvac.cli ({name}): {rec['median_s']:.3f} s")
    for name, rec in result["tier1_wall"].items():
        print(f"Tier-1 suite ({name}): {rec['median_s']:.1f} s wall, {rec['summary']}")
    for sub in result["cold_subcommand_wall"]["current"]:
        base, cur = (result["cold_subcommand_wall"][name][sub]["median_s"] for name in ("baseline", "current"))
        print(f"cold {sub:>16}: {base:.3f} -> {cur:.3f} s")
    for row in result["output_identity"]:
        if not row["identical"]:
            print(f"differs ({row['group']}): {' '.join(row['argv'])}, exit {row['exit']['baseline']} -> "
                  f"{row['exit']['current']}")
    same = sum(row["identical"] for row in result["output_identity"])
    print(f"identical output: {same} of {len(result['output_identity'])} argv")
    campaign = result["property_campaign"]
    for name, rec in campaign["tests"].items():
        if rec["failed_seeds"]:
            print(f"property campaign: {name} failed at seeds {rec['failed_seeds']}")
    clean = sum(not rec["failed_seeds"] for rec in campaign["tests"].values())
    print(f"property campaign: {clean} of {len(campaign['tests'])} tests pass all {len(campaign['seeds'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
