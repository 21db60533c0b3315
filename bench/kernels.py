"""Per-kernel timings with accuracy figures for the stencil, topology, interference, rotator and pheno kernels.

Times thirty-one kernels, each at two problem sizes, in two source trees (a
baseline and this checkout's `src/`), and writes one JSON file:

- `map_degree` (the degree-density integral, n = 1, no refinement pass) at the
  winding report's default quadrature 48/24/24 and its `refined()` spec
  72/36/36; accuracy: the degree gap |N[1] - 1|;
- the winding report's degree sweep, n in SWEEP_N = (-2, -1, 1, 2), at the
  same two specs: one `map_degree` call over all n; accuracy: the largest gap
  |N[n] - n|;
- `winding_functional` of the BPS monopole (g = 1) at the same two specs;
  accuracy: |X[monopole]|, which is 0 exactly;
- the gauge-shifted `winding_functional`: the BPS monopole transformed by
  `GribovFactorMap(1)`, with `tail_fraction=None`, at the same two specs;
  accuracy: the shift defect |X[v(A + d)v^-1] - X[A] - 1 - surface term|;
- `surface_flux_term` of the BPS monopole and `GribovFactorMap(1)` on the
  sphere r = 300 with 48x48 and 72x72 nodes; accuracy: the gap to its closed
  form -f1(R) sin(a) cos(a)/pi, a = pi f01(R) (the flux density of two
  hedgehogs is constant on the sphere);
- `momentum_green_average` at the interference report's default momentum,
  L = 10000 and 100000; accuracy: the decay exponent gap |gamma - 1|, with
  gamma the slope of log ||S|| between L/10 and L, and beside it the relative
  2-norm gap of S at L = 1000 to the 30-digit mpmath sum
  (`resolvent_window_sums` of tests/test_interference.py);
- `QuadratureSpec.ball_nodes` at 48/24/24 and 72/36/36, called again after
  its first call (what the second to fifth node builds of a `winding` report
  cost); accuracy: the relative gap of the rule on the integral of e^-r over
  the ball, 4 pi (2 - e^-R (R^2 + 2R + 2));
- `path_green` (the winding sum) at I = 1e-6 and 1e-7, tau_E = 0.3, dN = 0.3,
  theta = 0 (10 045 and 31 755 terms) and again at theta = pi/2 (at theta = 0
  every imaginary part is 0, the cheapest row to add), and `spectral_green`
  at I = 1e4 and 1e5, tau_E = 0.01, dN = 0, theta = 0.9 (2 923 and 9 231
  terms); accuracy: the gap to `mpmath.jtheta` at 30 digits on the other
  side's nome, where the theta series converges in a few terms;
- `algebra.exact_sums` alone on the real and imaginary rows of winding terms
  at theta = pi/2, dN = 0.3: those of `path_green` at I = 1e-7 (2 x 31 755)
  and 2 x 400 001 terms (TERM_CAP) at b = 42/200000^2; accuracy: the number of
  rows whose sum differs from math.fsum's in any bit (0), and beside it the
  time of the math.fsum route it replaced (`fsum_median_s`, from the first
  worker of each tree);
- `topology._gauss_legendre`, the node build of the pheno quadratures, at
  48 nodes on [0, ln 1000] (the magnetic energy's log-radial rule) and 64
  nodes on [0, 1] (the compactified radial rule), called again after its
  first call (a tree that caches leggauss(n) maps the cached rule);
  accuracy: the relative gap of the rule on the integral of e^-t over the
  interval, 1 - e^-U;
- the three pheno quadrature companions at g = eps = 1, at their default
  node counts (48 log-radial nodes for the magnetic energy, 64 compactified
  radial nodes for the other two) and at twice them, set on the module
  constants `_MAGNETIC_NODES` and `_RADIAL_NODES` inside the worker:
  `magnetic_energy_quadrature`, accuracy its relative gap to the closed form
  truncated like the integral, 4 pi (1 - 1e-3)/(g^2 eps);
  `rotary_momentum_quadrature`, accuracy its relative gap to 4 pi^2 eps/alpha_s;
  `normalization_check`, accuracy its gap to 1;
- check-bogomolnyi's pair of residuals max ||B - D(phi)||/||B|| of the BPS
  pair (g = eps = 1) at the default step h and at h/2, at its points for
  --seed 0, N = 100 and 1000: one `bogomolnyi_residual` call in a tree where
  it returns the pair, two calls (the second at `halved()`) in a tree where
  it returns one residual; accuracy: the residual at h, and beside it the
  residual at h/2, their ratio and the number of the two residuals in which
  the trees differ (`tree_mismatches`, 0);
- `StencilConfig._gradient` of the BPS gauge sampler alone (default stencil,
  float64) at the same kind of points, N = 1000 and 27 648 (the node count
  of the winding report's default quadrature); accuracy: the largest gap to the
  closed-form gradient over the largest entry of it;
- the profile samplers `f0_bps`, `f1_bps` and `d_f01_bps` at eps = 1 on
  10^3 and 10^5 radii spaced geometrically over [1e-10, 1e5], which reach
  every branch; accuracy: the largest absolute gap to a 30-digit mpmath
  evaluation on 1000 of those radii (every one of the 10^3, every 100th of
  the 10^5);
- the BPS gauge sampler (g = eps = 1; `sample_batch` of the gauge field of
  `build_fields`), at check-bogomolnyi's kind of points, N = 1000 and
  27 648; accuracy: the number of entries unlike the np.linalg.norm/np.where
  form (`_where_hedgehog_gauge`, 0);
- `ColorField.curl` of the BPS gauge field at the winding functional's step
  (1e-3, order 4, float64), at the same kind of points, N = 4 608 (one block
  of the ball integrals) and 27 648, and `magnetic_tension` of that field in
  longdouble (default stencil) at check-bogomolnyi's points, N = 20 and
  1000; accuracy: the largest gap to the closed-form curl or tension over
  its largest entry.  Each is timed beside the same sampler without its
  vector, through the curl of the nine-component gradient
  (`generic_median_s`), with the number of entries in which the two routes
  differ (`route_mismatches`, 0);
- `algebra.norm` on the same points in their (N, 3) layout; accuracy: the
  number of values unlike np.linalg.norm's (0), and beside it the time of
  np.linalg.norm (`linalg_norm_median_s`);
- `cli._parse_config` per call, on `winding` and on an interference argv with
  two comma lists, after its first call; accuracy: the number of parsed
  fields unlike those of a parser built afresh (0);
- `interference.shifted_loop_average` at the interference report's loop_q,
  window 8 and cutoffs 2 and 4 (64^2 and 128^2 lattices); accuracy: the number
  of its three values unlike one `loop_integrand` evaluation per shift
  (`_per_shift_loop_average`, 0);
- `gribov_residual` as check-gribov calls it (g = eps = 1, order 4): the
  radii of GRIBOV_RADII (the report default) and DENSE_GRIBOV_RADII (the
  dense-stencil workload), each at h = min(r, 8)/100 and at h/2, in one call
  over all centres with an array of steps; accuracy: the smallest observed
  order log2(|res(h)|/|res(h/2)|);
- `greens.monopole_covariant_laplacian` on the greens report's tensor at
  h = z/500, at its 3 points (0, 0, r) and at 24 radii spaced geometrically
  over [0.8, 5], in one call with an array of steps; accuracy: the largest
  operator residual;
- the three pheno companions (magnetic energy, inertia, normalization) at
  g = eps = 1 with a step h = c max(r, eps) per radial node instead of
  eps/200, at c in PER_NODE_C, in one stencil pass per sampled field with an
  array of steps (no report uses this step yet); accuracy: the relative gap
  to the closed form (the truncated one for the magnetic energy).
  These last three kernels are each timed beside one call per point with a
  scalar step (`loop_median_s`, the form the batched calls replaced) and the
  number of entries in which the two differ (`loop_mismatches`, 0);
- the whole `winding` report in process (`cli.main`, output to memory) at
  default arguments and at 72/36/36; accuracy: its exit code (0).  Its
  minor page faults are among those of the `default-reports` workload below.

Each tree is timed in fresh worker processes, alternating baseline and
current for ROUNDS rounds of REPEATS calls per kernel; the JSON holds the
median over all calls, the median of IMPORTS cold `import ymvac.cli` times
with whether the import loaded scipy, and the median wall time of TIER1_RUNS
alternating runs of each tree's Tier-1 suite (`pytest -q` over the `tests/`
beside its `src/`) with its summary line.

Minor page faults (ru_minflt) are counted as the perfbench runs the reports:
for each of FAULT_WORKLOADS, ROUNDS alternating fresh processes per tree run
its reports through `cli.main` for one untimed and FAULT_PASSES counted
passes; the JSON holds each report's median and mean faults, and the faults
of each `shifted_loop_average` call.

End to end, it times COLD_RUNS alternating fresh-process runs
(`python -m ymvac.cli`, import included) of each of the eight subcommands
with default arguments, and byte-compares stdout, stderr and exit code
between the two trees (both with `--seed 0`) for those eight argv, every
argv of `perfbench/workloads.json`, the validation-error argv in
ERROR_ARGV, the off-default argv in EXTRA_ARGV and the argv in CHANGED_ARGV,
whose output may differ between trees by design; the JSON lists each argv
with its exit codes and whether the bytes are identical.

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
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3  # alternating worker processes per tree
COLD_RUNS = 3  # alternating fresh-process runs of each default subcommand per tree
REPEATS = 5  # timed calls per kernel in each worker, after one warm-up call
IMPORTS = 5  # cold imports of ymvac.cli per tree
TIER1_RUNS = 2  # alternating Tier-1 suite runs per tree
CAMPAIGN_SEEDS = range(1, 51)  # --hypothesis-seed values of the property campaign
FAULT_WORKLOADS = ("default-reports", "long-sums")  # perfbench workloads whose page faults are counted
FAULT_PASSES = 20  # counted passes over a workload's reports in each fault worker
SWEEP_N = (-2, -1, 1, 2)  # the non-zero n of the winding report's default degree sweep
GRIBOV_RADII = (2.0, 5.0, 20.0)  # check-gribov's default radii over eps
DENSE_GRIBOV_RADII = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0)  # its radii in the dense-stencil workload
GREENS_RADII = (0.8, 2.0, 5.0)  # the greens report's operator points
PER_NODE_C = (1.25e-3, 2.5e-4)  # per-node pheno steps h = c max(r, eps)
_LIST_ARGV = ("interference", "--momentum", "1.3,-0.4,0.25,0.9", "--angles", "1.0,0.2,0.5")
_FINE_WINDING_ARGV = ("winding", "--n-r", "72", "--n-theta", "36", "--n-phi", "36")
SUBCOMMANDS = ("profiles", "check-bogomolnyi", "check-gribov", "winding", "greens", "rotator", "interference",
               "pheno")
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
)
# output that may differ between the trees by design: residual norms past the
# float range, which printed a RuntimeWarning before their one JSON line
CHANGED_ARGV = (
    ("check-gribov", "--eps", "1e-100"),
    ("check-gribov", "--radii-over-eps", "1e-300,2"),
    # residual norms at the rounding floor (0): the strict-JSON refusal of an
    # infinite observed order (both norms 0), and the exit 2 "math domain
    # error" of log2(0) (the norm at h alone 0), became a line that names
    # the radius
    ("check-gribov", "--radii-over-eps", "1e300"),
    ("check-gribov", "--radii-over-eps", "5e143"),
    # a step so small that the first-derivative weights overflow: RuntimeWarnings
    # and an exit 3 on a nan, now one validation line that names the step
    ("check-bogomolnyi", "--eps", "1e-10", "--inv-h-over-eps", "1e300"),
    ("check-gribov", "--eps", "1e-10", "--inv-h-over-r", "1e300"),
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
)
IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import ymvac.cli\n"
    "print(repr(time.perf_counter() - t), 'scipy' in sys.modules)\n"
)


def _timed(fn):
    """Seconds of each of REPEATS calls (after one warm-up call) and the last value."""
    value = fn()
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        value = fn()
        times.append(perf_counter() - t)
    return times, value


def _jtheta_spectral(prm) -> complex:
    """The Green function through mpmath.jtheta on the spectral nome e^(-4 pi^2 a)."""
    import mpmath

    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        a = te / (2 * I)
        z = mpmath.pi * dn + 2j * mpmath.pi * a * th
        pref = mpmath.exp(1j * th * dn - a * th**2) / (2 * mpmath.pi)
        return complex(pref * mpmath.jtheta(3, z, mpmath.exp(-4 * mpmath.pi**2 * a)))


def _jtheta_winding(prm) -> complex:
    """The Green function through mpmath.jtheta on the winding nome e^(-b), b = I/(2 tau_E)."""
    import mpmath

    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        b = I / (2 * te)
        pref = mpmath.sqrt(I / (8 * mpmath.pi**3 * te)) * mpmath.exp(-b * dn**2)
        return complex(pref * mpmath.jtheta(3, -th / 2 + 1j * b * dn, mpmath.exp(-b)))


def _fsum_rows(rows) -> list:
    """The route exact_sums replaced: math.fsum of each row, from a contiguous copy."""
    import math

    import numpy as np

    return [math.fsum(memoryview(np.ascontiguousarray(row))) for row in rows]


def _linalg_norm(v):
    """The route algebra.norm replaced: np.linalg.norm over the first axis."""
    import numpy as np

    return np.linalg.norm(v, axis=0)


def _where_hedgehog_gauge(pts, g, radial_f):
    """The BPS gauge sampler as it was first written, with np.linalg.norm and
    two np.where (the reference of its bits)."""
    import numpy as np

    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    x = pts * np.where(r > 0, radial_f(r) / (g * safe**2), 0.0)[:, None]
    A = np.zeros((len(pts), 3, 3), dtype=x.dtype)
    A[:, 0, 1], A[:, 1, 2], A[:, 2, 0] = x[:, 2], x[:, 0], x[:, 1]
    A[:, 1, 0], A[:, 2, 1], A[:, 0, 2] = -x[:, 2], -x[:, 0], -x[:, 1]
    return A


def _per_shift_loop_average(itf, q, cutoff, L):
    """shifted_loop_average as one loop_integrand evaluation per window shift
    (the reference of its bits)."""
    import math

    import numpy as np

    h = itf.BASE_SPACING
    n_side = int(round(2.0 * cutoff / h))
    ax = (np.arange(n_side) - n_side / 2 + 0.5) * h
    P1, P2 = np.meshgrid(ax, ax, indexing="ij")
    sums = {int(n): float(np.sum(itf.loop_integrand(P1 + n * h, P2, q, itf.REGULATOR_MASS))) * h**2
            for n in itf.window_integers(L)}
    averaged = math.fsum(sums.values()) / len(sums)
    return averaged, sums[0], averaged - sums[0]


def _minflt() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fault_worker(workload: str) -> dict:
    """Minor page faults of each report of a perfbench workload, and of each
    shifted_loop_average call, run in process as the perfbench runs them:
    one untimed pass, then FAULT_PASSES counted passes."""
    from ymvac import cli, interference as itf

    with open(ROOT / "perfbench" / "workloads.json", encoding="utf-8") as fh:
        reports = [tuple(a) for a in json.load(fh)[workload]["reports"]]
    for argv in reports:
        _quiet_main(cli.main, [*argv, "--seed", "1"])
    loop, loop_faults = itf.shifted_loop_average, []

    def counted(*args, **kwargs):
        before = _minflt()
        try:
            return loop(*args, **kwargs)
        finally:
            loop_faults.append(_minflt() - before)

    itf.shifted_loop_average = counted  # the interference report calls it through the module
    per_report = {argv: [] for argv in reports}
    for _ in range(FAULT_PASSES):
        for argv in reports:
            before = _minflt()
            _quiet_main(cli.main, [*argv, "--seed", "1"])
            per_report[argv].append(_minflt() - before)
    return {
        "reports": {" ".join(argv): faults for argv, faults in per_report.items()},
        "shifted_loop_average": loop_faults,
    }


def fault_counts(trees: dict) -> dict:
    """Minor faults per report and per shifted_loop_average call in each tree,
    pooled over ROUNDS alternating fresh processes per workload."""
    out = {}
    for workload in FAULT_WORKLOADS:
        pooled = {name: {"reports": {}, "shifted_loop_average": []} for name in trees}
        for _ in range(ROUNDS):
            for name, src in trees.items():
                rec = json.loads(_run(src, [__file__, "--faults", workload]))
                for argv, faults in rec["reports"].items():
                    pooled[name]["reports"].setdefault(argv, []).extend(faults)
                pooled[name]["shifted_loop_average"] += rec["shifted_loop_average"]
        out[workload] = {
            name: {
                "reports": {argv: {"median": statistics.median(f), "mean": statistics.mean(f), "samples": len(f)}
                            for argv, f in rec["reports"].items()},
                "shifted_loop_average": {
                    "calls": len(rec["shifted_loop_average"]),
                    "faulting_calls": sum(f > 0 for f in rec["shifted_loop_average"]),
                    "mean": statistics.mean(rec["shifted_loop_average"]) if rec["shifted_loop_average"] else 0,
                },
            }
            for name, rec in pooled.items()
        }
    return out


def _quiet_main(main, argv) -> int:
    """Exit code of one in-process CLI run, its report written to memory."""
    import io
    from contextlib import redirect_stdout

    with redirect_stdout(io.StringIO()):
        return main(argv)


def _bogomolnyi_pair(bp, scale, pts) -> tuple:
    """The residuals at the default step h and at h/2: one call where
    bogomolnyi_residual returns the pair, else a second call at h/2."""
    stencil = bp.default_stencil(scale)
    pair = bp.bogomolnyi_residual(scale, pts, stencil)
    return pair if isinstance(pair, tuple) else (pair, bp.bogomolnyi_residual(scale, pts, stencil.halved()))


def _bps_gauge_gradient(pts):
    """d_j A_i^a, [n][j][i][a], of the BPS gauge field at g = eps = 1 from its
    closed form A_i^a = eps_{iak} x_k c(r), c = f1(r)/r^2."""
    import numpy as np

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
    import numpy as np

    r = np.linalg.norm(pts, axis=1)
    f1 = 1.0 - r / np.sinh(r)
    df1 = (r * np.cosh(r) - np.sinh(r)) / np.sinh(r) ** 2
    nn = pts[:, :, None] * pts[:, None, :] / (r * r)[:, None, None]
    return (df1 / r)[:, None, None] * (np.eye(3) - nn) + ((2.0 * f1 - f1 * f1) / (r * r))[:, None, None] * nn


def _profile_gaps(r, values) -> dict:
    """Largest absolute gap of each sampler's values to 30-digit mpmath at
    eps = 1, over every (len(r) // 1000)-th radius."""
    import math

    import mpmath

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


def _mismatches(a, b) -> int:
    """Entries of two equally shaped arrays (or tuples of them) that differ
    in value or in the sign of zero."""
    import numpy as np

    if isinstance(a, tuple):
        return sum(_mismatches(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return int(np.sum((a != b) | (np.signbit(a) != np.signbit(b))))


def _gribov_radii(bp, unit, radii_over_eps, batched):
    """check-gribov's residuals at radii r (eps = 1) with h = min(r, 8)/100 and
    at h/2, (2M, 3): one gribov_residual call over all 2M centres, or (the
    form it replaced) one call per centre."""
    import numpy as np

    r = np.array(radii_over_eps, dtype=float)
    h = np.minimum(r, 8.0) / 100.0
    centres = np.outer(np.concatenate([r, r]), (0.0, 0.0, 1.0))
    steps = np.concatenate([h, h / 2.0])
    if batched:
        return bp.gribov_residual(unit, centres, bp.StencilConfig(steps, 4))
    return np.stack([bp.gribov_residual(unit, x, bp.StencilConfig(float(hx), 4)) for x, hx in zip(centres, steps)])


def _greens_operator(greens, radii, batched):
    """The greens report's operator on its tensor at points (0, 0, r) with
    h = z/500: one call over all points, or one call per point."""
    import math

    import numpy as np

    s0 = greens.golden_solution(0, -1.0 / (4.0 * math.pi), 0.0)
    G = greens.GreenTensor(s0, greens.golden_solution(1, 1.0 / (4.0 * math.pi), 1.0))
    y = np.array([0.0, 0.0, 1e-6])
    x = np.outer(radii, (0.0, 0.0, 1.0))
    h = np.array([np.linalg.norm(xi - y) for xi in x]) / 500.0

    def S(P):
        return G.evaluate(P, y)

    if batched:
        return greens.monopole_covariant_laplacian(S, x, h=h)
    return np.stack([greens.monopole_covariant_laplacian(S, xi, h=float(hi)) for xi, hi in zip(x, h)])


def _per_node_companion(bp, pheno, topo, unit, name, c, batched):
    """A pheno quadrature companion (magnetic_energy, rotary_momentum or
    normalization) at g = eps = 1 with the step h = c max(r, eps) at each
    radial node instead of eps/200, from one stencil pass with an array of
    steps or one pass per node; its value and the B and D(Phi0) samples it
    was summed from."""
    import math

    import numpy as np

    def on_nodes(op, fields, r):
        x = np.outer(r, (0.0, 0.0, 1.0))
        h = c * np.maximum(r, unit.eps)
        if batched:
            return op(*fields, x, bp.StencilConfig(h, 4), unit.g)
        return np.stack([op(*fields, xi, bp.StencilConfig(float(hi), 4), unit.g) for xi, hi in zip(x, h)])

    if name == "magnetic_energy":
        t, w = topo._gauss_legendre(pheno._MAGNETIC_NODES, math.log(pheno._MAGNETIC_R_MAX_OVER_EPS))
        r = unit.eps * np.exp(t)
        B = on_nodes(bp.magnetic_tension, bp.build_fields(unit, "WuYangPlus")[:1], r)
        return pheno._shell_sum(w, list(r), 3, B, B), B
    r, w = topo._compactified_radial(pheno._RADIAL_NODES, unit.eps)
    gauge, _ = bp.build_fields(unit, "BPS")
    D = on_nodes(bp.covariant_derivative, (gauge, bp.zero_mode_scalar(unit)), r)
    if name == "rotary_momentum":
        return pheno._shell_sum(w, r, 2, D, D), D
    B = on_nodes(bp.magnetic_tension, (gauge,), r)
    return unit.g**2 / (8.0 * math.pi**2) * pheno._shell_sum(w, r, 2, D, B), D, B


def worker() -> dict:
    """Time every kernel case in this process; `ymvac` comes from PYTHONPATH."""
    import math

    import numpy as np

    from ymvac import algebra, bps_profiles as bp, cli, greens, interference as itf, pheno, rotator as rot
    from ymvac import topology as topo
    from ymvac.cli import _parse_config

    sys.path.insert(0, str(ROOT / "tests"))
    from test_interference import resolvent_window_sums

    default = topo.QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
    specs = {"48x24x24": default, "72x36x36": default.refined()}
    gauge, _ = bp.build_fields(bp.MonopoleScale(g=1.0, eps=1.0), "BPS")
    momentum = np.array(_parse_config(["interference"]).params["momentum"])

    def average(L):
        return itf.momentum_green_average(momentum, None, L)

    def norm(L):
        return float(np.linalg.norm(average(L), 2))

    fmap = topo.GribovFactorMap(1)
    shifted = topo.gauge_transform(gauge, fmap, 1.0)

    def surface(n_nodes):
        return topo.surface_flux_term(gauge, fmap, 1.0, default.r_max, n_theta=n_nodes, n_phi=n_nodes)

    a = math.pi * bp.f01_bps(default.r_max, 1.0)
    surface_exact = -bp.f1_bps(default.r_max, 1.0) * math.sin(a) * math.cos(a) / math.pi

    cases = {}
    for size, quad in specs.items():
        times, deg = _timed(lambda: topo.map_degree(1, quad, check_resolution=False))
        cases[f"map_degree/{size}"] = (times, "degree_gap", abs(deg - 1.0))
        times, degrees = _timed(lambda: list(topo.map_degree(SWEEP_N, quad, check_resolution=False)))
        cases[f"degree_sweep/{size}"] = (times, "largest_degree_gap", max(abs(d - n) for n, d in zip(SWEEP_N, degrees)))
        times, x = _timed(lambda: topo.winding_functional(gauge, quad, 1.0))
        cases[f"winding_functional/{size}"] = (times, "abs_winding_of_monopole", abs(x))
        times, xs = _timed(lambda: topo.winding_functional(shifted, quad, 1.0, tail_fraction=None))
        defect = abs(xs - x - 1.0 - surface(48))
        cases[f"gauge_shifted_winding/{size}"] = (times, "shift_defect", defect)
    for n_nodes in (48, 72):
        times, value = _timed(lambda: surface(n_nodes))
        cases[f"surface_flux_term/{n_nodes}x{n_nodes}"] = (times, "closed_form_gap", abs(value - surface_exact))
    oracle = resolvent_window_sums(tuple(momentum), (1000,))[1000]
    s_1000 = average(1000)
    mpmath_gap = float(np.linalg.norm(s_1000 - oracle, 2) / np.linalg.norm(oracle, 2))
    extra = {}  # second accuracy figures, by case
    for L in (10000, 100000):
        times, value = _timed(lambda: norm(L))
        gamma = -math.log(value / norm(L // 10)) / math.log(10.0)
        cases[f"momentum_green_average/L={L}"] = (times, "decay_exponent_gap", abs(gamma - 1.0))
        extra[f"momentum_green_average/L={L}"] = {"mpmath_gap_L1000": mpmath_gap}
    for size, quad in specs.items():
        times, (pts, wts) = _timed(lambda: quad.ball_nodes(1.0))
        exact = 4.0 * math.pi * (2.0 - math.exp(-quad.r_max) * (quad.r_max**2 + 2.0 * quad.r_max + 2.0))
        gap = abs(np.sum(wts * np.exp(-np.linalg.norm(pts, axis=1))) / exact - 1.0)
        cases[f"ball_nodes/{size}"] = (times, "exp_integral_gap", gap)
    for theta, label in ((0.0, ""), (math.pi / 2, ",theta=pi_2")):
        for inertia in (1e-6, 1e-7):
            prm = rot.RotatorParams.euclidean(inertia, theta, 0.3, 0.3)
            times, value = _timed(lambda: rot.path_green(prm))
            cases[f"path_green/I={inertia:g}{label}"] = (times, "jtheta_gap", abs(value - _jtheta_spectral(prm)))
    b_path = 1e-7 / (2.0 * 0.3)  # path_green's b at I = 1e-7, tau_E = 0.3
    for n_max, b in ((rot._path_n_max(b_path, 0.3), b_path), (rot.TERM_CAP // 2, 42.0 / 200000**2)):
        n = np.arange(-n_max, n_max + 1)
        terms = np.exp(-1j * (math.pi / 2) * n - b * ((0.3 + n) * (0.3 + n)))
        rows = (terms.real, terms.imag)
        times, sums = _timed(lambda: algebra.exact_sums(rows))
        fsum_times, ref = _timed(lambda: _fsum_rows(rows))
        mismatches = sum(a.hex() != r.hex() for a, r in zip(sums, ref))
        cases[f"exact_sums/2x{n.size}"] = (times, "fsum_mismatches", mismatches)
        extra[f"exact_sums/2x{n.size}"] = {"fsum_median_s": statistics.median(fsum_times)}
    for inertia in (1e4, 1e5):
        prm = rot.RotatorParams.euclidean(inertia, 0.9, 0.01, 0.0)
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
        times, value = _timed(lambda: pheno.rotary_momentum_quadrature(unit))
        cases[f"rotary_momentum_quadrature/{pheno._RADIAL_NODES}_nodes"] = (
            times, "closed_form_gap", abs(value / inertia - 1.0))
        times, value = _timed(lambda: pheno.normalization_check(unit))
        cases[f"normalization_check/{pheno._RADIAL_NODES}_nodes"] = (times, "unity_gap", abs(value - 1.0))
    pheno._MAGNETIC_NODES, pheno._RADIAL_NODES = nodes

    bogo = _parse_config(["check-bogomolnyi"]).params

    def report_points(n):  # check-bogomolnyi's points for --seed 0
        rng = np.random.default_rng(0)
        radii = np.linspace(bogo["r_lo_over_eps"], bogo["r_hi_over_eps"], n) * bogo["eps"]
        dirs = rng.normal(size=(n, 3))
        return radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]

    for n in (100, 1000):
        pts = report_points(n)
        times, pair = _timed(lambda: _bogomolnyi_pair(bp, unit, pts))
        cases[f"bogomolnyi_pair/N={n}"] = (times, "max_relative_residual", pair[0])
        extra[f"bogomolnyi_pair/N={n}"] = {"residual_half_h": pair[1], "refinement_ratio": pair[0] / pair[1],
                                           "pair": list(pair)}
    stencil = bp.default_stencil(unit)
    for n in (1000, 27648):
        pts = report_points(n)
        times, A = _timed(lambda: gauge.sample_batch(pts))
        ref = _where_hedgehog_gauge(pts, 1.0, lambda r: bp.f1_bps(r, 1.0))
        cases[f"hedgehog_gauge/N={n}"] = (times, "where_form_mismatches", int(np.sum(A != ref)))
        times, value = _timed(lambda: algebra.norm(pts.T))  # the (N, 3) layout of every node batch
        linalg_times, ref = _timed(lambda: _linalg_norm(pts.T))
        cases[f"norm/N={n}"] = (times, "linalg_norm_mismatches", int(np.sum(value != ref)))
        extra[f"norm/N={n}"] = {"linalg_norm_median_s": statistics.median(linalg_times)}
    for n in (1000, 27648):
        pts = report_points(n)
        times, dA = _timed(lambda: stencil._gradient(gauge.sample_batch, pts))
        exact = _bps_gauge_gradient(pts)
        gap = float(np.max(np.abs(dA - exact)) / np.max(np.abs(exact)))
        cases[f"stencil_gradient/N={n}"] = (times, "relative_gap_to_closed_form", gap)
    # the curl by the hedgehog's vector beside the curl of the nine-component
    # gradient, of the same sampler without its vector
    nine = bp.ColorField(gauge.sample_batch, gauge.singular_origin, gauge.label)

    def beside_generic(case, route, exact):
        times, value = _timed(lambda: route(gauge))
        generic_times, ref = _timed(lambda: route(nine))
        cases[case] = (times, "closed_form_gap", float(np.max(np.abs(value - exact)) / np.max(np.abs(exact))))
        extra[case] = {"generic_median_s": statistics.median(generic_times), "route_mismatches": _mismatches(value, ref)}

    winding_stencil = bp.StencilConfig(1e-3, 4)
    for n in (4608, 27648):
        pts = report_points(n)
        exact = np.einsum("ijk,njka->nia", algebra.EPS3, _bps_gauge_gradient(pts))
        beside_generic(f"color_field_curl/N={n}", lambda field: field.curl(winding_stencil, pts), exact)
    for n in (20, 1000):
        pts = report_points(n).astype(np.longdouble)
        beside_generic(f"magnetic_tension_longdouble/N={n}", lambda field: bp.magnetic_tension(field, pts, stencil, 1.0),
                       _bps_tension(pts.astype(float)))
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
        ref = _per_shift_loop_average(itf, q, cutoff, 8)
        cases[f"shifted_loop_average/cutoff={cutoff:g}"] = (
            times, "per_shift_mismatches", sum(a.hex() != b.hex() for a, b in zip(value, ref)))
    # batched stencil passes, each beside one call per point (`loop_median_s`)
    # and the number of entries in which the two differ (`loop_mismatches`)
    def beside_loop(case, route, accuracy_name, accuracy):
        times, value = _timed(lambda: route(True))
        loop_times, ref = _timed(lambda: route(False))
        cases[case] = (times, accuracy_name, accuracy(value))
        extra[case] = {"loop_median_s": statistics.median(loop_times), "loop_mismatches": _mismatches(value, ref)}

    def min_order(res):  # the report's smallest log2(|res(h)| / |res(h/2)|) over the radii
        norms = [float(np.linalg.norm(v)) for v in res]
        m = len(norms) // 2
        return min(math.log2(a / b) for a, b in zip(norms[:m], norms[m:]))

    for radii in (GRIBOV_RADII, DENSE_GRIBOV_RADII):
        beside_loop(f"gribov_residual/{len(radii)}x2_centres", lambda b: _gribov_radii(bp, unit, radii, b),
                    "min_observed_order", min_order)
    for radii in (GREENS_RADII, np.geomspace(0.8, 5.0, 24)):
        beside_loop(f"monopole_covariant_laplacian/{len(radii)}_points", lambda b: _greens_operator(greens, radii, b),
                    "max_operator_residual", lambda res: float(np.abs(res).max()))
    # ROADMAP item 2's per-node step h = c max(r, eps) for the pheno companions
    references = {"magnetic_energy": truncated, "rotary_momentum": inertia, "normalization": 1.0}
    for c in PER_NODE_C:
        for name, ref_value in references.items():
            beside_loop(f"{name}_per_node_step/c={c:g}",
                        lambda b: _per_node_companion(bp, pheno, topo, unit, name, c, b),
                        "closed_form_gap", lambda value: abs(value[0] / ref_value - 1.0))
    for label, argv in (("default", ["winding"]), ("72x36x36", list(_FINE_WINDING_ARGV))):
        times, code = _timed(lambda: _quiet_main(cli.main, argv))
        cases[f"winding_report/{label}"] = (times, "exit_code", code)
    return {
        case: {"times_s": times, "accuracy_name": name, "accuracy": value, **extra.get(case, {})}
        for case, (times, name, value) in cases.items()
    }


def _run(src: Path, args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
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
    """Median of COLD_RUNS fresh-process wall times of each default subcommand."""
    times = {name: {sub: [] for sub in SUBCOMMANDS} for name in trees}
    for _ in range(COLD_RUNS):
        for sub in SUBCOMMANDS:
            for name, src in trees.items():
                times[name][sub].append(_cli(src, [sub], ROOT)[0])
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
    groups += [("error", ERROR_ARGV), ("extra", EXTRA_ARGV), ("changed", CHANGED_ARGV)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for group, argvs in groups:
            for argv in argvs:
                out = {}
                for name, src in trees.items():
                    cwd = Path(tmp) / name
                    cwd.mkdir(exist_ok=True)
                    out[name] = _cli(src, [*argv, "--seed", "0"], cwd)[1]
                rows.append({
                    "group": group,
                    "argv": list(argv),
                    "exit": {name: rec["exit"] for name, rec in out.items()},
                    "identical": out["baseline"] == out["current"],
                })
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
    scipy_loaded = {}
    for _ in range(ROUNDS):
        for name, src in trees.items():
            out = json.loads(_run(src, [__file__, "--worker"]))
            for case, rec in out.items():
                acc = samples[name].setdefault(case, {**rec, "times_s": []})
                acc["times_s"] += rec["times_s"]
    for _ in range(IMPORTS):
        for name, src in trees.items():
            seconds, loaded = _run(src, ["-c", IMPORT_CODE]).split()
            import_s[name].append(float(seconds))
            scipy_loaded[name] = loaded == "True"
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
            row[name] = {
                "median_s": statistics.median(rec["times_s"]),
                "samples": len(rec["times_s"]),
                "accuracy": rec["accuracy"],
                **{k: v for k, v in rec.items() if k not in ("times_s", "accuracy_name", "accuracy")},
            }
        row["speedup"] = row["baseline"]["median_s"] / row["current"]["median_s"]
        if "pair" in row["current"]:
            row["tree_mismatches"] = _mismatches(*(tuple(row[name]["pair"]) for name in trees))
        kernels.append(row)
    return {
        "kernels": kernels,
        "import_ymvac_cli": {
            name: {"median_s": statistics.median(import_s[name]), "samples": IMPORTS,
                   "loads_scipy": scipy_loaded[name]}
            for name in trees
        },
        "tier1_wall": {
            name: {"median_s": statistics.median(tier1_s[name]), "samples": TIER1_RUNS,
                   "summary": tier1_summary[name]}
            for name in trees
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--faults", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.faults:
        print(json.dumps(fault_worker(args.faults)))
        return 0
    if args.baseline is None or args.out is None:
        ap.error("--baseline and --out are required")
    trees = {"baseline": args.baseline.resolve(), "current": ROOT / "src"}
    for src in trees.values():
        if not (src / "ymvac" / "__init__.py").is_file():
            ap.error(f"{src} has no ymvac package")
    result = measure(trees)
    result["cold_subcommand_wall"] = cold_subcommands(trees)
    result["minor_faults"] = fault_counts(trees)
    result["output_identity"] = compare_outputs(trees)
    result["property_campaign"] = property_campaign()
    import numpy as np

    result["settings"] = {
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "statistic": "median over rounds x repeats timed calls, each tree in fresh alternating processes",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for row in result["kernels"]:
        print(f"{row['kernel']:>24} {row['size']:>9}: {row['baseline']['median_s'] * 1e3:8.2f} -> "
              f"{row['current']['median_s'] * 1e3:8.2f} ms ({row['speedup']:.2f}x); {row['accuracy_name']} "
              f"{row['baseline']['accuracy']:.3e} -> {row['current']['accuracy']:.3e}")
        if "mpmath_gap_L1000" in row["current"]:
            print(f"{'':>36}mpmath_gap_L1000 {row['baseline']['mpmath_gap_L1000']:.3e} -> "
                  f"{row['current']['mpmath_gap_L1000']:.3e}")
        if "fsum_median_s" in row["current"]:
            print(f"{'':>36}math.fsum route {row['current']['fsum_median_s'] * 1e3:.2f} ms")
        if "linalg_norm_median_s" in row["current"]:
            print(f"{'':>36}np.linalg.norm route {row['current']['linalg_norm_median_s'] * 1e3:.3f} ms")
        if "generic_median_s" in row["current"]:
            print(f"{'':>36}nine-component route {row['baseline']['generic_median_s'] * 1e3:.2f} -> "
                  f"{row['current']['generic_median_s'] * 1e3:.2f} ms, mismatches {row['current']['route_mismatches']}")
        if "tree_mismatches" in row:
            print(f"{'':>36}residual at h/2 {row['current']['residual_half_h']:.3e}, ratio "
                  f"{row['current']['refinement_ratio']:.2f}, tree mismatches {row['tree_mismatches']}")
        if "loop_median_s" in row["current"]:
            print(f"{'':>36}one call per point {row['baseline']['loop_median_s'] * 1e3:.2f} -> "
                  f"{row['current']['loop_median_s'] * 1e3:.2f} ms, mismatches {row['current']['loop_mismatches']}")
    for name, rec in result["import_ymvac_cli"].items():
        print(f"import ymvac.cli ({name}): {rec['median_s']:.3f} s, loads scipy: {rec['loads_scipy']}")
    for name, rec in result["tier1_wall"].items():
        print(f"Tier-1 suite ({name}): {rec['median_s']:.1f} s wall, {rec['summary']}")
    for sub in SUBCOMMANDS:
        base, cur = (result["cold_subcommand_wall"][name][sub]["median_s"] for name in ("baseline", "current"))
        print(f"cold {sub:>16}: {base:.3f} -> {cur:.3f} s")
    for workload, per_tree in result["minor_faults"].items():
        base, cur = per_tree["baseline"], per_tree["current"]
        for argv, rec in cur["reports"].items():
            print(f"minor faults per report ({workload}) {argv}: median {base['reports'][argv]['median']:g} -> "
                  f"{rec['median']:g}, mean {base['reports'][argv]['mean']:.1f} -> {rec['mean']:.1f}")
        if cur["shifted_loop_average"]["calls"]:
            b, c = base["shifted_loop_average"], cur["shifted_loop_average"]
            print(f"minor faults per shifted_loop_average call ({workload}): mean {b['mean']:.1f} -> "
                  f"{c['mean']:.1f}, faulting calls {b['faulting_calls']}/{b['calls']} -> "
                  f"{c['faulting_calls']}/{c['calls']}")
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
