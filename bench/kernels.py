"""Per-kernel timings with accuracy figures for the topology, interference, rotator and pheno kernels.

Times twelve kernels, each at two problem sizes, in two source trees (a
baseline and this checkout's `src/`), and writes one JSON file:

- `map_degree` (the degree-density integral, n = 1, no refinement pass) at the
  winding report's default quadrature 48/24/24 and its `refined()` spec
  72/36/36; accuracy: the degree gap |N[1] - 1|;
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
  theta = 0 (10 045 and 31 755 terms), and `spectral_green` at I = 1e4 and
  1e5, tau_E = 0.01, dN = 0, theta = 0.9 (2 923 and 9 231 terms); accuracy:
  the gap to `mpmath.jtheta` at 30 digits on the other side's nome, where the
  theta series converges in a few terms;
- the three pheno quadrature companions at g = eps = 1, at their default
  node counts (48 log-radial nodes for the magnetic energy, 64 compactified
  radial nodes for the other two) and at twice them, set on the module
  constants `_MAGNETIC_NODES` and `_RADIAL_NODES` inside the worker:
  `magnetic_energy_quadrature`, accuracy its relative gap to the closed form
  truncated like the integral, 4 pi (1 - 1e-3)/(g^2 eps);
  `rotary_momentum_quadrature`, accuracy its relative gap to 4 pi^2 eps/alpha_s;
  `normalization_check`, accuracy its gap to 1.

Each tree is timed in fresh worker processes, alternating baseline and
current for ROUNDS rounds of REPEATS calls per kernel; the JSON holds the
median over all calls, the median of IMPORTS cold `import ymvac.cli` times
with whether the import loaded scipy, and the median wall time of TIER1_RUNS
alternating runs of each tree's Tier-1 suite (`pytest -q` over the `tests/`
beside its `src/`) with its summary line.

End to end, it times COLD_RUNS alternating fresh-process runs
(`python -m ymvac.cli`, import included) of each of the eight subcommands
with default arguments, and byte-compares stdout, stderr and exit code
between the two trees (both with `--seed 0`) for those eight argv, every
argv of `perfbench/workloads.json`, the validation-error argv in
ERROR_ARGV and the argv in CHANGED_ARGV, whose output may differ between
trees by design; the JSON lists each argv with its exit codes and whether
the bytes are identical.  Run from the repository root, for example against
the parent commit:

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

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3  # alternating worker processes per tree
COLD_RUNS = 3  # alternating fresh-process runs of each default subcommand per tree
REPEATS = 5  # timed calls per kernel in each worker, after one warm-up call
IMPORTS = 5  # cold imports of ymvac.cli per tree
TIER1_RUNS = 2  # alternating Tier-1 suite runs per tree
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
)
# an empty constants path and the retired volume key, now refused (were exit
# 0); greens coefficients whose potential or operator leaves the floats, now
# refused naming the coefficient or the operator (were warnings and exit 3)
CHANGED_ARGV = (
    ("pheno", "--constants", ""),
    ("pheno", "--set", "volume=1"),
    ("greens", "--c1", "1e308"),
    ("greens", "--d1", "1e308"),
    ("greens", "--c1", "1e305"),
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


def worker() -> dict:
    """Time every kernel case in this process; `ymvac` comes from PYTHONPATH."""
    import math

    import numpy as np

    from ymvac import bps_profiles as bp, interference as itf, pheno, rotator as rot, topology as topo
    from ymvac.cli import _parse_config

    sys.path.insert(0, str(ROOT / "tests"))
    from test_interference import resolvent_window_sums

    default = topo.QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
    specs = {"48x24x24": default, "72x36x36": default.refined()}
    gauge, _ = bp.build_fields(bp.MonopoleScale(g=1.0, eps=1.0), "BPS")
    momentum = np.array(_parse_config(["interference"]).params["momentum"])

    def average(L):  # an (8, 8) ndarray, or an object holding it in `.m` in older trees
        S = itf.momentum_green_average(momentum, None, L)
        return getattr(S, "m", S)

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
    for inertia in (1e-6, 1e-7):
        prm = rot.RotatorParams.euclidean(inertia, 0.0, 0.3, 0.3)
        times, value = _timed(lambda: rot.path_green(prm))
        cases[f"path_green/I={inertia:g}"] = (times, "jtheta_gap", abs(value - _jtheta_spectral(prm)))
    for inertia in (1e4, 1e5):
        prm = rot.RotatorParams.euclidean(inertia, 0.9, 0.01, 0.0)
        times, value = _timed(lambda: rot.spectral_green(prm))
        cases[f"spectral_green/I={inertia:g}"] = (times, "jtheta_gap", abs(value - _jtheta_winding(prm)))
    unit = bp.MonopoleScale(g=1.0, eps=1.0)
    truncated = pheno.magnetic_energy(unit) * (1.0 - 1.0 / pheno._MAGNETIC_R_MAX_OVER_EPS)
    inertia = pheno.rotary_momentum(unit)
    # older trees pick the inertia quadrature with rotary_momentum(scale, method="quadrature")
    inertia_quadrature = getattr(pheno, "rotary_momentum_quadrature", None) or (
        lambda scale: pheno.rotary_momentum(scale, method="quadrature"))
    nodes = pheno._MAGNETIC_NODES, pheno._RADIAL_NODES
    for factor in (1, 2):
        pheno._MAGNETIC_NODES, pheno._RADIAL_NODES = (n * factor for n in nodes)
        times, value = _timed(lambda: pheno.magnetic_energy_quadrature(unit))
        cases[f"magnetic_energy_quadrature/{pheno._MAGNETIC_NODES}_nodes"] = (
            times, "truncated_closed_form_gap", abs(value / truncated - 1.0))
        times, value = _timed(lambda: inertia_quadrature(unit))
        cases[f"rotary_momentum_quadrature/{pheno._RADIAL_NODES}_nodes"] = (
            times, "closed_form_gap", abs(value / inertia - 1.0))
        times, value = _timed(lambda: pheno.normalization_check(unit))
        cases[f"normalization_check/{pheno._RADIAL_NODES}_nodes"] = (times, "unity_gap", abs(value - 1.0))
    pheno._MAGNETIC_NODES, pheno._RADIAL_NODES = nodes
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
    groups += [("error", ERROR_ARGV), ("changed", CHANGED_ARGV)]
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
    result["cold_subcommand_wall"] = cold_subcommands(trees)
    result["output_identity"] = compare_outputs(trees)
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
    for name, rec in result["import_ymvac_cli"].items():
        print(f"import ymvac.cli ({name}): {rec['median_s']:.3f} s, loads scipy: {rec['loads_scipy']}")
    for name, rec in result["tier1_wall"].items():
        print(f"Tier-1 suite ({name}): {rec['median_s']:.1f} s wall, {rec['summary']}")
    for sub in SUBCOMMANDS:
        base, cur = (result["cold_subcommand_wall"][name][sub]["median_s"] for name in ("baseline", "current"))
        print(f"cold {sub:>16}: {base:.3f} -> {cur:.3f} s")
    for row in result["output_identity"]:
        if not row["identical"]:
            print(f"differs ({row['group']}): {' '.join(row['argv'])}, exit {row['exit']['baseline']} -> "
                  f"{row['exit']['current']}")
    same = sum(row["identical"] for row in result["output_identity"])
    print(f"identical output: {same} of {len(result['output_identity'])} argv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
