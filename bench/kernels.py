"""Per-kernel timings with accuracy figures for the topology and interference kernels.

Times six kernels, each at two problem sizes, in two source trees (a
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
  L = 1000 and 10000; accuracy: the decay exponent gap |gamma - 1|, with gamma
  the slope of log ||S|| between L/10 and L.

Each tree is timed in fresh worker processes, alternating baseline and
current for ROUNDS rounds of REPEATS calls per kernel; the JSON holds the
median over all calls, the median of IMPORTS cold `import ymvac.cli` times
with whether the import loaded scipy, and the median wall time of TIER1_RUNS
alternating runs of each tree's Tier-1 suite (`pytest -q` over the `tests/`
beside its `src/`) with its summary line.  Run from the repository root, for
example against the parent commit:

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
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3  # alternating worker processes per tree
REPEATS = 5  # timed calls per kernel in each worker, after one warm-up call
IMPORTS = 5  # cold imports of ymvac.cli per tree
TIER1_RUNS = 2  # alternating Tier-1 suite runs per tree
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


def worker() -> dict:
    """Time every kernel case in this process; `ymvac` comes from PYTHONPATH."""
    import math

    import numpy as np

    from ymvac import bps_profiles as bp, interference as itf, topology as topo
    from ymvac.cli import _parse_config

    default = topo.QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
    specs = {"48x24x24": default, "72x36x36": default.refined()}
    gauge, _ = bp.build_fields(bp.MonopoleScale(g=1.0, eps=1.0), "BPS")
    momentum = np.array(_parse_config(["interference"]).params["momentum"])

    def norm(L):
        return itf.momentum_green_average(momentum, None, L).norm()

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
    for L in (1000, 10000):
        times, value = _timed(lambda: norm(L))
        gamma = -math.log(value / norm(L // 10)) / math.log(10.0)
        cases[f"momentum_green_average/L={L}"] = (times, "decay_exponent_gap", abs(gamma - 1.0))
    return {k: {"times_s": t, "accuracy_name": a, "accuracy": v} for k, (t, a, v) in cases.items()}


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
    for name, rec in result["import_ymvac_cli"].items():
        print(f"import ymvac.cli ({name}): {rec['median_s']:.3f} s, loads scipy: {rec['loads_scipy']}")
    for name, rec in result["tier1_wall"].items():
        print(f"Tier-1 suite ({name}): {rec['median_s']:.1f} s wall, {rec['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
