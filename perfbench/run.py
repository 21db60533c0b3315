"""Benchmark of the ymvac command line, run in process as a closed loop.

    python3 perfbench/run.py --workload default-reports --seed 1 --seconds 30 --trace 0

One client runs the workload's reports (argv lists in perfbench/workloads.json,
each given `--seed <seed>`) through `ymvac.cli.main` in this process; the next
report starts only after the previous one has returned.  Report output goes to
memory.  After one untimed warm-up pass, passes over the reports repeat until
`--seconds` have elapsed.

Every report is checked: its exit code against its `checks`, the payload
schema and seed, and the SHA-256 of its output against the warm-up pass.  A
report fails on an exit code other than 0, a failed check or a changed
payload.  The run is incorrect when a payload is malformed, an exit code
disagrees with the checks, a report raises or exits 2, or a payload changes
between passes.

`--trace 0` prints the end-to-end metrics.  Pass times are reported in ref_s:
wall seconds scaled by a machine-speed probe timed beside every pass
(calibration.py); setup_s is plain wall time.  `--trace 1` alternates untraced
passes with passes traced by perfbench/tracer.py and prints the per-layer
metrics; the spans are written to perfbench/out/ when the run ends.  The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported, here and in the set-up subprocesses: numpy's
# OpenBLAS would otherwise start up to 64 threads on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibration import REFERENCE_PROBE_S, probe_seconds  # noqa: E402
from tracer import LAYERS, Tracer, function_stats, write_spans  # noqa: E402

SETUP_RUNS = 5  # timed fresh-interpreter imports, after one untimed one
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10  # pass_s_tail leaves this many passes above it
DIGITS_CAP = 16.0

END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/ref_s",
    "pass_s_p50": "ref_s",
    "pass_s_tail": "ref_s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "accuracy_digits": "digits",
}

# Checks that pass when |value| < tolerance; accuracy_digits is the smallest
# log10(tolerance/|value|) among them.
UPPER_BOUND_CHECKS = frozenset({
    "phase-profile-zero-at-origin",
    "phase-profile-unit-at-infinity",
    "first-order-pair-residual",
    "degree-integer-quantization",
    "degree-radial-oracle-agreement",
    "monopole-winding-zero",
    "euler-closed-form-residual",
    "background-operator-annihilation",
    "spectral-vs-path-identity",
    "on-spectrum-survival",
    "schwinger-mass-identity",
    "inertia-quadrature-vs-closed-form",
    "normalization-integral-unity",
    "magnetic-energy-quadrature",
})

# Each layer's kernel accuracy figure: the largest |check value - target| over
# the workload's reports, 0 when the workload has no such report.
KERNEL_ACCURACY = {
    "topology.degree_gap": ("degree-integer-quantization", 0.0),
    "bps_profiles.bogomolnyi_residual": ("first-order-pair-residual", 0.0),
    "pheno.inertia_gap": ("inertia-quadrature-vs-closed-form", 0.0),
    "greens.operator_residual": ("background-operator-annihilation", 0.0),
    "rotator.identity_gap": ("spectral-vs-path-identity", 0.0),
    "interference.decay_exponent_gap": ("window-average-decay-exponent", 1.0),
}

# per-layer metrics summed over several traced functions
FUNCTION_GROUPS = {
    "bps_profiles.stencil_evals": ("calls", ("bps_profiles.magnetic_tension", "bps_profiles.covariant_derivative")),
    "bps_profiles.profile_evals": ("calls", ("bps_profiles.f0_bps", "bps_profiles.f1_bps", "bps_profiles.f01_bps")),
    "greens.euler_residual.calls": ("calls", ("greens.euler_residual",)),
    "topology.map_degree.self_s": ("self", ("topology.map_degree",)),
    "topology.winding_functional.self_s": ("self", ("topology.winding_functional",)),
    "bps_profiles.bogomolnyi_residual.self_s": ("self", ("bps_profiles.bogomolnyi_residual",)),
    "pheno.quadrature.self_s": (
        "self", ("pheno.magnetic_energy_quadrature", "pheno.rotary_momentum", "pheno.normalization_check")),
    "greens.monopole_covariant_laplacian.self_s": ("self", ("greens.monopole_covariant_laplacian",)),
    "rotator.path_green.self_s": ("self", ("rotator.path_green",)),
    "rotator.spectral_green.self_s": ("self", ("rotator.spectral_green",)),
    "interference.momentum_green_average.self_s": ("self", ("interference.momentum_green_average",)),
}

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s", f"{_layer}.errors": "count"})
PER_LAYER.update({name: ("count" if kind == "calls" else "s") for name, (kind, _) in FUNCTION_GROUPS.items()})
PER_LAYER.update({name: "1" for name in KERNEL_ACCURACY})
PER_LAYER.update({
    "setup.scipy_import_s": "s",
    "setup.ymvac_import_s": "s",
    "trace.pass_s": "s",
    "trace.self_sum_s": "s",
    "trace_overhead_s": "s",
})

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ymvac.cli\n"
    "d = time.perf_counter() - t\n"
    "print(repr(d), ymvac.cli.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, unknown workload, ...)."""


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Seconds to `import ymvac.cli` in fresh interpreters; the first import,
    which may also write bytecode caches, is not kept."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"import ymvac.cli failed: {proc.stderr.strip()[-500:]}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not _inside_src(path.strip()):
            raise BenchError(f"ymvac imported from {path.strip()}, not from {SRC}")
        times.append(float(seconds))
    return times[1:]


def measure_import_shares() -> dict:
    """scipy's and ymvac's self time under `python -X importtime -c "import ymvac.cli"`."""
    shares = {"scipy": [], "ymvac": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ymvac.cli"], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"import ymvac.cli failed: {proc.stderr.strip()[-500:]}")
        total = dict.fromkeys(shares, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in total:
                total[top] += int(self_us)
        for key in shares:
            shares[key].append(total[key] * 1e-6)
    return {key: statistics.median(vals) for key, vals in shares.items()}


def import_cli():
    sys.path.insert(0, str(SRC))
    import ymvac.cli

    if not _inside_src(ymvac.cli.__file__):
        raise BenchError(f"ymvac imported from {ymvac.cli.__file__}, not from {SRC}")
    return ymvac.cli


def judge(rc, out: str, err: str, seed: int):
    """(failed, problem, checks) for one report.  `problem` names what makes
    the output incorrect, None when it is well-formed and consistent."""
    if not isinstance(rc, int):
        return True, f"raised {rc}", []
    if rc == 3 and not out:
        # a consistency error raised before the report was built
        try:
            json.loads(err.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return True, "exit 3 without a JSON error on stderr", []
        return True, None, []
    if rc not in (0, 3):
        return True, f"exit code {rc}", []
    try:
        payload = json.loads(out)
    except ValueError:
        return True, "stdout is not JSON", []
    if not isinstance(payload, dict) or set(payload) != {"meta", "inputs", "results", "checks"}:
        return True, "payload keys differ from meta/inputs/results/checks", []
    if payload["meta"].get("seed") != seed:
        return True, f"payload seed {payload['meta'].get('seed')!r} is not {seed}", []
    checks = payload["checks"]
    if not all(isinstance(c, dict) and isinstance(c.get("passed"), bool) for c in checks):
        return True, "malformed check entry", []
    passed = all(c["passed"] for c in checks)
    if passed != (rc == 0):
        return True, f"exit {rc} disagrees with the checks", checks
    return not passed, None, checks


class Runner:
    """Runs the workload's reports one after another and checks each output."""

    def __init__(self, cli, argvs: list[list[str]], seed: int):
        self.cli = cli
        self.argvs = argvs
        self.seed = seed
        self.digests: list = [None] * len(argvs)
        self.checks: list = [[] for _ in argvs]
        self.codes: list = [None] * len(argvs)
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}

    def run_pass(self, tracer: Tracer | None = None, count: bool = True) -> float:
        """One pass over the reports; returns the seconds spent inside `main`."""
        outputs = []
        busy = 0.0
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.report += 1
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a traceback is a defect of the program: record it and go on
                    rc = traceback.format_exc(limit=3)
                busy += perf_counter() - start
            outputs.append((rc, out.getvalue(), err.getvalue()))
        for i, (rc, out, err) in enumerate(outputs):
            self._verify(i, rc, out, err, count)
        return busy

    def _verify(self, i: int, rc, out: str, err: str, count: bool) -> None:
        failed, problem, checks = judge(rc, out, err, self.seed)
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
            self.checks[i] = checks
        elif digest != self.digests[i]:
            failed, problem = True, "output differs from the first pass"
        self.codes[i] = rc
        if problem is not None:
            self.problems.setdefault(" ".join(self.argvs[i]), problem)
        if count:
            self.attempted += 1
            self.failed += failed


def timed_passes(seconds: float, run_one) -> None:
    """Calls run_one() until `seconds` have elapsed, at least once."""
    end = perf_counter() + seconds
    while True:
        gc.collect()  # so that one pass's garbage is not collected inside the next
        run_one()
        if perf_counter() >= end:
            return


def accuracy_digits(checks_per_report: list) -> float:
    digits = [DIGITS_CAP]
    for checks in checks_per_report:
        for c in checks:
            if c["name"] in UPPER_BOUND_CHECKS and c["passed"]:
                value = abs(c["value"])
                digits.append(DIGITS_CAP if value == 0 else min(DIGITS_CAP, math.log10(c["tolerance"] / value)))
    return min(digits)


def kernel_accuracy(checks_per_report: list) -> dict:
    out = {}
    for metric, (check, target) in KERNEL_ACCURACY.items():
        gaps = [abs(c["value"] - target) for checks in checks_per_report for c in checks if c["name"] == check]
        out[metric] = max(gaps, default=0.0)
    return out


def tail(values: list[float]) -> tuple[float, int, float]:
    """The pass time with TAIL_BEYOND passes above it, but never below the
    median; the number of passes above it; its percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[k], len(ordered) - k - 1, 100.0 * (k + 1) / len(ordered)


def run_untraced(runner: Runner, seconds: float, setup: list[float]) -> dict:
    raw: list[float] = []
    scaled: list[float] = []
    probes = [probe_seconds()]

    def one_pass():
        raw.append(runner.run_pass())
        probes.append(probe_seconds())
        scaled.append(raw[-1] * REFERENCE_PROBE_S / ((probes[-2] + probes[-1]) / 2))

    timed_passes(seconds, one_pass)
    p_tail, beyond, pct = tail(scaled)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "reports_per_s": len(scaled) * len(runner.argvs) / sum(scaled),
        "pass_s_p50": statistics.median(scaled),
        "pass_s_tail": p_tail,
        "peak_rss_mb": peak_mb,
        "passed_frac": (runner.attempted - runner.failed) / runner.attempted,
        "accuracy_digits": accuracy_digits(runner.checks),
    }
    print(f"setup: {len(setup)} fresh imports of ymvac.cli, median {metrics['setup_s']:.4f} s, "
          f"samples {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"passes: {len(raw)} timed after 1 warm-up; pass_s_tail is p{pct:.0f} "
          f"({beyond} of {len(raw)} passes beyond it)")
    print(f"raw wall time: pass median {statistics.median(raw):.4f} s, {len(raw) * len(runner.argvs) / sum(raw):.4f} "
          f"reports/s; probe median {statistics.median(probes):.5f} s against {REFERENCE_PROBE_S} s reference, "
          f"so ref_s ≈ s * {REFERENCE_PROBE_S / statistics.median(probes):.4f}")
    return metrics


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    marks: list[tuple[int, int]] = []
    nonzero_exits: list[int] = []

    def pair():
        untraced.append(runner.run_pass())
        lo = len(tracer.spans)
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        marks.append((lo, len(tracer.spans)))
        nonzero_exits.append(sum(rc != 0 for rc in runner.codes))

    origin = perf_counter()
    timed_passes(seconds, pair)
    OUT.mkdir(exist_ok=True)
    write_spans(spans_path, tracer.spans, origin)

    per_pass = [function_stats(tracer.spans, lo, hi) for lo, hi in marks]
    counts = [{name: (row[0], row[2]) for name, row in stats.items()} for stats in per_pass]
    if any(c != counts[0] for c in counts) or any(n != nonzero_exits[0] for n in nonzero_exits):
        runner.problems.setdefault("trace", "span counts differ between traced passes")

    def self_median(names) -> float:
        return statistics.median(sum(stats[n][1] for n in names if n in stats) for stats in per_pass)

    first = per_pass[0]
    metrics = {}
    for layer in LAYERS:
        names = [n for n in set().union(*per_pass) if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(first[n][0] for n in names if n in first)
        metrics[f"{layer}.self_s"] = self_median(names)
        metrics[f"{layer}.errors"] = sum(first[n][2] for n in names if n in first)
    # the cli layer reports errors as exit codes, not exceptions
    metrics["cli.errors"] += nonzero_exits[0]
    for metric, (kind, names) in FUNCTION_GROUPS.items():
        if kind == "calls":
            metrics[metric] = sum(first[n][0] for n in names if n in first)
        else:
            metrics[metric] = self_median(names)
    metrics.update(kernel_accuracy(runner.checks))
    shares = measure_import_shares()
    metrics["setup.scipy_import_s"] = shares["scipy"]
    metrics["setup.ymvac_import_s"] = shares["ymvac"]
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.self_sum_s"] = statistics.median(
        sum(row[1] for row in stats.values()) for stats in per_pass)
    # paired, so that a slow drift of the machine's speed cancels
    metrics["trace_overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))

    print(f"passes: {len(traced)} traced alternating with {len(untraced)} untraced, after 1 warm-up; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"{'layer':<14}{'calls':>8}{'self_s':>12}{'errors':>8}  accuracy")
    for layer in LAYERS:
        acc_text = "".join(f"{m} = {metrics[m]:.6g}" for m in KERNEL_ACCURACY if m.startswith(layer + "."))
        print(f"{layer:<14}{metrics[layer + '.calls']:>8}{metrics[layer + '.self_s']:>12.6f}"
              f"{metrics[layer + '.errors']:>8}  {acc_text}")
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"layer self times sum to {layer_sum:.6f} s; traced pass median {metrics['trace.pass_s']:.6f} s; "
          f"tracing overhead {metrics['trace_overhead_s']:.6f} s per pass")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads = load_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
        if not (SRC / "ymvac" / "cli.py").is_file():
            raise BenchError(f"no ymvac source tree at {SRC}")
        setup = [] if args.trace else measure_setup()
        cli = import_cli()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    argvs = [list(r) + ["--seed", str(args.seed)] for r in workloads[args.workload]["reports"]]
    print(f"workload {args.workload}: {len(argvs)} reports per pass, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; one client, closed loop, in process")
    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}); python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}; "
          + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))

    runner = Runner(cli, argvs, args.seed)
    runner.run_pass(count=False)  # warm-up; its outputs are the reference
    if args.trace:
        metrics = run_traced(runner, args.seconds, OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        units = PER_LAYER
    else:
        metrics = run_untraced(runner, args.seconds, setup)
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    for what, problem in runner.problems.items():
        print(f"INCORRECT {what}: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
