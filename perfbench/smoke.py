"""Smoke run of the benchmark: python3 perfbench/smoke.py

For every workload in BENCHMARK.json: one short untraced run, whose metrics
must be the end_to_end names with their units, and two short traced runs,
whose metrics must be the per_layer names with their units and whose
`*.calls`, `*_evals` and `*.errors` counts must repeat exactly.  Every run
must be correct.  Finally the benchmark must refuse to run, without printing
a result, in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, what: str) -> dict:
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{what}: not correct:\n{proc.stdout[-2000:]}")
    expect(result["attempted"] >= 1, f"{what}: nothing attempted")
    return result


def expect_metrics(result: dict, declared: list, what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    expect(set(got) == set(units), f"{what}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    for name, unit in units.items():
        expect(got[name]["unit"] == unit, f"{what}: {name} has unit {got[name]['unit']!r}, not {unit!r}")
        expect(isinstance(got[name]["value"], (int, float)), f"{what}: {name} is not a number")


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", "_evals", ".errors"))}


def check_workload(bench: dict, workload: str) -> None:
    plain = result_of(run_bench(ROOT, workload, 0), f"{workload} --trace 0")
    expect_metrics(plain, bench["end_to_end"], f"{workload} --trace 0")
    first = result_of(run_bench(ROOT, workload, 1), f"{workload} --trace 1")
    second = result_of(run_bench(ROOT, workload, 1), f"{workload} --trace 1 (again)")
    expect_metrics(first, bench["per_layer"], f"{workload} --trace 1")
    expect(counts(first) == counts(second), f"{workload}: traced counts differ:\n{counts(first)}\n{counts(second)}")


def check_refuses_without_source(bench: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark ran without a source tree")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without a source tree")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        defined = json.load(fh)
    try:
        expect({w["name"]: w["why"] for w in bench["workloads"]} == {k: v["why"] for k, v in defined.items()},
               "BENCHMARK.json workloads differ from perfbench/workloads.json")
        for w in bench["workloads"]:
            check_workload(bench, w["name"])
            print(f"ok {w['name']}", flush=True)
        check_refuses_without_source(bench)
        print("ok refuses to run without the source tree")
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
