#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload plan_table1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

The benchmark compiles the library from src/ with its own CMake project (perfbench/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the repository root, and
runs one workload per process so that peak RSS is never inherited. The last stdout line is
the JSON result. With --trace 0 it carries every end-to-end metric of BENCHMARK.json; with
--trace 1 every per-layer metric, where a layer that the workload bypasses reads 0.
Results and spans are also written under <build dir>/results.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    if not (ROOT / "src" / "core" / "distserve.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", str(out), "-j", jobs, "--target", target]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def complete_metrics(result, spec, trace):
    """Checks the result's metric names against BENCHMARK.json; fills bypassed layers."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    for name, unit in names.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']} but BENCHMARK.json says {unit}")
    result["metrics"] = {name: metrics[name] for name in names}
    return result


def run_workload(binary, spec, args, workload):
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(results)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload}: no output (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{workload}: last line is not a JSON result (exit code {proc.returncode})")
    print(json.dumps(complete_metrics(result, spec, args.trace == 1)), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = parser.parse_args()

    if args.test:
        out = build("perfbench_test")
        sys.exit(subprocess.run(["ctest", "--test-dir", str(out), "--output-on-failure"]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for workload in workloads:
        if workload not in names:
            fail(f"unknown workload {workload}; BENCHMARK.json has {', '.join(names)}")
    binary = build("perfbench") / "perfbench"
    codes = [run_workload(binary, spec, args, workload) for workload in workloads]
    sys.exit(0 if all(code == 0 for code in codes) else 1)


if __name__ == "__main__":
    main()
