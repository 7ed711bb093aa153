#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 12 --trace 0

Configures and builds perfbench/ (which compiles the repository's layer
libraries from ../src) into .bench_build/ on first use, runs one
workload, and prints as the last stdout line one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones, as BENCHMARK.json
lists them. A per-layer metric the workload does not drive (NOT_DRIVEN)
reads 0; any other metric the binary did not measure, or measured in
another unit, fails the run. Warning lines the library writes to stderr
are passed through unchanged and counted into support.log_lines. Exits non-zero when the sources are missing, the
build fails, or any operation fails its output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flow", "dse_sweep", "serve_churn")
# Per-layer metrics each workload does not drive: a name ending in "."
# covers every metric under that prefix. They are reported as 0; the
# binary must not measure them.
NOT_DRIVEN = {
    "paper_flow": ("mapping.dse.", "mapping.admission.", "platform.budget_copy_us_p50"),
    "dse_sweep": ("sim.", "mamps.", "mapping.admission.", "apps.mjpeg.measure_costs_ms_p50",
                  "analysis.expected_ms_p50", "platform.budget_copy_us_p50"),
    "serve_churn": ("sim.", "mamps.", "apps.mjpeg.", "mapping.dse.", "analysis.expected_ms_p50",
                    "platform.generate_ms_p50"),
}
WARNING_PREFIX = "[mamps:warning]"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def reported_metrics(trace):
    """The metrics BENCHMARK.json lists for this mode (name and unit)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def not_driven(workload, name):
    return any(name.startswith(p) if p.endswith(".") else name == p
               for p in NOT_DRIVEN[workload])


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, capture_output=True, text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout[-4000:] + step.stderr[-4000:])
            fail("cmake configure failed", 3)
    step = subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                          capture_output=True, text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout[-4000:] + step.stderr[-4000:])
        fail("build failed", 3)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"'{needed}' is missing next to perfbench/: run from a full checkout", 2)

    out = build_dir()
    binary = build(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--span-dir", out]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)

    sys.stderr.write(proc.stderr)
    warnings = sum(1 for line in proc.stderr.splitlines() if line.startswith(WARNING_PREFIX))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})", 5)

    for line in lines[:-1]:
        print(line)
    measured = result["metrics"]
    if args.trace:
        measured["support.log_lines"] = {"value": warnings, "unit": "count"}
        print(f"metric support.log_lines = {warnings} count (lower is better; "
              f"warning lines the library wrote to stderr during the traced run)")
    result["metrics"] = {}
    for metric in reported_metrics(args.trace):
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name)
        problem = None
        if args.trace and not_driven(args.workload, name):
            if value is None:
                value = {"value": 0, "unit": unit}
                print(f"metric {name} = 0 {unit} (layer not driven by this workload)")
            else:
                problem = f"{name} is measured but listed as not driven by {args.workload}"
        elif value is None:
            problem = f"{name} was not measured"
        elif value["unit"] != unit:
            problem = f"{name} was measured in {value['unit']}, not {unit}"
        if problem:
            print(f"FAILED: {problem}")
            result["correct"] = False
            result["failed"] += 1
            continue
        result["metrics"][name] = value
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
