#!/usr/bin/env python3
"""Build ccsim_bench from source and measure one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator and the driver (Release) into build-bench/; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the driver's result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1, trace files under build-bench/trace/).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
EXE = os.path.join(BUILD, "ccsim_bench")


def build():
    """Configure (once) and build the driver; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: simulator sources (src/) not found next to benchmark/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ccsim_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds),
           "--out", os.path.join(BUILD, "results")]
    if a.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        sys.exit(proc.returncode)

    # The driver and BENCHMARK.json must name the same metrics.
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result.get("metrics", {})) != sorted(declared_metrics(a.trace)):
        sys.exit("run.py: driver metrics do not match BENCHMARK.json")


if __name__ == "__main__":
    main()
