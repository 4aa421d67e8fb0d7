#!/usr/bin/env bash
# Stability check for the simulator benchmark.
#
#   benchmark/stability.sh [N] [SECONDS] [WORKLOAD...]
#
# Runs two sets of N invocations of every workload (default N=10, SECONDS
# from BENCHMARK.json's run_seconds), each invocation with its own seed,
# the two sets interleaved in time. For every (end-to-end metric,
# workload) it prints each set's median and inter-quartile range as a
# share of the median, and whether both spreads stay within the metric's
# bound and the second median is no worse than the first by more than the
# bound (setup_s is exempt from the spread test). It then prints the
# baseline block -- medians of both sets plus provenance (commit, build
# type, compiler, nproc, load average) -- and writes it to
# build-bench/stability/baseline.json. Exits 1 if any pair disagrees.
#
# Run from the repository root.
set -euo pipefail

N=${1:-10}
shift || true
SECONDS_PER_RUN=${1:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift || true
if [ $# -gt 0 ]; then
    WORKLOADS=("$@")
else
    mapfile -t WORKLOADS < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

OUT=build-bench/stability
mkdir -p "$OUT"
RUNS="$OUT/runs.jsonl"
: > "$RUNS"
LOAD_BEFORE=$(cut -d' ' -f1-3 /proc/loadavg)

for i in $(seq 1 "$N"); do
    for set in A B; do
        if [ "$set" = A ]; then seed=$((1000 + i)); else seed=$((2000 + i)); fi
        for w in "${WORKLOADS[@]}"; do
            start=$(date +%s%N)
            line=$(python3 benchmark/run.py --workload "$w" --seed "$seed" \
                --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
            ms=$(( ($(date +%s%N) - start) / 1000000 ))
            printf '{"set": "%s", "seed": %d, "workload": "%s", "run_ms": %d, "result": %s}\n' \
                "$set" "$seed" "$w" "$ms" "$line" >> "$RUNS"
            echo "set $set run $i/$N $w done" >&2
        done
    done
done

LOAD_AFTER=$(cut -d' ' -f1-3 /proc/loadavg)
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
COMPILER=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build-bench/CMakeCache.txt)
COMPILER_VERSION=$("$COMPILER" --version | head -n 1)
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build-bench/CMakeCache.txt)

python3 - "$RUNS" "$OUT/baseline.json" "$N" "$SECONDS_PER_RUN" "$COMMIT" \
    "$BUILD_TYPE" "$COMPILER_VERSION" "$(nproc)" "$LOAD_BEFORE" "$LOAD_AFTER" <<'EOF'
import json, statistics, sys
runs_path, out_path, n, secs, commit, build, compiler, nproc, l0, l1 = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(runs_path)]
ok = True
baseline = {}

def stats(vals):
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    med = statistics.median(vals)
    return med, (q[2] - q[0]) / med if med else 0.0

print("%-17s %-16s %14s %7s %14s %7s %8s %6s  %s" % (
    "workload", "metric", "median A", "IQR A", "median B", "IQR B",
    "B vs A", "bound", "verdict"))
for w in [x["name"] for x in spec["workloads"]]:
    mine = [r for r in runs if r["workload"] == w]
    if not mine:
        continue
    if not all(r["result"]["correct"] for r in mine):
        print("%-17s correctness FAILED on some run" % w)
        ok = False
    baseline[w] = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["result"]["metrics"][name]["value"] for r in mine if r["set"] == "A"]
        b = [r["result"]["metrics"][name]["value"] for r in mine if r["set"] == "B"]
        (ma, sa), (mb, sb) = stats(a), stats(b)
        worse = (mb - ma) / ma if ma else 0.0
        if m["better"] == "higher":
            worse = -worse
        spread_ok = name == "setup_s" or (sa <= bound and sb <= bound)
        good = spread_ok and worse <= bound
        ok = ok and good
        print("%-17s %-16s %14.6g %6.1f%% %14.6g %6.1f%% %+7.1f%% %5.0f%%  %s" % (
            w, name, ma, 100 * sa, mb, 100 * sb, 100 * worse, 100 * bound,
            "ok" if good else "DISAGREE"))
        baseline[w][name] = {"median": statistics.median(a + b),
                             "iqr_share": stats(a + b)[1], "unit": m["unit"]}
    baseline[w]["run_s"] = statistics.mean(r["run_ms"] for r in mine) / 1000

print("\nmean seconds per run: " + ", ".join(
    "%s %.1f" % (w, baseline[w]["run_s"]) for w in baseline))
block = {"provenance": {"commit": commit, "build_type": build,
                        "compiler": compiler, "nproc": int(nproc),
                        "loadavg_before": l0, "loadavg_after": l1,
                        "runs_per_set": int(n), "run_seconds": int(secs)},
         "workloads": baseline}
json.dump(block, open(out_path, "w"), indent=1)
print("\nbaseline block (%s):" % out_path)
print(json.dumps(block, indent=1))
print("\nstability: %s" % ("both sets agree" if ok else "DISAGREEMENT"))
sys.exit(0 if ok else 1)
EOF
