#!/bin/sh
# Records the bench_micro_core numbers into a tracked JSON baseline at the
# repo root (default BENCH_sim.json).
#
# The file is a tracked performance baseline: re-run this script on the
# reference machine after a change that is expected to move the hot paths
# (layout mapping, access planning, scheduler picks, event engine) and commit
# the diff so reviewers see the before/after. Numbers from other machines are
# for local comparison only — don't commit them.
#
# With a third argument, a google-benchmark --benchmark_filter regex, only
# the matching benchmarks run and are merged into the existing file: an entry
# of the same name is replaced, a new one appended, every other entry (and
# the machine block) kept as it is. That is how a change adds its own
# benchmarks to the baseline without re-recording the rest.
#
# Usage: tools/record_bench.sh [build-dir] [output.json] [filter]
#        (defaults: build BENCH_sim.json, no filter = record everything)
set -e
build_dir="${1:-build}"
out_name="${2:-BENCH_sim.json}"
filter="${3:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
bench="$repo/$build_dir/bench/bench_micro_core"

if [ ! -x "$bench" ]; then
  echo "building bench_micro_core..." >&2
  cmake --build "$repo/$build_dir" --target bench_micro_core -j "$(nproc)"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
"$bench" --benchmark_format=json --benchmark_out="$raw" \
    --benchmark_out_format=json ${filter:+--benchmark_filter="$filter"} >&2

python3 - "$raw" "$repo/$out_name" "$filter" <<'EOF'
import json
import os
import platform
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)

ctx = raw.get("context", {})
benchmarks = []
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "BigO":
        continue
    benchmarks.append({
        "name": b["name"],
        "real_time_ns": round(b.get("real_time", 0.0), 2),
        "cpu_time_ns": round(b.get("cpu_time", 0.0), 2),
        "iterations": b.get("iterations", 0),
    })

out = {
    "bench": "bench_micro_core",
    "machine": {
        "host_arch": platform.machine(),
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        "library_build_type": ctx.get("library_build_type"),
    },
    "benchmarks": benchmarks,
}
if sys.argv[3] and os.path.exists(sys.argv[2]):
    with open(sys.argv[2]) as f:
        merged = json.load(f)
    fresh = {b["name"]: b for b in benchmarks}
    kept = [fresh.pop(b["name"], b) for b in merged["benchmarks"]]
    merged["benchmarks"] = kept + list(fresh.values())
    out = merged
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(benchmarks)} entries recorded, "
      f"{len(out['benchmarks'])} in file)")
EOF
