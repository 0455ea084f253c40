#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc_stripe --seed 0 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (its own CMake package over ../src) into
.bench_build/perfbench, runs the metric self-test, then runs one workload in
its own process. Every line the workload prints is passed through; the last
line of stdout is the JSON result {correct, attempted, failed, metrics}.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics.

Exit status is 0 only when the build, the self-test and the run succeeded
and every correctness gate passed. Otherwise it is non-zero and stderr names
the workload; a run that produced a result still prints it, with
"correct": false when a gate failed.

    python3 perfbench/run.py --record

re-records perfbench/sim_record.json: the simulated metrics of every workload
on the development seed and on the held-out seed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cello_sr_ladder", "tpcc_stripe", "ec_rmw_closed")
DEV_SEED = 0
HELDOUT_SEED = 1009
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        raise BenchError("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   BUILD_TIMEOUT_S)
    run_logged([os.path.join(BUILD_DIR, "perfbench_selftest")], 60)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict, process exit status)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if done.returncode not in (0, 1) or not lines:
        raise BenchError("run exited %d without a result" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError("last output line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result has keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise BenchError("metrics %s do not match BENCHMARK.json %s" %
                         (sorted(got.items()), sorted(want.items())))
    if result["correct"] != (done.returncode == 0):
        raise BenchError("exit status %d disagrees with correct=%s" %
                         (done.returncode, result["correct"]))
    return result, done.returncode


def record():
    """Re-records the sim_* metrics on the development and held-out seeds."""
    out = {"dev_seed": DEV_SEED, "heldout_seed": HELDOUT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for seed in (DEV_SEED, HELDOUT_SEED):
            result, _ = run_workload(workload, seed, 1, 0, echo=False)
            entry[str(seed)] = {
                "correct": result["correct"],
                "sim": {name: m["value"]
                        for name, m in result["metrics"].items()
                        if name.startswith("sim_")},
            }
        out["workloads"][workload] = entry
    path = os.path.join(BENCH_DIR, "sim_record.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote " + path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and (args.workload is None or args.seed is None or
                            args.seconds is None or args.trace is None or
                            args.seconds < 1):
        parser.error("--workload, --seed, --seconds >= 1 and --trace are "
                     "required")
    name = "record" if args.record else args.workload
    try:
        build()
        if args.record:
            record()
            return 0
        result, status = run_workload(args.workload,
                                      args.seed % (1 << 64), args.seconds,
                                      args.trace)
    except (BenchError, OSError) as e:
        log("workload %s failed: %s" % (name, e))
        return 1
    print(json.dumps(result), flush=True)
    if status != 0:
        log("workload %s failed a correctness gate (see FAIL lines)" % name)
    return status


if __name__ == "__main__":
    sys.exit(main())
