#!/usr/bin/env python3
"""Repository benchmark: build the program from source and run one workload.

    python3 perfbench/run.py --workload lifecycle|classic-flood \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S --trace 0|1   (both workloads)
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark binary (a Release build of the repository's own CMake project with
perfbench/ added through hook.cmake) under .bench_build/perfbench; later runs
rebuild incrementally. All scratch output stays under .bench_build/.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). The line before it is a report with
provenance, operations by kind, sample counts and every correctness check.
Exit status: 0 when every correctness check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark could not run (no result
line). See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "zl_perfbench")
WORKLOADS = ["lifecycle", "classic-flood"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must finish within 180 s; the first run of a checkout, which builds,
# within 900 s. Leave a margin for this script's own work.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the benchmark target incrementally.
    Returns True when a full configure happened (a first run)."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a repository checkout (CMakeLists.txt and src/ not found)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
        with open(log_path, "w") as log:
            steps = []
            if fresh:
                steps.append(["cmake", "-S", ".", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                              "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")])
            steps.append(["cmake", "--build", BUILD_DIR, "--target", "zl_perfbench",
                          "-j", str(os.cpu_count() or 1)])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail("build failed: " + " ".join(cmd))
    return fresh


def run_binary(args, limit_s):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", RUN_DIR]
    for fault in args.plant or []:
        cmd += ["--plant", fault]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit_s)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {limit_s:.0f} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"benchmark binary exited with status {proc.returncode} and no result")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    if (proc.returncode == 0) != (result["correct"] is True):
        fail("exit status disagrees with the correctness gate")
    return proc.returncode, report, result


def trace_overhead(report, args):
    """Keep the untraced load wall time of every run; a traced run compares
    its own load wall time against their median (the measured tracing
    overhead, next to the calibrated estimate in bench.trace_overhead_share)."""
    path = os.path.join(RUN_DIR, "untraced_load_wall_s.json")
    history = {}
    if os.path.isfile(path):
        with open(path) as f:
            history = json.load(f)
    # Only runs of this binary with the same sizing are comparable.
    key = f"{args.workload}:{args.seconds}:{os.path.getmtime(BINARY):.0f}"
    walls = history.setdefault(key, [])
    load = report["report"]["load_wall_s"]
    if args.trace == 0:
        walls.append(load)
        with open(path, "w") as f:
            json.dump(history, f)
        return None
    if not walls:
        return None
    return {"untraced_runs": len(walls),
            "untraced_median_load_wall_s": statistics.median(walls),
            "measured_share": load / statistics.median(walls) - 1.0}


def self_test():
    """Planted faults must be caught: a corrupted attestation is a failed
    operation (and nothing else fails), a tampered block in a sync replay
    fails the correctness gate. Neither may crash or be skipped."""
    cases = [
        ("lifecycle", ["bad-attestation"], 0, True, 1),
        ("classic-flood", ["bad-attestation"], 0, True, 1),
        ("classic-flood", ["tampered-block"], 1, False, 1),
    ]
    ok = True
    for workload, plant, want_status, want_correct, want_failed in cases:
        args = argparse.Namespace(workload=workload, seed=7, seconds=10, trace=0, plant=plant,
                                  small=True)
        status, report, result = run_binary(args, RUN_LIMIT_S)
        passed = (status == want_status and result["correct"] == want_correct
                  and result["failed"] == want_failed)
        ok &= passed
        print(json.dumps({"workload": workload, "plant": plant, "status": status,
                          "correct": result["correct"], "failed": result["failed"],
                          "check_failures": report["report"]["check_failures"],
                          "passed": passed}))
    print(json.dumps({"self_test": "passed" if ok else "FAILED"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    args.plant, args.small = None, False

    start = time.monotonic()
    fresh = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.self_test:
        return self_test()
    # Without --workload, run both, one after the other (two result lines).
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        limit = (FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S) - (time.monotonic() - start)
        code, report, result = run_binary(args, limit)
        overhead = trace_overhead(report, args)
        if overhead is not None:
            report["report"]["trace_overhead"] = overhead
        print(json.dumps(report))
        print(json.dumps(result))
        status = max(status, code)
        start, fresh = time.monotonic(), False
    return status

if __name__ == "__main__":
    sys.exit(main())
