#!/usr/bin/env python3
"""Builds and runs the AL-VC control-plane replay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus the alvc_replay driver, Release) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.

Before printing that line, this script checks it against BENCHMARK.json:
every end-to-end metric (--trace 0) or per-layer metric (--trace 1) must be
present with its declared unit and a finite value, and end-to-end values
must be positive. A result that fails the check is not printed and the
script exits non-zero, so a renamed or vanished metric cannot pass silently.

--self-test runs the driver's in-process checks (the gate rejects corrupted
state, same-seed digests match, absent counters are reported as absent) and
then a tiny instance of every workload in both modes through the same
result check.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "alvc_replay"
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "alvc_replay"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"build: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build: {' '.join(cmd)} failed with exit code {done.returncode}")
            return False
    return BINARY.exists()


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def check_result(line, spec, trace):
    """Returns a list of problems with the driver's final stdout line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"last line is not JSON: {err}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("the run is not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    expected = {m["name"] for m in declared}
    for name in sorted(set(metrics) - expected):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, not {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} has no finite value")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {m['name']} is {value}, must be > 0")
    return problems


def run_driver(args, spec, trace):
    """Runs the driver; prints its stdout (the result line only if it
    checks out). Returns the exit code."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"alvc_replay did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n") if done.stdout.strip() else []
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"alvc_replay exited with code {done.returncode}")
        return done.returncode or 1
    problems = check_result(lines[-1], spec, trace)
    print("\n".join(lines[:-1]), flush=True)
    if problems:
        for p in problems:
            log(f"result check: {p}")
        return 1
    print(lines[-1], flush=True)
    return 0


def self_test(spec):
    code = subprocess.run([str(BINARY), "--self-test"], cwd=ROOT).returncode
    if code != 0:
        log("self-test: driver checks failed")
        return code
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", workload["name"], "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--tiny"]
            if run_driver(args, spec, trace) != 0:
                log(f"self-test: tiny {workload['name']} --trace {trace} failed")
                return 1
    log("self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not (HERE / "CMakeLists.txt").exists():
        log("perfbench/CMakeLists.txt not found")
        return 1
    if not build():
        return 1
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 1
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; BENCHMARK.json declares {names}")
        return 1
    return run_driver(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      spec, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
