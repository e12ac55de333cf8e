#!/usr/bin/env python3
"""Build and run the stacknoc benchmark.

    python3 perfbench/run.py --workload tpcc-wb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator from src/) into .bench_build/;
later calls only rebuild what changed. Each call runs one workload,
checks that the metric names and units it printed are the ones
BENCHMARK.json declares, and ends standard output with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 1 also writes the
span set to .bench_build/traces/. --smoke runs every workload of
BENCHMARK.json at both trace settings for one second each.

Exit status: 0 when every simulation run agreed, 1 on a failed run
(digest mismatch, sanity check, timeout, crash), 2 when the build or
the arguments fail, 3 when the output breaks the BENCHMARK.json
contract.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "stacknoc_perfbench")
BUILD_TIMEOUT_S = 850
# Each run must end within 180 s; the binary stops itself well before.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(2, "build timed out")
        if done.returncode != 0:
            fail(2, f"build step failed: {' '.join(cmd)}")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}, \
        [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """Problems with the final line against the contract; [] when fine."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    if not result["correct"]:
        return problems  # a failed run reports no metrics
    declared, _ = declared_metrics(trace)
    printed = result["metrics"]
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"metric {name} declared but not printed")
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"metric {name} printed but not in BENCHMARK.json")
    for name in sorted(set(printed) & set(declared)):
        m = printed[name]
        if m.get("unit") != declared[name]:
            problems.append(f"metric {name} unit {m.get('unit')!r} != "
                            f"declared {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} value {v!r} is not a number")
    return problems


def run_once(workload, seed, seconds, trace, commit, digest):
    """Run the binary; return (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit, "--source-digest", digest]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def smoke(commit, digest):
    _, workloads = declared_metrics(0)
    bad = 0
    for i, workload in enumerate(workloads):
        for trace in (0, 1):
            code, lines = run_once(workload, 1 + i, 1, trace, commit, digest)
            problems = check_result(lines[-1], trace) if lines else \
                ["no output"]
            ok = code == 0 and not problems
            bad += not ok
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAIL'} (exit {code})")
            for p in problems:
                print(f"  {p}")
    print(f"smoke: {'ok' if bad == 0 else f'{bad} failed'}")
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly at both trace levels")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    build()
    commit, digest = commit_id(), source_digest()
    if args.smoke:
        return smoke(commit, digest)

    code, lines = run_once(args.workload, args.seed, args.seconds,
                           args.trace, commit, digest)
    for line in lines:
        print(line)
    if code not in (0, 1) or not lines:
        fail(2 if code == 2 else 1,
             f"stacknoc_perfbench exited with status {code}")
    problems = check_result(lines[-1], args.trace)
    if problems:
        for p in problems:
            print(f"perfbench: self-check: {p}", file=sys.stderr)
        print("perfbench: output breaks the BENCHMARK.json contract")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
