#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a source tree.

    python3 perfbench/run.py --workload loo_attack --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library plus the benchmark into
.bench_build/ (a few minutes); later calls only re-check the build. The
benchmark then runs one workload in-process and prints, as its last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics. Result files (host-stamped) and traces go to
.bench_out/. The exit code is 0 only when every output was correct.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns True on success."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """Content hash of the sources the benchmark builds, plus the git
    commit when the tree is a git checkout."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "tree-" + h.hexdigest()[:12]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            ident += ",git-" + sha.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the accounting helpers' tests")
    args = ap.parse_args()
    if not args.self_test and (not args.workload or not args.seconds):
        ap.error("--workload and --seconds are required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to perfbench/; nothing to measure")
        return 2
    if not build():
        return 1

    if args.self_test:
        binary = os.path.join(BUILD, "perfbench_selftest")
        if not os.path.exists(binary):
            log("GTest not found at configure time; no self-test binary")
            return 1
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--source-id", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
