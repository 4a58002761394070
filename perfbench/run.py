#!/usr/bin/env python3
"""Builds and runs the nampc benchmark described in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wss_sync_n32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary is built from the checkout's sources (perfbench/ is its
own CMake package that pulls in src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr, so the last line of stdout is the binary's JSON result. With
--trace 1 the recorded spans are written to <build dir>/spans/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to perfbench/ (src/ is missing)")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "nampc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "nampc_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(out_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
