#!/usr/bin/env python3
"""Build the benchmark program (f1bench) from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve|offline|lola|bootstrap>
                             --seed <n> --seconds <s> --trace <0|1>

f1bench (perfbench/src) and the library (src/) are compiled with
CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs rebuild only what changed. Build
output goes to stderr. f1bench's last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A traced run
also writes trace_<workload>_seed<n>.json (Perfetto) in the build
directory. The exit code is f1bench's, or 2 when the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve", "offline", "lola", "bootstrap")
DEFAULT_SEED = 1  # the held-out seed for confirming claims is in README.md


def build(bench_dir, build_dir):
    """Configures (once) and builds f1bench; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "f1bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "f1bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "runtime",
                                       "serving.h")):
        print("error: library sources not found in " + root,
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(bench_dir, build_dir)
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
