#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and through it the library sources in src/) into
$CARGO_TARGET_DIR or .bench_build, prepares the workload's inputs in a
separate process, then runs the measured process. Its last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and the spans are written to
<build dir>/work/trace-NAME-N.json. Add --tiny for a seconds-long smoke run
at toy sizes (numbers not comparable to full runs).

Exit codes: 0 ok, 1 a correctness gate failed, 2 bad arguments or the
repository sources are missing, 3 build or run failure.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("stream_city", "serve_open_loop")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "urr_perfbench", "perfbench_unit"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(root, 'src')}; "
            "run from a full checkout of the repository")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cmake_dir = build(root, build_dir)
    if cmake_dir is None:
        log("build failed")
        return 3
    binary = os.path.join(cmake_dir, "urr_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    if args.tiny:
        cmd.append("--tiny")
    # The library reads URR_* overrides (oracle, threads, ST index) from the
    # environment; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("URR_")}
    # Set-up, the verify pass and the minimum repetitions come on top of the
    # measured seconds.
    timeout = 3 * args.seconds + 120
    try:
        prep = subprocess.run(cmd + ["--prepare"], stdout=sys.stderr,
                              env=env, timeout=timeout)
        if prep.returncode:
            log("input preparation failed")
            return 3
        return subprocess.run(cmd, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:g} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
