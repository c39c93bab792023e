#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Builds the benchmark (through run.py), runs the unit checks of the metric
arithmetic, then a tiny-size run of every workload in BENCHMARK.json, both
untraced and traced. It checks that each run is correct, reports every
metric BENCHMARK.json lists with a finite value, and that the traced run's
spans cover at least 95% of its wall time. Exits non-zero on the first
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_workload(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "3", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for wl in bench["workloads"]:
        for trace in (0, 1):
            result = run_workload(wl["name"], trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{wl['name']}: unexpected keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{wl['name']} trace={trace}: {result}")
            if result["attempted"] < 1:
                fail(f"{wl['name']} trace={trace}: nothing attempted")
            metrics = result["metrics"]
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    fail(f"{wl['name']} trace={trace}: no {m['name']}")
                if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    fail(f"{wl['name']}: bad {m['name']}: {got}")
            if len(metrics) != len(expected[trace]):
                extra = set(metrics) - {m["name"] for m in expected[trace]}
                fail(f"{wl['name']} trace={trace}: unlisted metrics {extra}")
            if trace == 1 and metrics["trace.span_coverage"]["value"] < 0.95:
                fail(f"{wl['name']}: spans cover only "
                     f"{metrics['trace.span_coverage']['value']:.3f}")
            print(f"selftest: {wl['name']} trace={trace} ok")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    unit = os.path.join(build, "cmake", "perfbench_unit")
    if subprocess.run([unit]).returncode != 0:
        fail("unit checks")
    print("selftest: all passed")


if __name__ == "__main__":
    main()
