#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt: the ringnet library compiled
from ../src plus the driver) as an optimised Release build under
.bench_build/; later calls only re-check the build. Build output goes to
stderr. The measuring program's report goes to stdout, and its last line is
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The script exits non-zero, without a result line, when the build fails or
the program does not produce a well-formed result, and exits 1 after the
result line when any delivery check failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.exists()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.exists():
        return None
    spec = json.loads(manifest.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def well_formed(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int):
        return False
    want = expected_metrics(trace)
    return want is None or set(result["metrics"]) == want


def measure(args, started):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 30), check=False)
    except subprocess.TimeoutExpired:
        log("measuring program overran its deadline and was stopped")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode not in (0, 1) or result is None or \
            not well_formed(result, args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"no well-formed result (exit {proc.returncode})")
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and result["failed"] == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own determinism tests")
    args = ap.parse_args()
    started = time.monotonic()

    if not build():
        return 2
    if args.self_test:
        test = HERE / "tests" / "test_determinism.py"
        return subprocess.run([sys.executable, str(test)], check=False).returncode
    if not args.workload:
        ap.error("--workload is required")
    return measure(args, started)


if __name__ == "__main__":
    sys.exit(main())
