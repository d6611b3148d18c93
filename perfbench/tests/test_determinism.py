#!/usr/bin/env python3
"""The benchmark's own tests.

1. Determinism: for every workload, two processes with one seed must print
   identical exact counts (frames, bytes, token holds, assigned, resends,
   executed events, scheduler windows, buffer peaks, latency quantiles).
   Each run is traced, so untraced and traced episodes are both covered,
   and each process already requires its own episodes to agree.
2. The manifest: BENCHMARK.json must list exactly the workloads and metrics
   the measuring program reports (`perfbench --describe`).

Run through `python3 perfbench/run.py --self-test`, which builds first.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"

# Counts each workload family must carry in its exact set.
REQUIRED = {
    "runtime": {"assigned", "token_holds", "frames", "bytes", "resends",
                "deliveries", "lat_p50_us", "lat_p99_us"},
    "sim": {"executed_events", "token_holds", "windows", "serial_steps",
            "inbox_deferred", "mq_peak", "archive_peak", "deliveries"},
}


def run(workload, seed):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    exact = next(json.loads(l[len("exact "):]) for l in lines
                 if l.startswith("exact "))
    return proc.returncode, result, exact


def test_determinism(workloads):
    failures = []
    for w in workloads:
        family = "sim" if w.startswith("sim") else "runtime"
        before = len(failures)
        rc_a, res_a, exact_a = run(w, 11)
        rc_b, res_b, exact_b = run(w, 11)
        if rc_a != 0 or rc_b != 0 or not (res_a["correct"] and res_b["correct"]):
            failures.append(f"{w}: a run failed its checks")
        missing = REQUIRED[family] - set(exact_a)
        if missing:
            failures.append(f"{w}: exact set lacks {sorted(missing)}")
        if exact_a != exact_b:
            diff = {k: (exact_a.get(k), exact_b.get(k))
                    for k in set(exact_a) | set(exact_b)
                    if exact_a.get(k) != exact_b.get(k)}
            failures.append(f"{w}: exact counts differ between runs: {diff}")
        print(f"{w}: {'ok' if len(failures) == before else 'FAIL'} "
              f"({len(exact_a)} exact counts)", flush=True)
    return failures


def test_manifest():
    described = json.loads(subprocess.run(
        [str(BINARY), "--describe"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in manifest["workloads"]] != \
            [w["name"] for w in described["workloads"]]:
        failures.append("BENCHMARK.json workloads differ from the program's")
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in described[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if want != have:
            failures.append(f"BENCHMARK.json {key} differs from the program's")
    return failures, [w["name"] for w in described["workloads"]]


def main():
    failures, workloads = test_manifest()
    failures += test_determinism(workloads)
    for f in failures:
        print(f"FAIL {f}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
