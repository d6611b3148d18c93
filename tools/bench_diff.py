#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh google-benchmark JSON against the
committed reference of the same binary (BENCH_micro.json for bench_micro,
BENCH_obs.json for bench_obs) and fail on hot-path regressions. With one
reference per binary, a gated benchmark listed as GONE is one the binary no
longer has.

The naive cross-run comparison of absolute nanoseconds is hostage to the
machine (and load) the reference was recorded under, so times are
normalized first: the per-benchmark fresh/reference ratio is divided by the
median ratio over the whole suite, cancelling uniform machine-speed shifts
while leaving isolated regressions visible (a genuine slowdown in a few hot
benchmarks barely moves a 25-benchmark median). A hot-path benchmark
regresses when its normalized ratio exceeds 1 + --threshold (default 10%).
Speedups and non-gated benchmarks never fail the gate. --calibrate NAME
switches to single-benchmark calibration; --calibrate none compares raw.

Usage:
  tools/bench_diff.py --reference BENCH_micro.json --fresh fresh.json
  tools/bench_diff.py --reference BENCH_obs.json --fresh fresh_obs.json
  tools/bench_diff.py ... --threshold 0.10 --calibrate median
  tools/bench_diff.py ... --gate BM_Foo --gate 'BM_Bar/.*'   # override set

Exit status: 0 clean, 1 regression, 2 usage/data error. --report-only
prints the same table but never exits 1 (trajectory recording on CI
runners whose reference was captured elsewhere).
"""

import argparse
import json
import re
import sys

# The protocol's hot paths: token forwarding, batch distribution and
# delivery, codec encode/decode. The bench_obs micros gate instrumentation
# overhead: the same hot paths with span recording off/on, plus the
# registry incr and the recorder.
DEFAULT_GATES = [
    r"BM_TokenForwardRing",
    r"BM_DistributeBatchDeliver",
    r"BM_DataMsgCodecRoundTrip",
    r"BM_TokenDecodeOwned/.*",
    r"BM_TokenSerialize/.*",
    r"BM_TokenForwardRing_NoSpans",
    r"BM_TokenForwardRing_Spans",
    r"BM_DistributeBatchDeliver_NoSpans",
    r"BM_DistributeBatchDeliver_Spans",
    r"BM_MetricsIncr",
    r"BM_FlightRecorderRecord",
]


def load_times(path):
    """name -> cpu_time (ns) per benchmark. With --benchmark_repetitions the
    non-aggregate entries share a name; keep the minimum — the least-noise
    estimate of a benchmark's true cost (scheduling jitter only ever adds
    time)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        t = b.get("cpu_time", b.get("real_time"))
        if name is None or t is None:
            continue
        # google-benchmark emits ns by default; tolerate other units.
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            sys.exit(f"bench_diff: unknown time_unit '{unit}' in {path}")
        ns = t * scale
        times[name] = min(times[name], ns) if name in times else ns
    if not times:
        sys.exit(f"bench_diff: no benchmark entries in {path}")
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reference", required=True,
                    help="committed baseline JSON of the same binary "
                         "(BENCH_micro.json, BENCH_obs.json)")
    ap.add_argument("--fresh", required=True,
                    help="freshly generated bench_micro JSON")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed normalized-time growth (default 0.10)")
    ap.add_argument("--calibrate", default="median",
                    help="'median' (default) normalizes by the median "
                         "fresh/ref ratio over the whole suite; a benchmark "
                         "name normalizes by that benchmark; 'none' "
                         "compares raw times")
    ap.add_argument("--gate", action="append", default=None,
                    metavar="REGEX",
                    help="gate these name patterns instead of the built-in "
                         "hot-path set (repeatable, fullmatch)")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison table but always exit 0 "
                         "(trajectory recording, e.g. against a reference "
                         "captured on different hardware)")
    args = ap.parse_args()

    ref = load_times(args.reference)
    fresh = load_times(args.fresh)

    if args.calibrate == "none":
        scale = 1.0
    elif args.calibrate == "median":
        common = sorted(set(ref) & set(fresh))
        if not common:
            sys.exit("bench_diff: no benchmark names in common")
        ratios = sorted(fresh[n] / ref[n] for n in common if ref[n] > 0)
        mid = len(ratios) // 2
        scale = (ratios[mid] if len(ratios) % 2
                 else 0.5 * (ratios[mid - 1] + ratios[mid]))
    else:
        for times, path in ((ref, args.reference), (fresh, args.fresh)):
            if not times.get(args.calibrate):
                sys.exit(f"bench_diff: calibration benchmark "
                         f"'{args.calibrate}' missing from {path}")
        scale = fresh[args.calibrate] / ref[args.calibrate]
    if scale <= 0:
        sys.exit("bench_diff: degenerate calibration scale")

    gates = [re.compile(p) for p in (args.gate or DEFAULT_GATES)]
    gated = sorted(n for n in fresh
                   if any(g.fullmatch(n) for g in gates))
    if not gated:
        sys.exit("bench_diff: no fresh benchmark matches any gate pattern")

    missing = [n for n in gated if n not in ref]
    width = max(len(n) for n in gated)
    regressions = []
    print(f"# gate: normalized cpu_time vs {args.reference} "
          f"(calibration: {args.calibrate}, threshold "
          f"{args.threshold:.0%})")
    for name in gated:
        if name in missing:
            print(f"{name:<{width}}  NEW (no reference entry — gated next "
                  f"refresh)")
            continue
        ratio = ((fresh[name] / ref[name]) / scale
                 if ref[name] > 0 else float("inf"))
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:<{width}}  ref {ref[name]:>12.1f}ns  "
              f"fresh {fresh[name]:>12.1f}ns  norm-ratio {ratio:6.3f}  "
              f"{verdict}")

    stale = sorted(n for n in ref
                   if n not in fresh and any(g.fullmatch(n) for g in gates))
    for name in stale:
        print(f"{name:<{width}}  GONE (in reference, not in fresh run)")

    if regressions:
        print(f"\nbench_diff: {len(regressions)} hot-path regression(s) "
              f"beyond {args.threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio - 1.0:+.1%}")
        if args.report_only:
            print("bench_diff: --report-only, not failing the gate")
            return 0
        return 1
    print("\nbench_diff: hot paths within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
