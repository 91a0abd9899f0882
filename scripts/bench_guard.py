#!/usr/bin/env python3
"""Bench regression guard: compare a freshly generated BENCH_runtime.json
against the committed baseline and fail on >20% regression of any headline
metric.

Usage:
    python3 scripts/bench_guard.py <baseline.json> <candidate.json> [tolerance]

Design notes:
* Only *headline* metrics are guarded — the modeled (virtual-time) ratios
  each bench's acceptance block is built around, plus a couple of stable
  host-side ratios. Raw ns/event host timings are deliberately excluded:
  on shared CI hosts they swing far more than 20% run to run and would
  make the guard flap without catching anything the ratios don't.
* Direction-aware: a "higher" metric fails when the candidate drops more
  than `tolerance` below baseline; a "lower" metric fails when it rises
  more than `tolerance` above. "ceiling" metrics are not compared to the
  baseline at all — they fail when the candidate exceeds its own recorded
  `target_pct` (overhead percentages hover in low single digits, where a
  relative-to-baseline check on a noisy figure is meaningless).
* Schema evolution is tolerated: a metric (or whole section) absent from
  the *baseline* is reported and skipped, so a PR that adds a new bench
  section passes. A metric present in the baseline but missing from the
  candidate fails — headline coverage must not silently disappear.
* A ~zero baseline is skipped for relative comparison (division blows up;
  e.g. recovery_us can legitimately be 0.0 in some configurations).
"""

import json
import sys

# (section, dotted path within section, direction)
HEADLINES = [
    ("cluster_scalability", "acceptance.end_to_end_ratio", "higher"),
    ("batching_replication", "acceptance.events_ratio", "higher"),
    ("batching_replication", "acceptance.switch_ratio", "higher"),
    ("fault_recovery", "steady_miss_rate", "lower"),
    ("fault_recovery", "acceptance.recovery_us", "lower"),
    ("dag_pipeline", "acceptance.throughput_ratio", "higher"),
    ("profile", "tracing_overhead.overhead_pct", "ceiling"),
    ("profile", "telemetry_overhead.overhead_pct", "ceiling"),
]


def lookup(doc, section, path):
    node = doc.get(section)
    if node is None:
        return None
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def main():
    if len(sys.argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        candidate = json.load(f)
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.20

    failures = []
    for section, path, direction in HEADLINES:
        name = f"{section}.{path}"
        new = lookup(candidate, section, path)
        if direction == "ceiling":
            if new is None:
                # Ceiling metrics live in the candidate's own profile
                # section; absence means the bench didn't run its overhead
                # sweep, which the bench-step failure already covers.
                print(f"skip  {name}: absent from candidate")
                continue
            target = lookup(candidate, section, path.rsplit(".", 1)[0] + ".target_pct")
            if target is None:
                print(f"skip  {name}: no target_pct recorded")
                continue
            verdict = "FAIL" if new > target else "ok"
            print(f"{verdict:5} {name}: {new:.2f} (ceiling {target:.2f})")
            if new > target:
                failures.append(name)
            continue

        base = lookup(baseline, section, path)
        if base is None:
            print(f"skip  {name}: absent from baseline (new metric)")
            continue
        if new is None:
            print(f"FAIL  {name}: present in baseline ({base}) but missing from candidate")
            failures.append(name)
            continue
        if abs(base) < 1e-12:
            print(f"skip  {name}: baseline ~0 ({base}), relative check undefined")
            continue
        change = new / base - 1.0
        regressed = change < -tolerance if direction == "higher" else change > tolerance
        verdict = "FAIL" if regressed else "ok"
        print(
            f"{verdict:5} {name}: {base} -> {new} "
            f"({change:+.1%}, {direction} is better, tolerance {tolerance:.0%})"
        )
        if regressed:
            failures.append(name)

    if failures:
        print(f"\nbench guard: {len(failures)} headline regression(s): {', '.join(failures)}")
        return 1
    print("\nbench guard: all headline metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
