#!/usr/bin/env bash
# Runs the whole benchmark twice, back to back, and checks that the two sets
# agree within the benchmark's own bounds:
#
#   bash benchmark/run_sets.sh [runs-per-set]      (default 10)
#
# A set is `runs-per-set` runs of every workload, seeds 1..runs-per-set. For
# every workload x end-to-end metric it prints both medians, their relative
# difference (positive where the second set reads worse), each set's spread (distance
# between the quartiles over the median, as `statistics.quantiles(n=4)` gives
# them) and the bound from BENCHMARK.json, and under each of the two host
# times, which are reported at the speed of a reference host, the same row
# for the figure as the clock gave it. It exits non-zero if
#   * a difference or a spread exceeds the metric's bound (no metric is
#     exempt),
#   * one of the six modelled metrics differs between the two runs of the
#     same workload and seed by more than 1e-9 relative, or
#   * a run fails its output check.
# Run it from the repository root; results go to benchmark/out/sets.jsonl.
set -euo pipefail

runs="${1:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
out="$here/out"
mkdir -p "$out"
results="$out/sets.jsonl"
: > "$results"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"

for set in 1 2; do
    for workload in $workloads; do
        for seed in $(seq 1 "$runs"); do
            output="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
            printf '{"set": %s, "workload": "%s", "seed": %s, "as_measured": %s, "result": %s}\n' \
                "$set" "$workload" "$seed" "$(sed -n 's/^as measured: //p' <<< "$output")" \
                "$(tail -n 1 <<< "$output")" >> "$results"
            echo "set $set $workload seed $seed done" >&2
        done
    done
done

python3 - "$spec" "$results" <<'PY'
import json
import statistics
import sys

MODELLED = ["modeled_ops_per_s", "modeled_p99_us", "modeled_met_share",
            "ii_geomean", "ii_err_vs_paper", "code_words_per_kernel"]

spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2])]
failed = False
for row in rows:
    if not row["result"]["correct"]:
        failed = True
        print(f"FAILED OUTPUT CHECK: set {row['set']} {row['workload']} seed {row['seed']}")


def value(row, name):
    return row["result"]["metrics"][name]["value"]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


# The modelled metrics are pure functions of the seed: per seed, exactly.
by_run = {}
for row in rows:
    by_run.setdefault((row["workload"], row["seed"]), []).append(row)
inexact = 0
for (workload, seed), pair in sorted(by_run.items()):
    for name in MODELLED:
        first, second = (value(row, name) for row in pair)
        if abs(second - first) > 1e-9 * abs(first):
            inexact += 1
            print(f"NOT EXACT: {workload} seed {seed} {name}: {first!r} then {second!r}")
print(f"modelled metrics compared per seed at 1e-9 relative: "
      f"{len(by_run) * len(MODELLED)} pairs, {inexact} differ")
failed = failed or inexact > 0


def compare(workload, metric, read):
    """Both medians, the second's worsening against the first, both spreads."""
    sets = [
        [read(row) for row in rows if row["set"] == which and row["workload"] == workload]
        for which in (1, 2)
    ]
    first, second = (statistics.median(values) for values in sets)
    worse = (second - first) / abs(first)
    if metric["better"] == "higher":
        worse = -worse
    return first, second, worse, [spread(values) for values in sets]


print(f"{'workload':<14} {'metric':<24} {'median 1':>14} {'median 2':>14} "
      f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>7}")
for workload in (w["name"] for w in spec["workloads"]):
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second, worse, spreads = compare(workload, metric, lambda row: value(row, name))
        over = abs(worse) > bound or max(spreads) > bound
        failed = failed or over
        print(f"{workload:<14} {name:<24} {first:>14.6g} {second:>14.6g} "
              f"{worse:>+9.4f} {spreads[0]:>9.4f} {spreads[1]:>9.4f} {bound:>7.2g}"
              f"{'  OVER' if over else ''}")
        if name in rows[0]["as_measured"]:
            first, second, worse, spreads = compare(
                workload, metric, lambda row: row["as_measured"][name])
            print(f"{workload:<14} {'  (as measured, no gate)':<24} {first:>14.6g} "
                  f"{second:>14.6g} {worse:>+9.4f} {spreads[0]:>9.4f} {spreads[1]:>9.4f}")
sys.exit(1 if failed else 0)
PY
