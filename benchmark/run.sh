#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark package (a no-op
# when it is up to date) and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--trace 0` (or no `--trace`) runs `bench` and prints the end-to-end
# metrics; `--trace 1` runs `bench-traced` and prints the per-layer metrics.
# The last line of standard output is the result object; build messages go
# to standard error. Run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

bin=bench
previous=""
for argument in "$@"; do
    if [ "$previous" = "--trace" ] && [ "$argument" = "1" ]; then
        bin=bench-traced
    fi
    previous="$argument"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@"
