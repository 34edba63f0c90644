#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it with the given
# arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload replay-hit --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh all            # every workload, untraced then traced
#   bash benchmark/run.sh compare benchmark/out/results-a.json benchmark/out/results-b.json
#
# Cargo's output goes to standard error, so the last line of standard
# output is the run's result object.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/cgn-benchmark" "$@"
