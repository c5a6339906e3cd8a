#!/usr/bin/env bash
# The benchmark's one command: build offline, then hand every argument to
# the binary.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--out DIR] [--check]
#       the whole benchmark (or one workload): every metric by name, unit
#       and value, out/results.json, traces and ledger; exits non-zero if
#       any run failed (or, with --check, a workload lost its shape)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; last line of stdout is the result object
#   benchmark/run.sh compare <base.json...> -- <candidate.json...>
#   benchmark/run.sh aa [--seed N]
#   benchmark/run.sh list        # BENCHMARK.json, from the registries
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: stdout belongs to the results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/tilgc-benchmark" "$@"
