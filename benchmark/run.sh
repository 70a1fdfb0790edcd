#!/usr/bin/env bash
# Builds kmembench and runs it.
#
#   benchmark/run.sh                      all five workloads, reps interleaved, one JSON document
#   benchmark/run.sh --traced             the traced (per-layer) set instead of the end-to-end one
#   benchmark/run.sh --smoke [--traced]   the same at a scale that ends in under ten seconds
#   benchmark/run.sh --seed 7 --seconds 30
#   benchmark/run.sh --workload pair --seed 7 --seconds 25 --trace 0
#                                         one workload, as the BENCHMARK.json command runs it
#
# The build goes to the workspace's own target directory (or wherever
# CARGO_TARGET_DIR points), offline, like everything else in this repo.
# Progress and a readable table go to stderr; stdout is JSON only.

set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

args=(--suite)
for arg in "$@"; do
    case "$arg" in
        --workload) args=("${args[@]:1}" "$arg") ;;
        --traced) args+=(--trace 1) ;;
        *) args+=("$arg") ;;
    esac
done
# The suite stamps the commit into its envelope, so run from the repo.
cd "$here/.."
exec "$CARGO_TARGET_DIR/release/kmembench" "${args[@]}"
