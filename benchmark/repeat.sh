#!/usr/bin/env bash
# Two complete sets of the same commit, one after the other, compared.
#
#   benchmark/repeat.sh [--traced] [--smoke] [--seed N] [--seconds S]
#
# For every end-to-end metric and workload it prints both values and
# |a-b|/a against the metric's bound, and exits non-zero on a breach.
# With --traced it also requires the layer counts of the one-thread
# workloads to repeat exactly and the sim.* columns to within 5 %.
# Both JSON documents go to stdout (one per line), the table to stderr.

set -euo pipefail
exec "$(dirname "$0")/run.sh" --repeat "$@"
