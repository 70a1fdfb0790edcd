#!/usr/bin/env bash
# Non-test lines per crates/core/src/*.rs (everything above a file's first
# `#[cfg(test)]`) and their total: the figure ROADMAP's "core under 10 k
# lines" goal and the per-PR line targets are read from. Report only.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for f in crates/core/src/*.rs; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total (non-test)\n' "$total"
