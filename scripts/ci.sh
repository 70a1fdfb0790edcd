#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before a change lands.
#
# The whole pipeline runs offline — the workspace is hermetic (no
# crates.io dependencies), and the first step proves it stays that way.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity: dependency tree must contain only kmem* crates"
tree=$(cargo tree --workspace --offline --prefix none --no-dedupe \
    -e normal,build,dev | awk '{print $1}' | sort -u)
foreign=$(echo "$tree" | grep -v '^kmem' || true)
if [ -n "$foreign" ]; then
    echo "ERROR: non-workspace dependencies crept in:" >&2
    echo "$foreign" >&2
    exit 1
fi

echo "==> doc rot: every file the docs name must be in the tree"
# A backticked word ending in a source/data extension is a file name, and
# must be a file of the tree — exactly or as a path suffix (`probe.rs` for
# crates/smp/src/probe.rs). Patterns (`BENCH_*.json`) are not names.
tree_files=$(find . \( -name target -o -name .git \) -prune -o -type f -print \
    | sed 's|^\./||')
rot=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    for name in $(grep -o '`[^`]*`' "$doc" | tr -d '`' | tr ' \t' '\n\n' \
        | grep -E '^[A-Za-z0-9_./-]+\.(rs|sh|json|jsonl|txt|toml|md)$' | sort -u); do
        name=${name#./}
        if ! awk -v n="$name" '
            $0 == n || substr($0, length($0) - length(n)) == "/" n { found = 1; exit }
            END { exit !found }' <<<"$tree_files"; then
            echo "ERROR: $doc names \`$name\`, which is not in the tree" >&2
            rot=1
        fi
    done
done
[ "$rot" -eq 0 ]

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy -p kmem-bench --all-targets --features bench-ext --offline \
    -- -D warnings

echo "==> cargo build --release --offline (workspace, then benchmark/)"
cargo build --release --offline
# The benchmark is a package of its own pinned to these crates by path: a
# signature it relies on breaks here, in seconds, not after the torture
# rounds.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test (workspace, offline)"
cargo test -q --offline --workspace

echo "==> snapshot invariant tests (live sampling + delta exactness)"
cargo test -q --offline --test observability

echo "==> fault-injection torture (3 bounded rounds, rotated fault seeds)"
# Every failpoint site, every policy shape, under the multi-threaded mix.
# The seed only rotates the fault schedule; the op streams stay fixed, so
# a failure reproduces with the printed KMEM_TORTURE_FAULT_SEED.
for i in 1 2 3; do
    fault_seed=$(( 0x5EED + i * 7919 ))
    echo "    round $i/3: KMEM_TORTURE_FAULT_SEED=$fault_seed"
    KMEM_TORTURE_FAULTS=1 KMEM_TORTURE_FAULT_SEED="$fault_seed" \
        cargo test -q --release --offline -p kmem-testkit --test torture \
        fault_injection
done

echo "==> global-layer contention regression (thread sweep, faults on)"
# One lock per pool over its ready chains and bucket, under real threads:
# put_odd storms against racing gets, with the global.get failpoint armed
# so injected misses interleave with contention. Conservation, regrouping
# and an exact ping-pong that never leaves the fast path are asserted
# inside the tests.
for t in 2 4 8; do
    echo "    KMEM_GLOBAL_THREADS=$t"
    KMEM_TORTURE_FAULTS=1 KMEM_GLOBAL_THREADS="$t" \
        cargo test -q --release --offline -p kmem-testkit \
        --test global_contention
done

echo "==> page-layer contention regression (thread sweep, faults on)"
# The page layer (one lock per class) over the vmblk layer under real
# threads: chain rings churn the radix lists while periodic full drains
# force coalesce-to-page and whole pages back through the boundary-tag
# lock from under the class lock (lock order class -> vmblk), with the
# page.get / page.coalesce failpoints armed. Conservation and recovery are
# asserted inside the tests.
for t in 2 4 8; do
    echo "    KMEM_PAGE_THREADS=$t"
    KMEM_TORTURE_FAULTS=1 KMEM_PAGE_THREADS="$t" \
        cargo test -q --release --offline -p kmem-testkit \
        --test page_contention
done
# The span path's step budget, where debug assertions cannot add steps:
# the lock twice and nothing else interlocked per pair, and the same events
# for one page and for any span length.
cargo test -q --release --offline -p kmem --lib \
    span_pair_steps_do_not_grow_with_span_length
# The page layer's step budgets, likewise: a refill takes the class lock
# once whatever a page holds, and a drain that fills a page unlinks it in
# place whatever is listed above it.
cargo test -q --release --offline -p kmem --lib \
    refill_steps_do_not_grow_with_blocks_per_page
cargo test -q --release --offline -p kmem --lib \
    drain_steps_do_not_grow_with_pages_listed_above

echo "==> hardened profile (release): detection guards + torture round"
# The corruption defenses must detect in *release* builds, not just under
# debug_assertions: the misuse guards (double free, use-after-free,
# clobbered link, cross-arena cookie) and the typed-error/property flows
# run with every defense armed, then the fault-injection torture mix
# reruns on a hardened arena — encoded links, poisoning, randomized
# carve, and the quarantine under injected failures, with conservation
# checked at every phase boundary.
cargo test -q --release --offline -p kmem-testkit --test misuse
cargo test -q --release --offline -p kmem-testkit --test hardened
# Jump pointers exist only where nothing else wants a free block's second
# word — the plain profile, built without debug assertions — so the tests
# of what they hold and of how little they are trusted need this build too.
cargo test -q --release --offline -p kmem-testkit --test hints
KMEM_TORTURE_HARDENED=1 KMEM_TORTURE_FAULTS=1 \
    cargo test -q --release --offline -p kmem-testkit --test torture \
    fault_injection

echo "==> maintenance-core round (mailbox offload, faults on)"
# The background maintenance core under the full torture mix: slow-path
# settles, pressure spills and drain requests route through the
# lock-free mailbox instead of running inline, and the driver pumps the
# mailbox at every quiescent checkpoint, asserting it settles exactly
# (drained == posted - deduped, backlog empty). KMEM_TORTURE_MAINT=1
# additionally reruns the standard and low-memory mixes with the core on,
# so the offload path sees the same op streams as the inline tier-1 runs.
# tests/maint.rs holds the inline-vs-pumped parity stream and the
# per-node spill ledger; run them in the optimized build too.
cargo test -q --release --offline --test maint
cargo test -q --release --offline -p kmem-testkit --test torture \
    maintenance_core
KMEM_TORTURE_MAINT=1 KMEM_TORTURE_FAULTS=1 \
    cargo test -q --release --offline -p kmem-testkit --test torture

echo "==> NUMA steal-path regression (2 nodes x 4 CPUs, faults on)"
# The sharded global layer under cross-node producer/consumer flow:
# steals must move whole chains without breaking per-class conservation,
# an injected global.steal failure must route refills to the page layer,
# and the 4-node torture round runs the full mix with every failpoint
# site armed (the steal site included).
KMEM_TORTURE_FAULTS=1 cargo test -q --release --offline -p kmem-testkit \
    --test numa_steal

echo "==> kmembench (benchmark/): unit tests + smoke runs, both modes"
# The benchmark is a package of its own outside the workspace, so nothing
# above builds it. Its tests cover every workload, layer driver and
# BENCHMARK.json's agreement with the metric tables; the smoke suites run
# the same code end to end and traced, output checks included.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null
benchmark/run.sh --smoke --traced >/dev/null

echo "==> core size (non-test lines; report only)"
scripts/loc.sh

echo "==> cookie path length (instructions per inlined alloc/free, gated)"
scripts/fastpath.sh

echo "==> OK: all tier-1 checks passed"
