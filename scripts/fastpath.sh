#!/usr/bin/env bash
# Path-length gate for the cookie interface: the paper's KMEM_ALLOC_COOKIE /
# KMEM_FREE_COOKIE are 13 + 13 instructions expanded at the call site.
# examples/fastpath_probe.rs wraps one expansion of each of ours in a
# never-inlined function; this script disassembles the two wrappers, prints
# their instruction count and byte size (hit path, cold-call stubs and
# prologue included; padding not), and fails when either outgrows BUDGET,
# when the jump-pointer prefetch is not where it belongs — one in the alloc
# half, issued by the pop; none in the free half, which only writes the
# pointer — when either half multiplies (an x86-64 `imul`: the (CPU, class)
# record stride is a power of two, so the class index must stay a shift),
# or when `CpuHandle::alloc_cookie` / `free_cookie` exist as functions at
# all: they are `#[inline(always)]`, so a symbol means a caller got a `call`
# instead of the hit path.

set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=48

if ! command -v objdump >/dev/null; then
    echo "fastpath: objdump not found, path-length gate skipped"
    exit 0
fi

cargo build --release --offline --quiet --example fastpath_probe
bin="${CARGO_TARGET_DIR:-target}/release/examples/fastpath_probe"

fail=0
for probe in probe_alloc_cookie:1 probe_free_cookie:0; do
    sym=${probe%:*}
    want_prefetches=${probe#*:}
    body=$(objdump -d --no-show-raw-insn "$bin" | awk -v head="<$sym>:" '
        $2 == head { on = 1; next }
        on && NF == 0 { on = 0 }
        on && $2 !~ /^(int3|nop[wl]?|data16)$/ && $0 !~ /xchg +%ax,%ax/')
    insns=$(grep -c . <<<"$body" || true)
    prefetches=$(grep -c prefetch <<<"$body" || true)
    bytes=$((16#$(objdump -t "$bin" | awk -v s="$sym" '$NF == s { print $(NF - 1) }')))
    printf 'fastpath: %-20s %3d instructions %4d bytes %d prefetch (budget %d instructions; the paper: 13)\n' \
        "$sym" "$insns" "$bytes" "$prefetches" "$BUDGET"
    if [ "$insns" -eq 0 ] || [ "$insns" -gt "$BUDGET" ]; then
        echo "ERROR: $sym is $insns instructions, budget $BUDGET" >&2
        fail=1
    fi
    # The prefetch is compiled for x86-64 only.
    if [ "$(uname -m)" = x86_64 ] && [ "$prefetches" -ne "$want_prefetches" ]; then
        echo "ERROR: $sym has $prefetches prefetch instructions, expected $want_prefetches" >&2
        fail=1
    fi
    imuls=$(grep -c imul <<<"$body" || true)
    if [ "$imuls" -ne 0 ]; then
        echo "ERROR: $sym has $imuls imul instructions: the class-record index must be a shift" >&2
        fail=1
    fi
done

outlined=$(objdump -t -C "$bin" | grep -E 'CpuHandle>?::(alloc|free)_cookie(::h[0-9a-f]+)?$' || true)
if [ -n "$outlined" ]; then
    echo "ERROR: the cookie entry points were emitted out of line:" >&2
    echo "$outlined" >&2
    fail=1
fi
exit "$fail"
