//! Global-layer contention: the pool's chain ping-pong and a whole arena's
//! hardened tax under the same threads.
//!
//! Real OS threads ping-pong intact `target`-sized chains through one
//! shared [`GlobalPool`] — the CPU-to-CPU recycling pattern of paper §3.2,
//! one pool-lock acquisition per direction — and report ns per get/put
//! pair for each thread count. A second sweep runs whole arenas, default
//! against the full hardened profile, with flush-forced traffic through
//! the global layer. Both sweeps go to `BENCH_global.json` at the
//! workspace root.
//!
//! Run: `cargo bench --features bench-ext --bench global_contention`.
//!
//! On a loaded or single-core host the absolute numbers are noise (the
//! report then says `path_length_only`); the reported figure is the min
//! over repetitions, so scheduler spikes are filtered out. The hardened
//! profile's multiplier over the default is asserted here rather than
//! eyeballed.

use std::sync::Barrier;
use std::time::Instant;

use kmem::global::GlobalPool;
use kmem::{HardenedConfig, KmemConfig};
use kmem_baselines::spin::{backing, chain, discard};
use kmem_bench::{arena_contended_pair_ns, BenchReport};

const TARGET: usize = 4;
const OPS_PER_THREAD: usize = 100_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per (pool, thread count); the minimum is reported.
const REPS: usize = 7;
/// Pool depth in chains, fixed across thread counts: a gbltarget-scale
/// pool riding near its bound, as in a tuned deployment. Depth costs
/// nothing: a get or put moves one `(head, tail)` pair and the block
/// count is kept, not summed.
const POOL_CHAINS: usize = 128;
/// Whole-arena hardened sweep: alloc/free pairs per thread, with a
/// flush every [`HARDENED_FLUSH_EVERY`] pairs forcing cross-layer
/// traffic through the shared (and, hardened, encoded) global layer.
const HARDENED_OPS: usize = 20_000;
const HARDENED_FLUSH_EVERY: usize = 64;
const HARDENED_SIZE: usize = 256;
const HARDENED_SEED: u64 = 0x4245_4e43_4752_4e44; // "BENCGRND"
/// Bound on the full hardened profile's contended-pair multiplier vs
/// the default profile under the same contention. Loose on purpose:
/// under contention the shared-line traffic dominates and the defense
/// cost should *shrink* relative to the uncontended 6x fast-path bound.
const HARDENED_MAX_MULT: f64 = 8.0;

/// Times `threads` × [`OPS_PER_THREAD`] get/put pairs against `pool`,
/// which must be pre-seeded; returns ns per pair.
fn run_pairs(pool: &GlobalPool, threads: usize) -> f64 {
    let barrier = Barrier::new(threads);
    // Phase wall = max(end) - min(start), stamped inside the workers:
    // the worker rolling straight through the barrier release stamps the
    // true phase start. (Spawner-side timing reads near zero when the
    // workers finish before the spawner is rescheduled; per-worker spans
    // alone fake an N-times speedup when a serialized phase reschedules
    // each worker just before its own loop.)
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..OPS_PER_THREAD {
                        if let Some(c) = pool.get_chain() {
                            assert!(
                                pool.put_chain(c).is_none(),
                                "bench pool sized to never spill"
                            );
                        }
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let start = spans.iter().map(|&(s, _)| s).min().unwrap();
    let end = spans.iter().map(|&(_, e)| e).max().unwrap();
    (end - start).as_nanos() as f64 / (threads * OPS_PER_THREAD) as f64
}

fn bench_pool(threads: usize) -> f64 {
    let mut store = backing(POOL_CHAINS * TARGET);
    // gbltarget sized so the bound (2 * gbltarget) is never exceeded:
    // every put lands within it, as in a tuned deployment.
    let pool = GlobalPool::new(TARGET, POOL_CHAINS * TARGET);
    for i in 0..POOL_CHAINS {
        assert!(pool
            .put_chain(chain(&mut store, i * TARGET..(i + 1) * TARGET))
            .is_none());
    }
    let ns = run_pairs(&pool, threads);
    discard(pool.drain_all());
    ns
}

/// Min-of-reps contended pair cost for a whole arena under `hardened`,
/// at `threads` threads (with periodic flushes driving the shared
/// global layer).
fn bench_arena(hardened: HardenedConfig, threads: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let config = KmemConfig::new(threads, kmem_vm::SpaceConfig::new(16 << 20).vmblk_shift(18))
            .hardened(hardened);
        best = best.min(arena_contended_pair_ns(
            config,
            HARDENED_SIZE,
            threads,
            HARDENED_OPS,
            HARDENED_FLUSH_EVERY,
        ));
    }
    best
}

fn main() {
    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        // Warm-up pass absorbs thread-spawn and first-touch costs.
        let _ = bench_pool(threads);
        let ns = (0..REPS)
            .map(|_| bench_pool(threads))
            .fold(f64::INFINITY, f64::min);
        println!("global_contention/{threads:>2} threads   pool     {ns:>9.1} ns/pair");
        rows.push((threads, ns));
    }

    // Hardened variant of the sweep: the same thread counts, but whole
    // arenas (default vs full hardened profile) with flush-forced
    // cross-layer traffic — what the defenses cost when the global
    // layer is actually contended, not just on a lone fast path.
    let mut hardened_rows = Vec::new();
    for threads in THREAD_COUNTS {
        let default_ns = bench_arena(HardenedConfig::off(), threads);
        let hardened_ns = bench_arena(HardenedConfig::full(HARDENED_SEED), threads);
        println!(
            "global_contention/{threads:>2} threads   default  {default_ns:>9.1} ns/pair   \
             hardened  {hardened_ns:>9.1} ns/pair   ({:.2}x)",
            hardened_ns / default_ns
        );
        hardened_rows.push((threads, default_ns, hardened_ns));
    }

    let mut report = BenchReport::new("global_contention", HARDENED_SEED).config(|c| {
        c.usize("target", TARGET)
            .usize("ops_per_thread", OPS_PER_THREAD)
            .usize("pool_chains", POOL_CHAINS)
            .usize("reps", REPS)
            .usize("hardened_ops", HARDENED_OPS)
            .usize("hardened_flush_every", HARDENED_FLUSH_EVERY)
            .usize("hardened_size", HARDENED_SIZE);
    });
    report.body().arr("results", &rows, |&(threads, ns), row| {
        row.usize("threads", threads).f64("pool_ns", ns, 1);
    });
    report.body().arr(
        "hardened",
        &hardened_rows,
        |&(threads, default_ns, hardened_ns), row| {
            row.usize("threads", threads)
                .f64("default_ns", default_ns, 1)
                .f64("hardened_ns", hardened_ns, 1)
                .f64("overhead_pct", 100.0 * (hardened_ns / default_ns - 1.0), 1);
        },
    );
    report.write_artifact("BENCH_global.json");

    // The hardened profile stays a bounded tax under contention.
    for (threads, default_ns, hardened_ns) in hardened_rows {
        assert!(
            hardened_ns <= default_ns * HARDENED_MAX_MULT,
            "hardened arena costs {hardened_ns:.1} ns/pair vs {default_ns:.1} \
             default at {threads} threads (over {HARDENED_MAX_MULT}x)"
        );
    }
}
