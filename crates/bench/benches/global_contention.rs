//! Global-layer contention: lock-free Treiber stack vs spinlocked pool.
//!
//! Real OS threads ping-pong intact `target`-sized chains through a shared
//! pool — the CPU-to-CPU recycling pattern of paper §3.2 — once through
//! the lock-free [`GlobalPool`] (one tag-CAS per direction) and once
//! through the naive spinlocked `Vec<Chain>` the rework replaced. Reports
//! ns per get/put pair for each thread count and writes the sweep to
//! `BENCH_global.json` at the workspace root (hand-rolled JSON; the
//! workspace is hermetic).
//!
//! Run: `cargo bench --features bench-ext --bench global_contention`.
//!
//! On a loaded or single-core host the absolute numbers are noise, but
//! the *comparison* still holds (both sides run the identical workload,
//! and the reported figure is the min over interleaved repetitions, so
//! scheduler spikes are filtered out of both sides alike), so the
//! ≥ 8-thread shape pin — lock-free no slower than spinlocked — is
//! asserted here rather than eyeballed.

use std::sync::Barrier;
use std::time::Instant;

use kmem::chain::Chain;
use kmem::global::GlobalPool;
use kmem::{HardenedConfig, KmemConfig};
use kmem_baselines::spin::{backing, chain, discard, SpinPool};
use kmem_bench::{arena_contended_pair_ns, BenchReport};

const TARGET: usize = 4;
const OPS_PER_THREAD: usize = 100_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per (pool, thread count); the minimum is reported.
const REPS: usize = 7;
/// Pool depth in chains, fixed across thread counts: a gbltarget-scale
/// pool riding near its bound, as in a tuned deployment. Depth matters
/// because the replaced design re-summed every chain on the list under
/// the lock on *every* put (its bound check), an O(depth) walk the
/// lock-free pool's derived block count eliminates.
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

/// The two pools under one interface.
trait ChainPool: Sync {
    fn get(&self) -> Option<Chain>;
    fn put(&self, c: Chain);
    fn drain(&self);
}

impl ChainPool for GlobalPool {
    fn get(&self) -> Option<Chain> {
        self.get_chain()
    }

    fn put(&self, c: Chain) {
        assert!(
            self.put_chain(c).is_none(),
            "bench pool sized to never spill"
        );
    }

    fn drain(&self) {
        discard(self.drain_all());
    }
}

/// The pre-rework design: one lock around the whole pool.
impl ChainPool for SpinPool {
    fn get(&self) -> Option<Chain> {
        SpinPool::get(self)
    }

    fn put(&self, c: Chain) {
        SpinPool::put(self, c);
    }

    fn drain(&self) {
        SpinPool::drain(self);
    }
}

/// Times `threads` × [`OPS_PER_THREAD`] get/put pairs against `pool`,
/// which must be pre-seeded; returns ns per pair.
fn run_pairs(pool: &dyn ChainPool, threads: usize) -> f64 {
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
                        if let Some(c) = pool.get() {
                            pool.put(c);
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

fn bench_spin(threads: usize) -> f64 {
    let mut store = backing(POOL_CHAINS * TARGET);
    // Same headroom as the lock-free pool below.
    let pool = SpinPool::new(POOL_CHAINS * TARGET);
    for i in 0..POOL_CHAINS {
        pool.put(chain(&mut store, i * TARGET..(i + 1) * TARGET));
    }
    let ns = run_pairs(&pool, threads);
    pool.drain();
    ns
}

fn bench_lockfree(threads: usize) -> f64 {
    let mut store = backing(POOL_CHAINS * TARGET);
    // gbltarget sized so the bound (2 * gbltarget) is never exceeded:
    // every put rides the fast path, as in a tuned deployment.
    let pool = GlobalPool::new(TARGET, POOL_CHAINS * TARGET);
    for i in 0..POOL_CHAINS {
        pool.put(chain(&mut store, i * TARGET..(i + 1) * TARGET));
    }
    let ns = run_pairs(&pool, threads);
    pool.drain();
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
        let _ = bench_spin(threads);
        let _ = bench_lockfree(threads);
        // Interleaved repetitions, min of each side: the intrinsic
        // per-pair cost with scheduler interference (which dominates an
        // oversubscribed host) filtered out of both pools alike.
        let mut spin = f64::INFINITY;
        let mut lockfree = f64::INFINITY;
        for _ in 0..REPS {
            spin = spin.min(bench_spin(threads));
            lockfree = lockfree.min(bench_lockfree(threads));
        }
        println!(
            "global_contention/{threads:>2} threads   spinlock {spin:>9.1} ns/pair   \
             lock-free {lockfree:>9.1} ns/pair   ({:.2}x)",
            spin / lockfree
        );
        rows.push((threads, spin, lockfree));
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
    report
        .body()
        .arr("results", &rows, |&(threads, spin, lockfree), row| {
            row.usize("threads", threads)
                .f64("spinlock_ns", spin, 1)
                .f64("lockfree_ns", lockfree, 1);
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

    // Shape pin: at every measured count of 8+ threads the lock-free
    // layer must not lose to the lock it replaced.
    for (threads, spin, lockfree) in rows {
        if threads >= 8 {
            assert!(
                lockfree < spin,
                "lock-free pool slower than spinlock at {threads} threads: \
                 {lockfree:.1} vs {spin:.1} ns/pair"
            );
        }
    }
    // And the hardened profile stays a bounded tax under contention.
    for (threads, default_ns, hardened_ns) in hardened_rows {
        assert!(
            hardened_ns <= default_ns * HARDENED_MAX_MULT,
            "hardened arena costs {hardened_ns:.1} ns/pair vs {default_ns:.1} \
             default at {threads} threads (over {HARDENED_MAX_MULT}x)"
        );
    }
}
