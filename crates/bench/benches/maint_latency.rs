//! Tail latency of the slow path: maintenance core vs inline drains.
//!
//! The maintenance core does not make the *mean* allocation cheaper — it
//! moves the locked global-layer work (the settle a put leaves owed:
//! regroup, trim, spill) off the hot CPU's critical path and onto a
//! background thread, in exchange for one wait-free mailbox post. The honest win criterion is therefore the
//! *tail*: the p99/p999 of the per-iteration latency distribution, where
//! the inline configuration pays the lock-and-walk cost every time a
//! flush crosses the global layer and the core configuration pays the
//! put's pool lock and a single tagged-counter RMW.
//!
//! Each thread runs grow/shrink waves: allocate [`BURST`] blocks into a
//! stash, then free them all, repeatedly (connection-churn traffic, not
//! a closed loop — a closed alloc/free loop balances global-layer
//! inflow against refill outflow and the trim threshold never sustains
//! pressure). During a free burst the per-CPU cache overflows every
//! `target` frees and the global layer sits past its bound, so the
//! inline profile pays the locked trim-and-spill into the page layer on
//! ~6% of iterations — well above the p99 cut — while the core profile
//! lands the same chains and posts a deduplicated `Settle`.
//! Every iteration is timed individually; the sides are identical
//! except `MaintConfig` and the presence of the background pump.
//!
//! Published numbers are the minimum over [`REPS`] repetitions per side
//! (per-rep percentiles; the min filters scheduler interference, which
//! hits both sides alike on a loaded host). Emits `BENCH_maint.json` at
//! the repo root and self-asserts the win shape at [`ASSERT_THREADS`]+
//! threads: core p99 and p999 strictly below inline, mean within
//! [`MEAN_SLACK`] of inline.
//!
//! Run with: `cargo bench --features bench-ext --bench maint_latency`

use std::sync::Barrier;
use std::time::Instant;

use kmem::{KmemArena, KmemConfig, MaintConfig};
use kmem_bench::BenchReport;
use kmem_vm::SpaceConfig;

const SIZE: usize = 256;
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];
const OPS_PER_THREAD: usize = 20_000;
/// Blocks per grow/shrink wave. Each free burst drives ~BURST/target
/// overflow puts through a global layer already past its bound — the
/// sustained net inflow that makes trim work land on the hot CPU in the
/// inline profile.
const BURST: usize = 256;
/// Flush period: keeps drain requests serviced and adds occasional
/// odd-chain evictions on top of the burst traffic.
const FLUSH_EVERY: usize = 64;
/// Timed repetitions per (side, thread count); minima are published.
const REPS: usize = 5;
/// Thread counts at which the tail-latency win is asserted.
const ASSERT_THREADS: usize = 8;
/// Allowed mean regression for the core side: the offload buys tail,
/// not throughput, and must not tax the average by more than this.
const MEAN_SLACK: f64 = 1.10;

#[derive(Clone, Copy)]
struct LatSummary {
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// One timed run: every thread times each iteration (alloc/free pair
/// plus the periodic flush) individually; returns the merged summary.
fn run_once(maint: bool, threads: usize) -> LatSummary {
    // A tight global bound (gbltarget = target = 8) keeps the global
    // layer permanently at its trim threshold under the ring churn, so
    // overflow puts continually cross it: the inline profile pays the
    // trim-and-spill into the page layer inside the timed iteration,
    // the core profile hands the same work to the maintenance thread.
    let mut config =
        KmemConfig::new(threads, SpaceConfig::new(16 << 20).vmblk_shift(18)).set_class(SIZE, 8, 8);
    if maint {
        config = config.maint(MaintConfig::on());
    }
    let arena = KmemArena::new(config).unwrap();
    let pump = arena.start_maint_thread();
    let cookie = arena.cookie_for(SIZE).unwrap();
    let barrier = Barrier::new(threads);
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let arena = &arena;
                let barrier = &barrier;
                s.spawn(move || {
                    let cpu = arena.register_cpu().unwrap();
                    let mut stash: Vec<std::ptr::NonNull<u8>> = Vec::with_capacity(BURST);
                    let mut growing = true;
                    let mut samples = Vec::with_capacity(OPS_PER_THREAD);
                    barrier.wait();
                    for i in 1..=OPS_PER_THREAD {
                        let t0 = Instant::now();
                        if growing {
                            let p = cpu.alloc_cookie(cookie).unwrap();
                            std::hint::black_box(p);
                            stash.push(p);
                            growing = stash.len() < BURST;
                        } else {
                            let p = stash.pop().unwrap();
                            // SAFETY: allocated by this loop, freed once.
                            unsafe { cpu.free_cookie(p, cookie) };
                            growing = stash.is_empty();
                        }
                        if i % FLUSH_EVERY == 0 {
                            cpu.flush();
                        }
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    for p in stash {
                        // SAFETY: allocated above, freed exactly once.
                        unsafe { cpu.free_cookie(p, cookie) };
                    }
                    cpu.flush();
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    drop(pump);
    if maint {
        // The offload must actually have been exercised, and the final
        // pump must have settled the mailbox exactly.
        let snap = arena.snapshot();
        assert!(snap.maint.posted > 0, "core side never posted work");
        assert_eq!(arena.maint_backlog(), 0, "pump left a backlog");
        assert_eq!(snap.maint.drained, snap.maint.posted - snap.maint.deduped);
    }
    all.sort_unstable();
    if std::env::var("KMEM_MAINT_BENCH_DEBUG").is_ok() {
        let side = if maint { "core" } else { "inline" };
        let qs = [0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 1.0];
        let ladder: Vec<String> = qs
            .iter()
            .map(|&q| format!("p{:.2}={:.0}", 100.0 * q, percentile(&all, q)))
            .collect();
        let snap = arena.snapshot();
        let (mut pf, mut ps, mut pm, mut spill) = (0u64, 0u64, 0u64, 0u64);
        for cs in &snap.classes {
            pf += cs.global.put_fast;
            ps += cs.global.put_slow;
            pm += cs.global.put_miss;
            spill += cs.global.spill_blocks;
        }
        eprintln!(
            "DEBUG {side}/{threads}t: {} | put_fast={pf} put_slow={ps} \
             put_miss={pm} spill_blocks={spill} maint={:?}",
            ladder.join(" "),
            snap.maint
        );
    }
    LatSummary {
        mean_ns: all.iter().sum::<u64>() as f64 / all.len() as f64,
        p50_ns: percentile(&all, 0.50),
        p99_ns: percentile(&all, 0.99),
        p999_ns: percentile(&all, 0.999),
    }
}

/// Min-of-reps per field: the intrinsic distribution with scheduler
/// spikes (which inflate every field independently) filtered out.
fn bench_side(maint: bool, threads: usize) -> LatSummary {
    let _ = run_once(maint, threads); // warm-up
    let mut best = LatSummary {
        mean_ns: f64::INFINITY,
        p50_ns: f64::INFINITY,
        p99_ns: f64::INFINITY,
        p999_ns: f64::INFINITY,
    };
    for _ in 0..REPS {
        let s = run_once(maint, threads);
        best.mean_ns = best.mean_ns.min(s.mean_ns);
        best.p50_ns = best.p50_ns.min(s.p50_ns);
        best.p99_ns = best.p99_ns.min(s.p99_ns);
        best.p999_ns = best.p999_ns.min(s.p999_ns);
    }
    best
}

fn main() {
    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let inline = bench_side(false, threads);
        let core = bench_side(true, threads);
        println!(
            "maint_latency/{threads} threads   inline p99 {:>8.0} p999 {:>8.0} ns   \
             core p99 {:>8.0} p999 {:>8.0} ns   (mean {:.0} vs {:.0})",
            inline.p99_ns, inline.p999_ns, core.p99_ns, core.p999_ns, inline.mean_ns, core.mean_ns
        );
        rows.push((threads, inline, core));
    }

    let side = |s: &LatSummary, obj: &mut kmem_bench::JsonObj| {
        obj.f64("mean_ns", s.mean_ns, 1)
            .f64("p50_ns", s.p50_ns, 0)
            .f64("p99_ns", s.p99_ns, 0)
            .f64("p999_ns", s.p999_ns, 0);
    };
    let mut report = BenchReport::new("maint_latency", 0).config(|c| {
        c.usize("size", SIZE)
            .usize("ops_per_thread", OPS_PER_THREAD)
            .usize("flush_every", FLUSH_EVERY)
            .usize("reps", REPS);
    });
    report
        .body()
        .arr("results", &rows, |(threads, inline, core), row| {
            row.usize("threads", *threads)
                .obj("inline", |o| side(inline, o))
                .obj("core", |o| side(core, o));
        });
    report.write_artifact("BENCH_maint.json");

    // Win shape: at high thread counts the core must buy the tail
    // without taxing the mean.
    for (threads, inline, core) in rows {
        if threads >= ASSERT_THREADS {
            assert!(
                core.p99_ns < inline.p99_ns,
                "core p99 {:.0} ns not below inline {:.0} ns at {threads} threads",
                core.p99_ns,
                inline.p99_ns
            );
            assert!(
                core.p999_ns < inline.p999_ns,
                "core p999 {:.0} ns not below inline {:.0} ns at {threads} threads",
                core.p999_ns,
                inline.p999_ns
            );
            assert!(
                core.mean_ns <= inline.mean_ns * MEAN_SLACK,
                "core mean {:.1} ns taxes inline {:.1} ns by more than {MEAN_SLACK}x \
                 at {threads} threads",
                core.mean_ns,
                inline.mean_ns
            );
        }
    }
}
