//! Page-layer contention: the coalesce-to-page layer, one lock per class.
//!
//! Real threads (or virtual CPUs) cycle short block chains through one
//! shared [`PageLayer`] — the refill/free traffic the global layer
//! generates under load — over the vmblk layer's boundary-tag lock, which
//! takes and returns whole pages.
//!
//! Three measurements are taken and all land in `BENCH_page.json`:
//!
//! * **Wall clock** on the host, ns per alloc+free pair per OS-thread
//!   count. Multi-thread points are scaling evidence only as far as the
//!   host has cores (`host_cpus`, `path_length_only` in the envelope).
//! * **Per-class fill and drain**, ns per block on one thread: the layer
//!   of each class from 16 B to 2 KB fills 256 fresh pages in
//!   `target`-block refills, then takes the blocks back in `target`-block
//!   chains shuffled from the report's seed — one class pass of the
//!   Figure-9 sweep, where the cost of a refill or a drain must not depend
//!   on how many blocks a page holds.
//! * **Simulated SMP**, the repo's methodology for pricing scaling the
//!   host cannot exhibit (Figure 7, `kmem-sim`): the same ring runs on N
//!   virtual CPUs of the discrete-event simulator, every probe-emitted
//!   shared-line access priced through the MESI model and every lock hold
//!   serializing its waiters.
//!
//! The asserted shape pin is on the per-class drain: no class may drain at
//! more than [`DRAIN_SPREAD`] times the 16-B class's cost per block, so a
//! drain that walks pages it does not free into fails here.
//!
//! Run: `cargo bench --features bench-ext --bench page_contention`.

use std::sync::Arc;
use std::sync::Barrier;
use std::time::Instant;

use kmem::chain::Chain;
use kmem::pagelayer::PageLayer;
use kmem::vmblklayer::VmblkLayer;
use kmem::ClassConfig;
use kmem_sim::{SimConfig, Simulator};
use kmem_testkit::Rng;
use kmem_vm::{KernelSpace, SpaceConfig, PAGE_SIZE};

const BLOCK_SIZE: usize = 512;
const CLASS: usize = 3;
/// Blocks per alloc/free chain; rings of these keep pages partial, so the
/// radix lists — not just page acquire/release — carry the contention.
const WANT: usize = 3;
/// Standing chains each thread holds, oldest freed before each alloc.
const RING: usize = 4;
const OPS_PER_THREAD: usize = 50_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per thread count; the minimum is reported.
const REPS: usize = 7;

/// Orders the per-class drain; recorded as the report's seed.
const SEED: u64 = 0x5EED_0C1A_55E5;
/// Pages each class fills and drains in the per-class probe.
const CLASS_PAGES: usize = 256;
/// The most any class's drain may cost per block, in multiples of the
/// 16-B class's.
const DRAIN_SPREAD: f64 = 4.0;

/// Simulated-SMP sweep points.
const SIM_CPUS: [usize; 4] = [1, 2, 4, 8];
const SIM_PAIRS_PER_CPU: u64 = 2_000;
/// Probe-free out-of-lock driver overhead per pair in cycles (the `calib`
/// convention).
const SIM_BASE: u64 = 60;

/// A page layer over its own vmblk layer.
struct Pool {
    vm: VmblkLayer,
    layer: PageLayer,
}

impl Pool {
    fn new(space: SpaceConfig, block_size: usize) -> Self {
        Pool {
            vm: VmblkLayer::new(Arc::new(KernelSpace::new(space)), true),
            layer: PageLayer::new(CLASS, block_size, true),
        }
    }

    /// The ring's pool: 512-B blocks, room for every thread's ring.
    fn ring() -> Self {
        Pool::new(
            SpaceConfig::new(32 << 20).vmblk_shift(16).phys_pages(2048),
            BLOCK_SIZE,
        )
    }

    fn alloc(&self, want: usize) -> Chain {
        self.layer
            .alloc_chain(&self.vm, want)
            .expect("bench sized for no pressure")
    }

    /// # Safety
    ///
    /// `chain` holds blocks allocated from this pool, each freed once.
    unsafe fn free(&self, chain: Chain) {
        // SAFETY: forwarded caller contract.
        unsafe { self.layer.free_chain(&self.vm, chain) };
    }

    fn assert_drained(&self) {
        self.layer.flush_full_pages(&self.vm);
        assert_eq!(self.layer.usage(), (0, 0), "bench leaked pages");
    }
}

/// Times `threads` × [`OPS_PER_THREAD`] free-oldest + alloc-replacement
/// pairs against a fresh pool; returns ns per pair.
fn run_pairs(threads: usize) -> f64 {
    let pool = Pool::ring();
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
                    // Standing ring: keeps pages partial so the radix lists,
                    // not just carve/merge, carry the traffic.
                    let mut ring: Vec<Chain> = (0..RING).map(|_| pool.alloc(WANT)).collect();
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..OPS_PER_THREAD {
                        let old = std::mem::replace(&mut ring[i % RING], pool.alloc(WANT));
                        // SAFETY: `old` was allocated from `pool` above.
                        unsafe { pool.free(old) };
                    }
                    let end = Instant::now();
                    for c in ring {
                        // SAFETY: ring chains were allocated from `pool`.
                        unsafe { pool.free(c) };
                    }
                    (start, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    pool.assert_drained();
    let start = spans.iter().map(|&(s, _)| s).min().unwrap();
    let end = spans.iter().map(|&(_, e)| e).max().unwrap();
    (end - start).as_nanos() as f64 / (threads * OPS_PER_THREAD) as f64
}

/// Runs the ring workload on `ncpus` virtual CPUs of the DES and returns
/// (pairs per simulated second, fraction of CPU-time spent lock-waiting).
fn sim_point(ncpus: usize) -> (f64, f64) {
    let pool = Pool::ring();
    // Rings are built (and torn down) outside the recording window, as
    // the wall-clock runs build theirs before the barrier.
    let mut rings: Vec<Vec<Chain>> = (0..ncpus)
        .map(|_| (0..RING).map(|_| pool.alloc(WANT)).collect())
        .collect();
    let mut next = vec![0usize; ncpus];
    let result = Simulator::new(SimConfig::new(ncpus, SIM_PAIRS_PER_CPU)).run(|vcpu| {
        let i = next[vcpu];
        next[vcpu] = (i + 1) % RING;
        let old = std::mem::replace(&mut rings[vcpu][i], pool.alloc(WANT));
        // SAFETY: `old` was allocated from `pool` above.
        unsafe { pool.free(old) };
        SIM_BASE
    });
    for ring in rings {
        for c in ring {
            // SAFETY: ring chains were allocated from `pool`.
            unsafe { pool.free(c) };
        }
    }
    pool.assert_drained();
    let wait_frac =
        result.lock_wait_cycles as f64 / (result.elapsed_cycles.max(1) as f64 * ncpus as f64);
    (result.ops_per_sec(), wait_frac)
}

/// Fills [`CLASS_PAGES`] fresh pages of `block_size`-byte blocks through
/// `target`-block refills, then drains them through `target`-block
/// chains in seeded shuffled order. Returns (fill, drain) in ns per
/// block, each the minimum over [`REPS`] passes after a warm-up pass.
fn class_fill_drain(block_size: usize) -> (f64, f64) {
    let target = ClassConfig::with_heuristics(block_size).target;
    let blocks = CLASS_PAGES * (PAGE_SIZE / block_size);
    // One default-sized (4 MB) vmblk holds all the pages, as in an arena.
    let pool = Pool::new(SpaceConfig::new(32 << 20), block_size);
    let mut rng = Rng::new(SEED ^ block_size as u64);
    let mut held: Vec<Chain> = Vec::with_capacity(blocks / target + 1);
    let mut ptrs: Vec<*mut u8> = Vec::with_capacity(blocks + target);
    let (mut fill, mut drain) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..=REPS {
        let mut got = 0;
        let start = Instant::now();
        while got < blocks {
            let chain = pool.alloc(target);
            got += chain.len();
            held.push(chain);
        }
        let fill_ns = start.elapsed().as_nanos() as f64 / got as f64;
        for mut chain in held.drain(..) {
            while let Some(blk) = chain.pop() {
                ptrs.push(blk);
            }
        }
        rng.shuffle(&mut ptrs);
        for group in ptrs.chunks(target) {
            let mut chain = Chain::new();
            for &blk in group {
                // SAFETY: popped from this pool's chains above; each
                // block enters exactly one chain.
                unsafe { chain.push(blk) };
            }
            held.push(chain);
        }
        let start = Instant::now();
        for chain in held.drain(..) {
            // SAFETY: the chain holds free blocks of this pool's class.
            unsafe { pool.free(chain) };
        }
        let drain_ns = start.elapsed().as_nanos() as f64 / got as f64;
        ptrs.clear();
        if rep > 0 {
            fill = fill.min(fill_ns);
            drain = drain.min(drain_ns);
        }
    }
    pool.assert_drained();
    (fill, drain)
}

fn main() {
    // Wall clock: scaling evidence only as far as the host has cores.
    let mut wall = Vec::new();
    for threads in THREAD_COUNTS {
        // Warm-up pass absorbs thread-spawn and first-touch costs; the
        // minimum of the timed passes filters out scheduler spikes.
        let _ = run_pairs(threads);
        let ns = (0..REPS)
            .map(|_| run_pairs(threads))
            .fold(f64::INFINITY, f64::min);
        println!("page_contention/wall {threads:>2} threads   {ns:>8.1} ns/pair");
        wall.push((threads, ns));
    }

    // Per class: what a block costs to fill and to drain, 16 B to 2 KB.
    let mut per_class = Vec::new();
    for shift in 4..=11 {
        let (fill, drain) = class_fill_drain(1 << shift);
        println!(
            "page_contention/class {:>4} B   fill {fill:>6.1} ns/block   drain {drain:>6.1} ns/block",
            1 << shift
        );
        per_class.push((1usize << shift, fill, drain));
    }

    // Simulated SMP.
    let mut sim = Vec::new();
    for ncpus in SIM_CPUS {
        let (rate, wait) = sim_point(ncpus);
        println!(
            "page_contention/sim  {ncpus:>2} cpus      {rate:>9.0} pairs/s   (lock-wait {:>4.1}%)",
            wait * 100.0
        );
        sim.push((ncpus, rate, wait));
    }

    let mut report = kmem_bench::BenchReport::new("page_contention", SEED).config(|c| {
        c.usize("block_size", BLOCK_SIZE)
            .usize("chain_len", WANT)
            .usize("ops_per_thread", OPS_PER_THREAD)
            .usize("class_pages", CLASS_PAGES);
    });
    report.body().arr("wall", &wall, |&(threads, ns), row| {
        row.usize("threads", threads).f64("ns_per_pair", ns, 1);
    });
    report
        .body()
        .arr("per_class", &per_class, |&(size, fill, drain), row| {
            row.usize("block_size", size)
                .f64("fill_ns_per_block", fill, 1)
                .f64("drain_ns_per_block", drain, 1);
        });
    report.body().obj("sim", |s| {
        s.u64("pairs_per_cpu", SIM_PAIRS_PER_CPU)
            .u64("base_cycles", SIM_BASE)
            .arr("results", &sim, |&(ncpus, rate, wait), row| {
                row.usize("cpus", ncpus).f64("pairs_per_sec", rate, 0).f64(
                    "lock_wait_frac",
                    wait,
                    3,
                );
            });
    });
    report.write_artifact("BENCH_page.json");

    // Shape pin: a drain costs O(blocks moved) in every class.
    let floor = per_class[0].2;
    for &(size, _, drain) in &per_class {
        assert!(
            drain <= DRAIN_SPREAD * floor,
            "{size}-B class drains at {drain:.1} ns/block, over {DRAIN_SPREAD}x \
             the 16-B class's {floor:.1}"
        );
    }
}
