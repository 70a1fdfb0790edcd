//! Prices the global layer on the paper's 25-CPU Sequent Symmetry
//! configuration, at 1, 8 and 25 simulated CPUs.
//!
//! The workload is the pattern the global layer exists for (paper §3.2):
//! every CPU repeatedly takes an intact `target`-sized chain and hands one
//! back — pure CPU-to-CPU chain recycling, each direction one acquisition
//! of the pool lock. The discrete-event engine prices every probe event
//! (lock hand-offs, spin-bus interference), so the figure is simulated
//! time, not host wall time.
//!
//! The figures, stated plainly: 43 248 simulated cycles on one CPU,
//! 518 296 on 8, and 3 333 952 on 25, nearly all of the last lock wait
//! (79 314 708 cycles summed over the CPUs). The lock-free stack this
//! pool replaced priced 97 600 cycles on the same run, because the engine
//! charged its tag-CAS as a line transfer with no waiting; the engine
//! prices a lock-held pair the same whatever the lock guards, so this is
//! also the figure of any one-lock pool. In the allocator the per-CPU
//! layer keeps the lock to one visit per `target` operations, which this
//! workload leaves out; on the wall clock the two tie on `handoff`
//! (DESIGN.md §9).

use kmem::global::GlobalPool;
use kmem_baselines::spin::{backing, chain, discard};
use kmem_sim::{SimConfig, SimResult, Simulator};

const OPS: u64 = 400;
const TARGET: usize = 4;
const SEED_CHAINS: usize = 8;
/// Calibrated probe-free base cost of a get/put pair (cycles).
const BASE: u64 = 60;

/// Runs the ping-pong on `ncpus` simulated CPUs over a seeded pool.
fn run(ncpus: usize) -> SimResult {
    let mut store = backing(SEED_CHAINS * TARGET);
    let pool = GlobalPool::new(TARGET, SEED_CHAINS * TARGET);
    for i in 0..SEED_CHAINS {
        assert!(pool
            .put_chain(chain(&mut store, i * TARGET..(i + 1) * TARGET))
            .is_none());
    }
    let result = Simulator::new(SimConfig::new(ncpus, OPS)).run(|_| {
        let c = pool.get_chain().expect("pool seeded above demand");
        assert!(pool.put_chain(c).is_none());
        BASE
    });
    assert_eq!(pool.len(), SEED_CHAINS * TARGET, "the run lost blocks");
    discard(pool.drain_all());
    result
}

#[test]
fn global_pool_prices_deterministically_at_1_8_and_25_cpus() {
    for ncpus in [1, 8, 25] {
        let first = run(ncpus);
        let again = run(ncpus);
        assert_eq!(first.total_ops, ncpus as u64 * OPS, "{first:?}");
        assert_eq!(
            (first.elapsed_cycles, first.lock_wait_cycles, first.accesses),
            (again.elapsed_cycles, again.lock_wait_cycles, again.accesses),
            "the engine must replay identically at {ncpus} CPUs"
        );
        if ncpus == 1 {
            assert_eq!(first.lock_wait_cycles, 0, "one CPU never waits");
        } else {
            assert!(first.lock_wait_cycles > 0, "{ncpus} CPUs never contended");
        }
        // Visible under `--nocapture`; EXPERIMENTS.md records these.
        println!(
            "global pool @ {ncpus:>2} CPUs: {} cycles ({} lock-wait)",
            first.elapsed_cycles, first.lock_wait_cycles
        );
    }
}
