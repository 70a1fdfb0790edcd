//! Prices the lock-free global layer against a spinlocked equivalent on
//! the paper's 25-CPU Sequent Symmetry configuration.
//!
//! The workload is the pattern the global layer exists for (paper §3.2):
//! every CPU repeatedly takes an intact `target`-sized chain and hands one
//! back — pure CPU-to-CPU chain recycling. The Treiber-stack pool does it
//! with one tag-CAS per direction; the baseline ([`SpinPool`]) guards a
//! `Vec<Chain>` with a spinlock. Both run under the discrete-event engine,
//! which prices every probe event (shared-line reads/writes, lock
//! hand-offs, spin-bus interference), so the comparison is the simulated
//! Figure-7 delta, not host wall time.

use kmem::global::GlobalPool;
use kmem_baselines::spin::{backing, chain, discard, SpinPool};
use kmem_sim::{SimConfig, Simulator};

const NCPUS: usize = 25;
const OPS: u64 = 400;
const TARGET: usize = 4;
const SEED_CHAINS: usize = 8;
/// Calibrated probe-free base cost of a get/put pair (cycles).
const BASE: u64 = 60;

#[test]
fn lock_free_global_beats_spinlocked_pool_at_25_cpus() {
    // Spinlocked baseline.
    let mut store = backing(SEED_CHAINS * TARGET);
    let spin = SpinPool::new(SEED_CHAINS * TARGET);
    for i in 0..SEED_CHAINS {
        spin.put(chain(&mut store, i * TARGET..(i + 1) * TARGET));
    }
    let spin_result = Simulator::new(SimConfig::new(NCPUS, OPS)).run(|_| {
        let c = spin.get().expect("pool seeded above demand");
        spin.put(c);
        BASE
    });
    spin.drain();

    // Lock-free global pool, same seed, same op mix.
    let mut store = backing(SEED_CHAINS * TARGET);
    let pool = GlobalPool::new(TARGET, SEED_CHAINS * TARGET);
    for i in 0..SEED_CHAINS {
        assert!(pool
            .put_chain(chain(&mut store, i * TARGET..(i + 1) * TARGET))
            .is_none());
    }
    let cas_result = Simulator::new(SimConfig::new(NCPUS, OPS)).run(|_| {
        let c = pool.get_chain().expect("pool seeded above demand");
        assert!(pool.put_chain(c).is_none());
        BASE
    });
    discard(pool.drain_all());

    // The stack head still bounces between caches — that traffic is real
    // and must be priced...
    assert!(
        cas_result.remote_transfers > 0,
        "lock-free run priced no cross-CPU line transfers: {cas_result:?}"
    );
    // ...but no CPU ever waits on a lock,
    assert_eq!(
        cas_result.lock_wait_cycles, 0,
        "lock-free run waited on a lock: {cas_result:?}"
    );
    // while the spinlocked pool serializes every op pair,
    assert!(
        spin_result.lock_wait_cycles > 0,
        "baseline never contended — workload too light: {spin_result:?}"
    );
    // and at 25 CPUs the serialization dominates: the lock-free layer is
    // strictly faster in simulated time.
    assert!(
        cas_result.elapsed_cycles < spin_result.elapsed_cycles,
        "lock-free {} cycles vs spinlocked {} cycles",
        cas_result.elapsed_cycles,
        spin_result.elapsed_cycles
    );
    // Sanity: both runs completed the same op count.
    assert_eq!(cas_result.total_ops, spin_result.total_ops);

    // Visible under `--nocapture`; EXPERIMENTS.md records these.
    println!(
        "global contention @ {NCPUS} CPUs: spinlocked {} cycles \
         ({} lock-wait), lock-free {} cycles ({} lock-wait, {} remote \
         transfers) — {:.2}x",
        spin_result.elapsed_cycles,
        spin_result.lock_wait_cycles,
        cas_result.elapsed_cycles,
        cas_result.lock_wait_cycles,
        cas_result.remote_transfers,
        spin_result.elapsed_cycles as f64 / cas_result.elapsed_cycles as f64,
    );
}
