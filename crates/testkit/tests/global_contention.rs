//! Focused contention regression for the global layer.
//!
//! One lock guards each pool: its array of ready chains and the bucket
//! list beside it. These tests hammer both under that lock — concurrent
//! `put_odd` storms feeding the bucket while `get_chain` readers take
//! ready chains — and then assert the paper's regrouping contract: every
//! block is conserved, and the bucket regroups odd scraps back into
//! exactly-`target`-sized chains.
//!
//! The thread count honours `KMEM_GLOBAL_THREADS` (the CI sweep drives
//! 2/4/8), and `KMEM_TORTURE_FAULTS=1` arms the `global.get` failpoint so
//! injected misses interleave with real contention.

use std::sync::atomic::{AtomicUsize, Ordering};

use kmem::block::LinkKey;
use kmem::chain::Chain;
use kmem::global::GlobalPool;
use kmem::{faults, FailPolicy, Faults};

/// Backing store of fake blocks with stable addresses.
#[expect(clippy::vec_box)]
struct Blocks {
    store: Vec<Box<[u8; 32]>>,
    next: usize,
}

impl Blocks {
    fn new(n: usize) -> Self {
        Blocks {
            store: (0..n).map(|_| Box::new([0u8; 32])).collect(),
            next: 0,
        }
    }

    fn chain(&mut self, n: usize) -> Chain {
        let mut c = Chain::new();
        for _ in 0..n {
            // SAFETY: fake blocks are owned and disjoint.
            unsafe { c.push(self.store[self.next].as_mut_ptr()) };
            self.next += 1;
        }
        c
    }
}

fn discard(mut c: Chain) -> usize {
    let mut n = 0;
    while c.pop().is_some() {
        n += 1;
    }
    n
}

fn env_threads() -> usize {
    std::env::var("KMEM_GLOBAL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| (1..=64).contains(&t))
        .unwrap_or(4)
}

fn env_faults() -> bool {
    std::env::var("KMEM_TORTURE_FAULTS").is_ok_and(|v| v == "1")
}

/// The storm: every thread splits exact chains into odd scraps and feeds
/// them back through `put_odd`, while also taking chains via `get_chain` —
/// the bucket regroups while ready chains come and go. Afterwards
/// the pool must hold every block it was seeded with (minus counted
/// spills), grouped back into exact `target`-sized chains.
#[test]
fn put_odd_storm_regroups_exactly_and_conserves_blocks() {
    const TARGET: usize = 4;
    const OPS: usize = 10_000;
    let threads = env_threads();
    // Capacity comfortably above the seed so the storm itself never
    // spills; spills are still counted, not assumed absent.
    let seed_chains = threads * 4;
    let total_blocks = seed_chains * TARGET;
    let gbltarget = total_blocks; // bound 2x the seed

    let faults_handle = if env_faults() {
        Faults::with_plan()
    } else {
        Faults::none()
    };
    let pool = GlobalPool::new_hardened(TARGET, gbltarget, faults_handle.clone(), LinkKey::PLAIN);
    let mut blocks = Blocks::new(total_blocks);
    for _ in 0..seed_chains {
        assert!(pool.put_chain(blocks.chain(TARGET)).is_none());
    }
    if let Some(plan) = faults_handle.plan() {
        // Sparse injected misses: real traffic still dominates.
        plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(7));
    }

    let spilled = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for round in 0..OPS {
                    let Some(mut c) = pool.get_chain() else {
                        continue;
                    };
                    if round % 2 == 0 && c.len() > 1 {
                        // Tear the chain into two odd scraps and feed the
                        // bucket; the regroup path must rebuild them.
                        let cut = c.split_first(1);
                        for odd in [cut, c] {
                            if let Some(sp) = pool.put_odd(odd) {
                                spilled.fetch_add(discard(sp), Ordering::Relaxed);
                            }
                        }
                    } else {
                        // Exact-length round trip (short chains from
                        // bucket serves go odd).
                        let sp = if c.len() == TARGET {
                            pool.put_chain(c)
                        } else {
                            pool.put_odd(c)
                        };
                        if let Some(sp) = sp {
                            spilled.fetch_add(discard(sp), Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    if let Some(plan) = faults_handle.plan() {
        let stats = plan.site_stats();
        let s = stats
            .iter()
            .find(|s| s.site == faults::GLOBAL_GET)
            .expect("armed site must have been consulted");
        assert!(s.fired > 0, "faults armed but never fired: {s:?}");
        plan.set(faults::GLOBAL_GET, FailPolicy::Off);
    }

    // Conservation: nothing lost, nothing minted.
    let spilled = spilled.load(Ordering::Relaxed);
    assert_eq!(
        pool.len() + spilled,
        total_blocks,
        "blocks leaked or duplicated under the storm"
    );

    // Regrouping: quiescent drain yields exact `target`-sized chains, with
    // at most one short straggler (the bucket's final `< target` scraps).
    let mut drained = 0;
    let mut shorts = 0;
    while let Some(c) = pool.get_chain() {
        if c.len() != TARGET {
            shorts += 1;
            assert!(c.len() < TARGET, "overlong chain escaped `ready`");
        }
        drained += discard(c);
    }
    assert_eq!(drained + spilled, total_blocks);
    assert!(
        shorts <= 1,
        "{shorts} short chains drained — bucket failed to regroup"
    );
    assert!(pool.is_empty());

    // Quiescent counter partition across the whole storm.
    let st = pool.stats();
    assert_eq!(st.get_fast.get() + st.get_slow.get(), st.get());
    assert_eq!(st.put_fast.get() + st.put_slow.get(), st.put());
    assert!(st.put_odd.get() > 0, "storm never exercised put_odd");
}

/// Pure exact-chain ping-pong across threads — the CPU-to-CPU recycling
/// pattern the global layer exists for. Chains outnumber threads and the
/// block count is exact, so every get takes a ready chain and every put
/// lands within the bound: nothing ever takes the slow path.
#[test]
fn exact_chain_ping_pong_stays_on_the_fast_path() {
    const TARGET: usize = 8;
    const OPS: usize = 10_000;
    let threads = env_threads();
    let seed_chains = threads * 2;
    let total_blocks = seed_chains * TARGET;

    let pool = GlobalPool::new(TARGET, total_blocks);
    let mut blocks = Blocks::new(total_blocks);
    for _ in 0..seed_chains {
        assert!(pool.put_chain(blocks.chain(TARGET)).is_none());
    }

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..OPS {
                    if let Some(c) = pool.get_chain() {
                        assert_eq!(c.len(), TARGET, "ready chains must stay exact");
                        assert!(pool.put_chain(c).is_none(), "in-bound put spilled");
                    }
                }
            });
        }
    });

    assert_eq!(pool.len(), total_blocks, "ping-pong lost blocks");
    let st = pool.stats();
    assert_eq!(st.get_slow.get(), 0, "a get missed a ready chain");
    assert_eq!(st.put_slow.get(), 0, "an in-bound put took the slow path");
    assert_eq!(st.get_fast.get(), st.put_fast.get() - seed_chains as u64);
    discard(pool.drain_all());
}
