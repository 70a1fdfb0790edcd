//! Focused contention regression for the page layer over the vmblk layer.
//!
//! The page layer is one spinlock per class, and a page that drains
//! completely goes back to the vmblk layer from under it (lock order
//! class → vmblk). These tests hammer that whole stack with real threads —
//! chain rings churning the radix lists, periodic full drains forcing
//! coalesce-to-page and whole pages back through the boundary-tag lock —
//! and then assert the conservation contract: every page and block
//! accounted for, the layer and the vmblk span structure both drained to
//! empty.
//!
//! The thread count honours `KMEM_PAGE_THREADS` (the CI sweep drives
//! 2/4/8), and `KMEM_TORTURE_FAULTS=1` arms the `page.get` and
//! `page.coalesce` failpoints so injected misses and deferred coalesces
//! interleave with real contention.

use std::collections::VecDeque;

use kmem::block::LinkKey;
use kmem::chain::Chain;
use kmem::pagelayer::PageLayer;
use kmem::vmblklayer::VmblkLayer;
use kmem::{faults, FailPolicy, Faults};
use kmem_vm::{KernelSpace, SpaceConfig};
use std::sync::Arc;

const BLOCK_SIZE: usize = 512;
const CLASS: usize = 3;
/// Blocks per alloc/free chain, as in the page-contention bench.
const WANT: usize = 3;
/// Standing chains each thread holds, oldest freed before each alloc.
const RING: usize = 4;
/// Every this many rounds a thread frees its whole ring, driving page
/// counts to `blocks_per_page` so coalesce-to-page and the vmblk layer
/// see traffic even single-threaded.
const DRAIN_EVERY: usize = 64;
const OPS: usize = 6_000;

fn space() -> Arc<KernelSpace> {
    Arc::new(KernelSpace::new(
        SpaceConfig::new(32 << 20).vmblk_shift(16).phys_pages(2048),
    ))
}

fn env_threads() -> usize {
    std::env::var("KMEM_PAGE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| (1..=64).contains(&t))
        .unwrap_or(4)
}

fn env_faults() -> bool {
    std::env::var("KMEM_TORTURE_FAULTS").is_ok_and(|v| v == "1")
}

/// The storm: every thread rings short chains through one shared layer —
/// the refill/free pattern the global layer generates — with periodic
/// full drains so pages cross the empty↔full boundary under fire. With
/// faults armed, allocation failures and deferred coalesces are injected
/// throughout; the recovery pass (`flush_full_pages`)
/// must still find and release every fault-stranded full page, and not a
/// page or block may be lost either way.
#[test]
fn ring_storm_conserves_pages_and_blocks() {
    ring_storm(BLOCK_SIZE, WANT);
}

/// The same storm over 32-byte blocks: 129 buckets under a three-word
/// bitmap, ten-block chains walking pages down through them.
#[test]
fn ring_storm_conserves_pages_across_summary_words() {
    ring_storm(32, 10);
}

fn ring_storm(block_size: usize, want: usize) {
    let threads = env_threads();
    let faults_handle = if env_faults() {
        Faults::with_plan()
    } else {
        Faults::none()
    };
    let vm = VmblkLayer::new(space(), true);
    let layer = PageLayer::new_hardened(
        CLASS,
        block_size,
        true,
        faults_handle.clone(),
        LinkKey::PLAIN,
        None,
        false,
    );

    const ARMED: [(&str, u64); 2] = [
        // Sparse injected misses: real traffic still dominates.
        (faults::PAGE_GET, 13),
        (faults::PAGE_COALESCE, 5),
    ];
    if let Some(plan) = faults_handle.plan() {
        for (site, nth) in ARMED {
            plan.set(site, FailPolicy::EveryNth(nth));
        }
    }

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut ring: VecDeque<Chain> = VecDeque::with_capacity(RING);
                for round in 0..OPS {
                    if ring.len() == RING {
                        let c = ring.pop_front().unwrap();
                        // SAFETY: ring chains came from this layer.
                        unsafe { layer.free_chain(&vm, c) };
                    }
                    match layer.alloc_chain(&vm, want) {
                        // Injected PAGE_GET miss (or real exhaustion):
                        // the caller retries next round, as the global
                        // layer would.
                        Err(_) => continue,
                        Ok(c) if c.is_empty() => continue,
                        Ok(c) => ring.push_back(c),
                    }
                    if round % DRAIN_EVERY == DRAIN_EVERY - 1 {
                        for c in ring.drain(..) {
                            // SAFETY: as above.
                            unsafe { layer.free_chain(&vm, c) };
                        }
                    }
                }
                for c in ring.drain(..) {
                    // SAFETY: as above.
                    unsafe { layer.free_chain(&vm, c) };
                }
            });
        }
    });

    if let Some(plan) = faults_handle.plan() {
        let stats = plan.site_stats();
        for (site, _) in ARMED {
            let s = stats
                .iter()
                .find(|s| s.site == site)
                .expect("armed site must have been consulted");
            assert!(s.fired > 0, "faults armed but never fired: {s:?}");
            plan.set(site, FailPolicy::Off);
        }
    }

    // Recovery + teardown: settle fault-stranded full pages, and
    // everything must come back to zero.
    layer.flush_full_pages(&vm);
    assert_eq!(layer.usage(), (0, 0), "pages or blocks leaked");
    let st = layer.stats();
    assert_eq!(
        st.page_acquires.get(),
        st.page_releases.get(),
        "page acquire/release imbalance"
    );
    assert!(st.block_frees.get() > 0, "storm never freed a block");
    let vst = vm.stats();
    assert_eq!(vst.span_allocs, vst.span_frees, "span alloc/free imbalance");
    assert_eq!(
        vst.vmblks_created, vst.vmblks_released,
        "empty vmblks not released"
    );
    vm.verify();
}
