//! Model-based coverage of the radix-sorted per-page freelists: under a
//! mixed alloc/free workload, allocation must prefer the pages with the
//! fewest free blocks, and fully freed pages must leave the list (and
//! return their frame).

use std::collections::HashMap;
use std::sync::Arc;

use kmem::chain::Chain;
use kmem::pagelayer::PageLayer;
use kmem::vmblklayer::VmblkLayer;
use kmem_testkit::Rng;
use kmem_vm::{KernelSpace, SpaceConfig, PAGE_SIZE};

const BLOCK_SIZE: usize = 512;

fn setup(block_size: usize, radix: bool) -> (VmblkLayer, PageLayer) {
    let space = Arc::new(KernelSpace::new(
        SpaceConfig::new(4 << 20).vmblk_shift(16).phys_pages(256),
    ));
    let vm = VmblkLayer::new(space, true);
    let layer = PageLayer::new(3, block_size, radix);
    (vm, layer)
}

fn page_of(block: usize) -> usize {
    block & !(PAGE_SIZE - 1)
}

/// Collects the listed (free_count) multiset straight from the layer.
fn listed_counts(layer: &PageLayer) -> Vec<usize> {
    let mut counts = Vec::new();
    layer.for_each_page(|count, listed| {
        assert_eq!(count, listed, "free_count disagrees with freelist length");
        counts.push(count);
    });
    counts.sort_unstable();
    counts
}

/// A mixed workload driven against a shadow model (page address →
/// expected free count). After every operation the layer's listed pages
/// must match the model, no listed page may be fully free (such pages are
/// released immediately), and single-block refills must come from a page
/// with the minimum free count — the radix policy — or, under the
/// `radix = false` ablation, the maximum.
fn mixed_workload_obeys_policy(block_size: usize, radix: bool) {
    let (vm, layer) = setup(block_size, radix);
    let bpp = layer.blocks_per_page();
    assert_eq!(bpp, PAGE_SIZE / block_size);

    let mut rng = Rng::new(0x5261_6469_7854); // "RadixT"
    let mut held: Vec<usize> = Vec::new();
    // page base -> free blocks in that page (0 = owned but unlisted).
    let mut model: HashMap<usize, usize> = HashMap::new();
    let mut preference_checks = 0u32;

    for _ in 0..600 {
        if rng.ratio(3, 5) && held.len() < 800 {
            // Single-block refills so each one's source page is checkable.
            let listed = model.values().copied().filter(|&c| c > 0);
            let preferred = if radix { listed.min() } else { listed.max() };
            let Ok(mut chain) = layer.alloc_chain(&vm, 1) else {
                continue;
            };
            assert_eq!(chain.len(), 1);
            let blk = chain.pop().unwrap() as usize;
            let page = page_of(blk);
            match preferred {
                Some(m) => {
                    // The block must come out of a page with the fewest
                    // (ablation: most) free blocks, not any other page.
                    assert_eq!(
                        model.get(&page).copied(),
                        Some(m),
                        "{block_size} B, radix {radix}: refill passed over \
                         a page with {m} free blocks"
                    );
                    *model.get_mut(&page).unwrap() -= 1;
                    preference_checks += 1;
                }
                None => {
                    // No free blocks anywhere: a fresh page was carved.
                    assert!(
                        !model.contains_key(&page),
                        "fresh span aliases an owned page"
                    );
                    model.insert(page, bpp - 1);
                }
            }
            held.push(blk);
        } else if !held.is_empty() {
            // Free a few blocks (possibly of different pages) as one chain.
            let n = rng.range_usize(1..held.len().min(6) + 1);
            let mut chain = Chain::new();
            for _ in 0..n {
                let i = rng.index(held.len());
                let blk = held.swap_remove(i);
                // SAFETY: allocated from this layer above, freed once.
                unsafe { chain.push(blk as *mut u8) };
                let count = model.get_mut(&page_of(blk)).unwrap();
                *count += 1;
                if *count == bpp {
                    // Fully free: the layer must release the page.
                    model.remove(&page_of(blk));
                }
            }
            // SAFETY: chain holds blocks of this layer, each freed once.
            unsafe { layer.free_chain(&vm, chain) };
        }

        // The layer agrees with the model after every operation.
        let mut expected: Vec<usize> = model.values().copied().filter(|&c| c > 0).collect();
        expected.sort_unstable();
        assert_eq!(listed_counts(&layer), expected);
        // Fully freed pages left the list: nothing listed is all-free.
        assert!(expected.iter().all(|&c| c < bpp));
        let (npages, nfree) = layer.usage();
        assert_eq!(npages, model.len());
        assert_eq!(nfree, model.values().sum::<usize>());
    }

    assert!(
        preference_checks > 50,
        "workload never exercised the preference ({preference_checks})"
    );
    assert!(
        layer.stats().page_releases.get() > 0,
        "workload never drained a page"
    );

    // Teardown: everything returns, every page is released.
    let mut chain = Chain::new();
    for blk in held.drain(..) {
        // SAFETY: allocated from this layer above, freed once.
        unsafe { chain.push(blk as *mut u8) };
    }
    // SAFETY: as above.
    unsafe { layer.free_chain(&vm, chain) };
    assert_eq!(layer.usage(), (0, 0));
    assert_eq!(listed_counts(&layer), Vec::<usize>::new());
    assert_eq!(vm.space().phys().in_use(), 0);
}

/// 512 B keeps every bucket in one bitmap word; 32 B spreads its 129
/// over three, so scans cross word boundaries in both directions.
#[test]
fn mixed_workload_obeys_radix_policy() {
    mixed_workload_obeys_policy(BLOCK_SIZE, true);
    mixed_workload_obeys_policy(32, true);
}

#[test]
fn mixed_workload_obeys_most_free_first_ablation() {
    mixed_workload_obeys_policy(BLOCK_SIZE, false);
    mixed_workload_obeys_policy(32, false);
}

/// The headline drain behaviour in isolation: partially drain two pages
/// to different depths, and watch refills empty the sparser page first
/// while the fuller one keeps gathering frees until it drains entirely.
#[test]
fn sparse_pages_drain_before_full_ones() {
    let (vm, layer) = setup(BLOCK_SIZE, true);
    let bpp = layer.blocks_per_page();

    // Carve two pages: take all of page A, then all of page B.
    let mut a = layer.alloc_chain(&vm, bpp).unwrap();
    let mut b = layer.alloc_chain(&vm, bpp).unwrap();
    assert_eq!(layer.usage(), (2, 0));
    let page_a = page_of(a.iter().next().unwrap() as usize);
    let page_b = page_of(b.iter().next().unwrap() as usize);
    assert_ne!(page_a, page_b);

    // Give back 1 block of A and 3 of B: counts {A: 1, B: 3}.
    let mut back = Chain::new();
    // SAFETY: blocks from this layer, each freed once.
    unsafe {
        back.push(a.pop().unwrap());
        for _ in 0..3 {
            back.push(b.pop().unwrap());
        }
        layer.free_chain(&vm, back);
    }
    assert_eq!(listed_counts(&layer), vec![1, 3]);

    // One refill: must take A's lone free block (count 1 < 3), emptying A
    // out of the list while B keeps its 3.
    let mut got = layer.alloc_chain(&vm, 1).unwrap();
    assert_eq!(page_of(got.iter().next().unwrap() as usize), page_a);
    assert_eq!(listed_counts(&layer), vec![3]);

    // Free the rest of B: it reaches bpp free and leaves entirely —
    // frame returned, page no longer owned.
    let releases_before = layer.stats().page_releases.get();
    let mut rest = Chain::new();
    // SAFETY: blocks from this layer, each freed once.
    unsafe {
        while let Some(blk) = b.pop() {
            rest.push(blk);
        }
        layer.free_chain(&vm, rest);
    }
    assert_eq!(layer.stats().page_releases.get(), releases_before + 1);
    assert_eq!(layer.usage().0, 1); // only page A remains owned
    assert_eq!(listed_counts(&layer), Vec::<usize>::new()); // ...unlisted

    // Teardown.
    let mut rest = Chain::new();
    // SAFETY: blocks from this layer, each freed once.
    unsafe {
        while let Some(blk) = a.pop() {
            rest.push(blk);
        }
        while let Some(blk) = got.pop() {
            rest.push(blk);
        }
        layer.free_chain(&vm, rest);
    }
    assert_eq!(layer.usage(), (0, 0));
    assert_eq!(vm.space().phys().in_use(), 0);
}
