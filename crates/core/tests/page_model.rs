//! Linearizability model test for the page layer.
//!
//! Seeded multi-thread schedules (testkit [`interleaving`] generator) are
//! replayed against the radix lists, and after **every** step the layer's
//! observable state is compared with a sequential reference allocator
//! executing the same operation sequence. Because the reference is
//! sequential, agreement on every prefix of every schedule is exactly the
//! linearizability claim for this (deterministically explored) slice of
//! the interleaving space: each operation behaves as if it happened
//! atomically at its schedule position.
//!
//! Tie nondeterminism (two pages with the same free count) is handled by
//! comparing count *multisets*, not page identities: the layer must match
//! *some* sequential greedy-min execution.
//!
//! Failures shrink to a minimal schedule and report a replayable
//! `KMEM_TESTKIT_SEED`.

use std::collections::HashMap;
use std::sync::Arc;

use kmem::chain::Chain;
use kmem::pagelayer::PageLayer;
use kmem::vmblklayer::VmblkLayer;
use kmem_testkit::{check, interleaving, shrink_vec};
use kmem_vm::{KernelSpace, SpaceConfig, PAGE_SIZE};

const BLOCK_SIZE: usize = 512;
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 16;

fn setup() -> (VmblkLayer, PageLayer) {
    let space = Arc::new(KernelSpace::new(
        SpaceConfig::new(4 << 20).vmblk_shift(16).phys_pages(256),
    ));
    let vm = VmblkLayer::new(space, true);
    let layer = PageLayer::new(3, BLOCK_SIZE, true);
    (vm, layer)
}

fn page_of(block: usize) -> usize {
    block & !(PAGE_SIZE - 1)
}

/// Deterministic per-(thread, step) decision word, so shrinking the
/// schedule never changes what an individual step *does* — only whether
/// and when it runs.
fn op_word(thread: usize, step: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(thread as u64 + 1)
        .wrapping_add((step as u64) << 17)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The sequential reference: counts-only greedy-min simulation of one
/// allocation of `want` blocks. Mirrors the radix policy exactly —
/// repeatedly drain the fewest-free page, carving a fresh `bpp`-block page
/// only when nothing is listed. Returns the number of fresh pages carved.
fn reference_alloc(counts: &mut Vec<usize>, want: usize, bpp: usize) -> usize {
    let mut need = want;
    let mut carved = 0;
    while need > 0 {
        if let Some(pos) = counts
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
        {
            let take = counts[pos].min(need);
            counts[pos] -= take;
            need -= take;
            if counts[pos] == 0 {
                counts.swap_remove(pos);
            }
        } else {
            carved += 1;
            let take = need.min(bpp);
            need -= take;
            if take < bpp {
                counts.push(bpp - take);
            }
        }
    }
    carved
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

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// Replays one schedule, checking the layer against the reference after
/// every step. Returns `Err` (for the shrinker) on the first divergence.
fn replay(schedule: &[usize]) -> Result<(), String> {
    let (vm, layer) = setup();
    let bpp = layer.blocks_per_page();

    // Per-logical-thread held blocks and step counters.
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); THREADS];
    let mut steps = [0usize; THREADS];
    // Ground-truth model keyed by real page addresses; its count multiset
    // must always match both the reference simulation and the layer.
    let mut model: HashMap<usize, usize> = HashMap::new();

    for (pos, &t) in schedule.iter().enumerate() {
        let step = steps[t];
        steps[t] += 1;
        let w = op_word(t, step);
        let mine = &mut held[t];

        if w & 1 == 0 || mine.is_empty() {
            // Allocate 1–3 blocks as one chain.
            let want = 1 + (w >> 1) as usize % 3;
            let mut ref_counts: Vec<usize> = model.values().copied().collect();
            let ref_carved = reference_alloc(&mut ref_counts, want, bpp);

            let mut chain = match layer.alloc_chain(&vm, want) {
                Ok(c) => c,
                Err(e) => return Err(format!("step {pos}: alloc_chain failed: {e:?}")),
            };
            if chain.len() != want {
                return Err(format!(
                    "step {pos}: asked {want} blocks, got {}",
                    chain.len()
                ));
            }
            let mut carved = 0;
            while let Some(blk) = chain.pop() {
                let blk = blk as usize;
                let page = page_of(blk);
                match model.get_mut(&page) {
                    Some(c) => {
                        if *c == 0 {
                            return Err(format!(
                                "step {pos}: block taken from a page the model \
                                 says is exhausted"
                            ));
                        }
                        *c -= 1;
                    }
                    None => {
                        carved += 1;
                        model.insert(page, bpp - 1);
                    }
                }
                mine.push(blk);
            }
            if carved != ref_carved {
                return Err(format!(
                    "step {pos}: layer carved {carved} fresh pages, the \
                     sequential reference carved {ref_carved}"
                ));
            }
            // Radix policy up to ties: the post-alloc count multiset must
            // match the greedy-min reference.
            let got = sorted(model.values().copied().filter(|&c| c > 0).collect());
            if got != sorted(ref_counts.clone()) {
                return Err(format!(
                    "step {pos}: alloc of {want} left counts {got:?}, \
                     reference says {ref_counts:?}"
                ));
            }
        } else {
            // Free 1–4 held blocks (deterministic picks) as one chain.
            let n = (1 + (w >> 1) as usize % 4).min(mine.len());
            let mut chain = Chain::new();
            for i in 0..n {
                let idx = ((w >> (8 + i * 8)) as usize) % mine.len();
                let blk = mine.swap_remove(idx);
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

        // Linearization point check: after every step the layer's listed
        // multiset and usage gauges agree with the sequential model.
        let expect = sorted(model.values().copied().filter(|&c| c > 0).collect());
        let got = listed_counts(&layer);
        if got != expect {
            return Err(format!(
                "step {pos}: layer lists {got:?}, model says {expect:?}"
            ));
        }
        let (npages, nfree) = layer.usage();
        if npages != model.len() || nfree != model.values().sum::<usize>() {
            return Err(format!(
                "step {pos}: usage ({npages}, {nfree}) != model ({}, {})",
                model.len(),
                model.values().sum::<usize>()
            ));
        }
    }

    // Teardown: return everything; all pages must release and the frame
    // count must reach zero — full coalescing survived the schedule.
    let mut chain = Chain::new();
    for mine in &mut held {
        for blk in mine.drain(..) {
            // SAFETY: allocated from this layer above, freed once.
            unsafe { chain.push(blk as *mut u8) };
        }
    }
    // SAFETY: as above.
    unsafe { layer.free_chain(&vm, chain) };
    if layer.usage() != (0, 0) {
        return Err(format!("teardown left usage {:?}", layer.usage()));
    }
    if vm.space().phys().in_use() != 0 {
        return Err("teardown leaked physical frames".into());
    }
    Ok(())
}

#[test]
fn page_layer_linearizes_against_sequential_reference() {
    check(
        "page_layer_linearizability",
        40,
        interleaving(THREADS, OPS_PER_THREAD),
        |s| shrink_vec(s, |_| Vec::new()),
        |schedule| replay(schedule),
    );
}

/// A pinned adversarial schedule (all of thread 0, then strict round-robin)
/// on top of the random sweep, so the densest alloc/free alternation is
/// exercised on every run regardless of seed.
#[test]
fn round_robin_schedule_linearizes() {
    let mut schedule: Vec<usize> = (0..THREADS)
        .flat_map(|t| std::iter::repeat_n(t, OPS_PER_THREAD))
        .collect();
    replay(&schedule).unwrap();
    schedule = (0..OPS_PER_THREAD).flat_map(|_| 0..THREADS).collect();
    replay(&schedule).unwrap();
}
