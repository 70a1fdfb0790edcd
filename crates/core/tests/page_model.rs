//! Linearizability model test for the lock-free page layer.
//!
//! Seeded multi-thread schedules (testkit [`interleaving`] generator) are
//! replayed against the lock-free radix lists, and after **every** step the
//! layer's observable state is compared with a sequential reference
//! allocator executing the same operation sequence. Because the reference
//! is sequential, agreement on every prefix of every schedule is exactly
//! the linearizability claim for this (deterministically explored) slice
//! of the interleaving space: each lock-free operation behaves as if it
//! happened atomically at its schedule position.
//!
//! Tie nondeterminism (two pages with the same free count) is handled by
//! comparing count *multisets*, not page identities: the layer must match
//! *some* sequential greedy-min execution.
//!
//! Failures shrink to a minimal schedule and report a replayable
//! `KMEM_TESTKIT_SEED`.
//!
//! Those schedules interleave whole operations. The windows *inside* two
//! of them are explored exhaustively further down, on op-for-op step
//! replicas (the real calls cannot be paused mid-way): the summary bit
//! against a bucket's pushes and pops, and the possessor's single-CAS
//! multi-pop against freers pushing onto the same page freelist. Each
//! replica also runs with its protocol deliberately broken, to show the
//! exploration reaches the interleaving that needs the rule.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
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
fn lock_free_page_layer_linearizes_against_sequential_reference() {
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

/// Visits every state reachable by interleaving `threads` one atomic step
/// at a time (each distinct state once), telling `visit` whether all
/// threads have finished.
fn explore<S, T>(
    shared: S,
    threads: Vec<T>,
    step: impl Fn(&mut S, &mut T),
    done: impl Fn(&T) -> bool,
    mut visit: impl FnMut(&S, &[T], bool),
) where
    S: Clone + Hash + Eq,
    T: Clone + Hash + Eq,
{
    let mut seen = HashSet::new();
    let mut pending = vec![(shared, threads)];
    while let Some((shared, threads)) = pending.pop() {
        if !seen.insert((shared.clone(), threads.clone())) {
            continue;
        }
        let runnable: Vec<usize> = (0..threads.len()).filter(|&i| !done(&threads[i])).collect();
        visit(&shared, &threads, runnable.is_empty());
        for i in runnable {
            let (mut shared, mut threads) = (shared.clone(), threads.clone());
            step(&mut shared, &mut threads[i]);
            pending.push((shared, threads));
        }
    }
}

/// One radix bucket and its summary bit (`PdBuckets`). The bucket's own
/// push and pop are single steps here; `page_aba.rs` covers their insides.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Bucket {
    pages: Vec<u8>,
    bit: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum BucketOp {
    /// `PdBuckets::push`: push the page (0), read the bit (1), and set it
    /// if it was clear (2).
    Push {
        page: u8,
        pc: u8,
    },
    /// `pop_page` on this bucket: scan the bit (0), pop (1); on an empty
    /// pop, `PdBuckets::pop` re-reads the bit (2), clears it (3), looks at
    /// the bucket again (4) and restores the bit if a page is there (5).
    Pop {
        pc: u8,
        got: Option<u8>,
    },
    Done {
        got: Option<u8>,
    },
}

/// How to break the summary protocol.
#[derive(Clone, Copy, PartialEq)]
enum BucketBug {
    None,
    SetBeforePush,
    NoSecondLook,
}

fn bucket_step(bug: BucketBug, b: &mut Bucket, op: &mut BucketOp) {
    *op = match op.clone() {
        BucketOp::Push { page, pc } => {
            let order = if bug == BucketBug::SetBeforePush {
                [1, 2, 0]
            } else {
                [0, 1, 2]
            };
            let mut next = pc + 1;
            match order[pc as usize] {
                0 => b.pages.push(page),
                // Already set: skip the set.
                1 => next += u8::from(b.bit),
                _ => b.bit = true,
            }
            if usize::from(next) < order.len() {
                BucketOp::Push { page, pc: next }
            } else {
                BucketOp::Done { got: None }
            }
        }
        BucketOp::Pop { pc, got } => match pc {
            // A clear bit sends the refill on to a fresh page.
            0 | 2 if !b.bit => BucketOp::Done { got },
            0 | 2 => BucketOp::Pop { pc: pc + 1, got },
            1 => match b.pages.pop() {
                Some(page) => BucketOp::Done { got: Some(page) },
                None => BucketOp::Pop { pc: 2, got },
            },
            3 => {
                b.bit = false;
                if bug == BucketBug::NoSecondLook {
                    BucketOp::Done { got }
                } else {
                    BucketOp::Pop { pc: 4, got }
                }
            }
            4 if b.pages.is_empty() => BucketOp::Done { got },
            4 => BucketOp::Pop { pc: 5, got },
            _ => {
                b.bit = true;
                BucketOp::Done { got }
            }
        },
        BucketOp::Done { .. } => unreachable!("finished threads are not stepped"),
    }
}

/// Runs two pushers against two poppers over a bucket holding one page,
/// returning the quiescent states that break "non-empty ⇒ bit set" and
/// panicking if a page is ever lost or handed out twice.
fn stranded_buckets(bug: BucketBug) -> usize {
    let start = Bucket {
        pages: vec![0],
        bit: true,
    };
    let threads = vec![
        BucketOp::Push { page: 1, pc: 0 },
        BucketOp::Push { page: 2, pc: 0 },
        BucketOp::Pop { pc: 0, got: None },
        BucketOp::Pop { pc: 0, got: None },
    ];
    let mut stranded = 0;
    explore(
        start,
        threads,
        |b, op| bucket_step(bug, b, op),
        |op| matches!(op, BucketOp::Done { .. }),
        |b, ops, quiescent| {
            if !quiescent {
                return;
            }
            let mut pages = b.pages.clone();
            pages.extend(ops.iter().filter_map(|op| match op {
                BucketOp::Done { got } => *got,
                _ => None,
            }));
            pages.sort_unstable();
            assert_eq!(pages, [0, 1, 2], "a page was lost or duplicated");
            stranded += usize::from(!b.pages.is_empty() && !b.bit);
        },
    );
    stranded
}

#[test]
fn summary_bit_covers_every_push_and_clear_window() {
    assert_eq!(stranded_buckets(BucketBug::None), 0);
    // Seeing to the bit first lets a popper clear it, look, and find
    // nothing before the page lands; clearing without a second look loses
    // the bit of a page pushed between the empty pop and the clear.
    assert!(stranded_buckets(BucketBug::SetBeforePush) > 0);
    assert!(stranded_buckets(BucketBug::NoSecondLook) > 0);
}

/// One page's block freelist and free count (`afree` and `state`): a
/// tagged head over per-block links, blocks named by index.
#[derive(Clone, PartialEq, Eq, Hash)]
struct FreeList {
    head: (Option<u8>, u8),
    link: Vec<Option<u8>>,
    count: usize,
}

impl FreeList {
    fn blocks(&self) -> Vec<u8> {
        std::iter::successors(self.head.0, |&b| self.link[b as usize]).collect()
    }

    fn cas(&mut self, seen: (Option<u8>, u8), new: Option<u8>) -> bool {
        let hit = self.head == seen;
        if hit {
            self.head = (new, seen.1 + 1);
        }
        hit
    }
}

/// `take_from`: reserve `take` off the count (pc 0), load the head (1),
/// walk `take` links (2), swing the head past them (3) — back to 1 if a
/// freer moved it — then collect the detached blocks (4).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Take {
    take: usize,
    pc: u8,
    seen: (Option<u8>, u8),
    rest: Option<u8>,
    walked: usize,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum ListOp {
    Take(Take),
    /// `free_chain` for one block: load the head (0), link to it (1),
    /// CAS the block in (2) — relinking on failure — then count it (3).
    Free {
        blk: u8,
        pc: u8,
        seen: (Option<u8>, u8),
    },
    Done {
        got: Vec<u8>,
    },
}

fn list_step(rewalk: bool, l: &mut FreeList, op: &mut ListOp) {
    *op = match op.clone() {
        ListOp::Take(t) => match t.pc {
            0 => {
                l.count -= t.take;
                ListOp::Take(Take { pc: 1, ..t })
            }
            1 => ListOp::Take(Take {
                pc: 2,
                seen: l.head,
                rest: l.head.0,
                walked: 0,
                ..t
            }),
            2 => {
                let at = t.rest.expect("page freelist under-supplied");
                ListOp::Take(Take {
                    pc: if t.walked + 1 == t.take { 3 } else { 2 },
                    rest: l.link[at as usize],
                    walked: t.walked + 1,
                    ..t
                })
            }
            3 if l.cas(t.seen, t.rest) => ListOp::Take(Take { pc: 4, ..t }),
            3 if rewalk => ListOp::Take(Take { pc: 1, ..t }),
            // Broken: keep the old walk's end and retry under the new head.
            3 => ListOp::Take(Take { seen: l.head, ..t }),
            _ => ListOp::Done {
                got: std::iter::successors(t.seen.0, |&b| l.link[b as usize])
                    .take(t.take)
                    .collect(),
            },
        },
        ListOp::Free { blk, pc, seen } => match pc {
            0 => ListOp::Free {
                blk,
                pc: 1,
                seen: l.head,
            },
            1 => {
                l.link[blk as usize] = seen.0;
                ListOp::Free { blk, pc: 2, seen }
            }
            2 if l.cas(seen, Some(blk)) => ListOp::Free { blk, pc: 3, seen },
            2 => ListOp::Free {
                blk,
                pc: 1,
                seen: l.head,
            },
            _ => {
                l.count += 1;
                ListOp::Done { got: Vec::new() }
            }
        },
        ListOp::Done { .. } => unreachable!("finished threads are not stepped"),
    }
}

/// A possessor takes two of three listed blocks while two freers push one
/// block each. Returns how many quiescent states lost or duplicated a
/// block; checks freelist-before-count in every state on the way.
fn broken_freelists(rewalk: bool) -> usize {
    let start = FreeList {
        head: (Some(0), 0),
        link: vec![Some(1), Some(2), None, None, None],
        count: 3,
    };
    let threads = vec![
        ListOp::Take(Take {
            take: 2,
            pc: 0,
            seen: (None, 0),
            rest: None,
            walked: 0,
        }),
        ListOp::Free {
            blk: 3,
            pc: 0,
            seen: (None, 0),
        },
        ListOp::Free {
            blk: 4,
            pc: 0,
            seen: (None, 0),
        },
    ];
    let mut broken = 0;
    explore(
        start,
        threads,
        |l, op| list_step(rewalk, l, op),
        |op| matches!(op, ListOp::Done { .. }),
        |l, ops, quiescent| {
            let listed = l.blocks();
            if rewalk {
                // Blocks reserved but not yet detached still sit on the list.
                let reserved: usize = ops
                    .iter()
                    .map(|op| match op {
                        ListOp::Take(Take {
                            take, pc: 1..=3, ..
                        }) => *take,
                        _ => 0,
                    })
                    .sum();
                assert!(
                    listed.len() >= l.count + reserved,
                    "count {} + reserved {reserved} promises more than the \
                     {} listed blocks",
                    l.count,
                    listed.len()
                );
            }
            if !quiescent {
                return;
            }
            let mut all = listed.clone();
            all.extend(ops.iter().flat_map(|op| match op {
                ListOp::Done { got } => got.clone(),
                _ => Vec::new(),
            }));
            all.sort_unstable();
            broken += usize::from(all != [0, 1, 2, 3, 4] || listed.len() != l.count);
        },
    );
    broken
}

#[test]
fn multi_pop_survives_freers_pushing_in_front() {
    assert_eq!(broken_freelists(true), 0);
    // Swinging the head to the old walk's end drops whatever a freer
    // pushed in front of it.
    assert!(broken_freelists(false) > 0);
}
