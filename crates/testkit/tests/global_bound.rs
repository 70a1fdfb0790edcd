//! The global layer's adaptive bound under random schedules and real
//! threads.
//!
//! A pool starts at the paper's `2 * gbltarget`, doubles its bound when a
//! miss follows a spill, halves it when a window of demand never needed
//! the upper half, and snaps back to `2 * gbltarget` on `spill_to` and
//! `drain_all`. The property test drives one pool through random
//! operation sequences and checks, after every step, that no block is
//! lost and the bound stays in its range; the arena tests run
//! `mix`-shaped waves on two CPUs (the bound must settle below its cap)
//! and a fault round with the `global.get` and `global.spill` failpoints
//! armed against pools that have already grown.
//!
//! The fault round's thread count honours `KMEM_GLOBAL_THREADS`, as the
//! contention tests beside it do.

use std::ptr::NonNull;
use std::sync::mpsc;

use kmem::block::LinkKey;
use kmem::global::{GlobalPool, GROWTH_PAGES};
use kmem::verify::{verify_arena, verify_conservation, verify_empty};
use kmem::{faults, FailPolicy, Faults, KmemArena, KmemConfig, KmemSnapshot};
use kmem_testkit::fake::{backing, chain, discard};
use kmem_testkit::{check, no_shrink, shrink_vec, vec_of, Rng};
use kmem_vm::{SpaceConfig, PAGE_SIZE};

/// One step against the pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `get_chain`; the chain joins the hand.
    Get,
    /// `get_chain` with the `global.get` failpoint set to fire.
    InjectedGet,
    /// `steal_chain`, as a remote node's thief would.
    Steal,
    /// An exact-`target` `put`, leaving any settle it owes for later.
    Put,
    /// `put_odd` of this many blocks (settles inline).
    PutOdd(usize),
    /// `settle`.
    Settle,
    /// `spill_to(gbltarget)`, the pressure ladder's rung 2.
    SpillTo,
    /// `drain_all`, rung 3 and reclaim.
    DrainAll,
}

/// A pool's shape: block size (which sets the cap), `target`, `gbltarget`.
#[derive(Debug, Clone)]
struct Case {
    size: usize,
    target: usize,
    gbltarget: usize,
    ops: Vec<Op>,
}

fn gen_op(rng: &mut Rng) -> Op {
    // Gets and puts dominate, so pools fill, spill, drain and miss.
    match rng.range_u64(0..32) {
        0..=10 => Op::Get,
        11..=21 => Op::Put,
        22 | 23 => Op::PutOdd(rng.range_usize(1..12)),
        24..=26 => Op::Settle,
        27 => Op::InjectedGet,
        28 => Op::Steal,
        29 | 30 => Op::SpillTo,
        _ => Op::DrainAll,
    }
}

fn gen_case(rng: &mut Rng) -> Case {
    let target = rng.range_usize(1..5);
    Case {
        // Caps of one to four times `GROWTH_PAGES` blocks: reachable
        // within one sequence.
        size: *rng.choose(&[PAGE_SIZE / 4, PAGE_SIZE / 2, PAGE_SIZE]),
        target,
        gbltarget: rng.range_usize(target..2 * target + 4),
        ops: vec_of(50..600, gen_op)(rng),
    }
}

fn shrink_case(case: &Case) -> Vec<Case> {
    shrink_vec(&case.ops, no_shrink)
        .into_iter()
        .map(|ops| Case {
            ops,
            ..case.clone()
        })
        .collect()
}

/// Runs one sequence, checking conservation and the bound's range after
/// every step. Blocks leave the pool only into `hand` (gets, spills and
/// drains alike), so `hand + pool` is the whole store throughout.
fn run_case(case: &Case) -> Result<(), String> {
    let blocks = 8 * GROWTH_PAGES * PAGE_SIZE / case.size;
    let mut store = backing(blocks);
    let mut hand = chain(&mut store, 0..blocks);
    let faults = Faults::with_plan();
    let plan = faults.plan().unwrap().clone();
    let pool = GlobalPool::sized(
        case.size,
        case.target,
        case.gbltarget,
        faults,
        LinkKey::PLAIN,
    );
    let floor = 2 * case.gbltarget;
    let cap = pool.cap();
    if cap != (GROWTH_PAGES * PAGE_SIZE / case.size).max(floor) {
        return Err(format!(
            "cap {cap} is not {GROWTH_PAGES} pages' worth of blocks"
        ));
    }
    for (step, &op) in case.ops.iter().enumerate() {
        let before = pool.bound();
        let out = match op {
            Op::Get => pool.get_chain(),
            Op::InjectedGet => {
                plan.set(faults::GLOBAL_GET, FailPolicy::Script(vec![true]));
                pool.get_chain()
            }
            Op::Steal => pool.steal_chain(),
            Op::Put => {
                pool.put(hand.split_first(case.target.min(hand.len())));
                None
            }
            Op::PutOdd(n) => pool.put_odd(hand.split_first(n.min(hand.len()))),
            Op::Settle => pool.settle(),
            Op::SpillTo => pool.spill_to(case.gbltarget),
            Op::DrainAll => Some(pool.drain_all()),
        };
        if let Some(mut out) = out {
            hand.append(&mut out);
        }
        let bound = pool.bound();
        let held = hand.len() + pool.len();
        if held != blocks {
            return Err(format!("step {step} ({op:?}): {held} of {blocks} blocks"));
        }
        if !(floor..=cap).contains(&bound) {
            return Err(format!(
                "step {step} ({op:?}): bound {bound} outside {floor}..={cap}"
            ));
        }
        let snapped = matches!(op, Op::SpillTo | Op::DrainAll);
        if snapped && bound != floor {
            return Err(format!(
                "step {step} ({op:?}): bound {bound} after a snap-back"
            ));
        }
        let grew_by_miss = matches!(op, Op::InjectedGet | Op::Steal) && bound != before;
        if grew_by_miss {
            return Err(format!("step {step} ({op:?}): bound {before} -> {bound}"));
        }
    }
    let mut all = pool.drain_all();
    hand.append(&mut all);
    discard(hand);
    Ok(())
}

#[test]
fn random_schedules_conserve_blocks_and_keep_the_bound_in_range() {
    check(
        "random_schedules_conserve_blocks_and_keep_the_bound_in_range",
        128,
        gen_case,
        shrink_case,
        run_case,
    );
}

/// The `mix` workload's shape, on one size: each CPU's working set waves
/// between a few blocks and `high`, freed in shuffled order, one free in
/// eight handed to the neighbour CPU to make.
fn waves(arena: &KmemArena, threads: usize, waves: usize, high: usize, seed: u64) {
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = mpsc::channel::<(usize, usize)>();
        senders.push(tx);
        receivers.push(rx);
    }
    std::thread::scope(|s| {
        for (t, rx) in receivers.into_iter().enumerate() {
            let next = senders[(t + 1) % threads].clone();
            s.spawn(move || {
                let cpu = arena.register_cpu().unwrap();
                let mut rng = Rng::new(seed ^ t as u64);
                let free = |(p, size): (usize, usize)| {
                    // SAFETY: allocated below by some CPU of this arena,
                    // freed exactly once.
                    unsafe { cpu.free_sized(NonNull::new(p as *mut u8).unwrap(), size) };
                };
                let mut live = Vec::new();
                for _ in 0..waves {
                    let n = rng.range_usize(high / 2..high);
                    for _ in 0..n {
                        let size = *rng.choose(&[64, 64, 256]);
                        live.push((cpu.alloc(size).unwrap().as_ptr() as usize, size));
                    }
                    rng.shuffle(&mut live);
                    for block in live.drain(..) {
                        if rng.ratio(1, 8) {
                            next.send(block).unwrap();
                        } else {
                            free(block);
                        }
                    }
                    while let Ok(block) = rx.try_recv() {
                        free(block);
                    }
                }
                drop(next);
                // The neighbour's last hand-offs, once every sender is gone.
                for block in rx {
                    free(block);
                }
                cpu.flush();
            });
        }
        drop(senders);
    });
}

fn class_of(snap: &KmemSnapshot, size: usize) -> usize {
    snap.classes.iter().position(|c| c.size == size).unwrap()
}

/// Two CPUs waving working sets of up to 150 blocks: the 64-B class's
/// bound grows past the paper's `2 * gbltarget`, stays below its cap,
/// and once grown the global layer serves nearly every refill itself.
#[test]
fn mix_shaped_waves_grow_the_bound_below_its_cap() {
    let arena = KmemArena::new(KmemConfig::new(2, SpaceConfig::new(64 << 20))).unwrap();
    waves(&arena, 2, 80, 150, 0x006d_6978);
    let grown = arena.snapshot();
    let c64 = &grown.classes[class_of(&grown, 64)];
    let cap = GROWTH_PAGES * PAGE_SIZE / 64;
    assert!(
        c64.global_bound > 2 * c64.gbltarget && c64.global_bound < cap,
        "64-B bound {} not within ({}, {cap})",
        c64.global_bound,
        2 * c64.gbltarget
    );
    assert!(c64.global.bound_grows > 0);
    // The same waves again, on grown pools.
    waves(&arena, 2, 80, 150, 0x006d_6979);
    let d = arena.snapshot().delta(&grown);
    let g = &d.classes[class_of(&grown, 64)].global;
    let miss_rate = g.get_miss as f64 / g.get.max(1) as f64;
    // At the paper's static bound nine in ten of these gets miss.
    assert!(
        miss_rate < 0.25,
        "grown 64-B pool missed {} of {} gets",
        g.get_miss,
        g.get
    );
    let after = arena.snapshot();
    assert!(after.classes[class_of(&after, 64)].global_bound < cap);
    verify_arena(&arena);
    verify_conservation(&arena, &vec![0; after.classes.len()]);
    arena.reclaim();
    let reclaimed = arena.snapshot();
    for c in &reclaimed.classes {
        assert_eq!(c.global_bound, 2 * c.gbltarget, "reclaim snaps back");
    }
    verify_empty(&arena);
}

fn env_threads() -> usize {
    std::env::var("KMEM_GLOBAL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| (2..=64).contains(&t))
        .unwrap_or(4)
}

/// Grown pools under injected global misses and forced pressure spills:
/// a `global.get` firing must not grow a bound, a `global.spill` firing
/// snaps its shard back, and every block is accounted for at the end.
#[test]
fn global_faults_against_grown_pools() {
    let threads = env_threads();
    let cfg = KmemConfig {
        faults: Faults::with_plan(),
        ..KmemConfig::new(threads, SpaceConfig::new(128 << 20))
    };
    let arena = KmemArena::new(cfg).unwrap();
    waves(&arena, threads, 30, 600, 0x6661_756c);
    let grown = arena.snapshot();
    assert!(
        grown
            .classes
            .iter()
            .any(|c| c.global_bound > 2 * c.gbltarget),
        "the warm-up waves grew no pool"
    );
    let plan = arena.faults().plan().unwrap();
    plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(3));
    plan.set(faults::GLOBAL_SPILL, FailPolicy::EveryNth(5));
    waves(&arena, threads, 30, 600, 0x6661_756d);
    plan.set(faults::GLOBAL_GET, FailPolicy::Off);
    plan.set(faults::GLOBAL_SPILL, FailPolicy::Off);
    let fired = |site: &str| {
        plan.site_stats()
            .iter()
            .find(|s| s.site == site)
            .map_or(0, |s| s.fired)
    };
    assert!(fired(faults::GLOBAL_GET) > 0 && fired(faults::GLOBAL_SPILL) > 0);
    let d = arena.snapshot().delta(&grown);
    let resets: u64 = d.classes.iter().map(|c| c.global.bound_resets).sum();
    assert!(resets > 0, "forced spills reset no grown bound");
    verify_arena(&arena);
    verify_conservation(&arena, &vec![0; d.classes.len()]);
    arena.reclaim();
    verify_empty(&arena);
}
