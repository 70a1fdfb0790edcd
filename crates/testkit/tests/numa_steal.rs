//! The work-stealing overflow path: cross-shard conservation and the
//! `global.steal` failpoint.
//!
//! A sharded global layer introduces one new way to lose blocks — a chain
//! in flight between a victim shard and a thief CPU — and one new way to
//! wedge — a refill that can neither steal nor reach the page layer.
//! These tests pin both down: steals move whole chains without breaking
//! per-class conservation, and an injected steal failure routes the
//! refill to the page layer instead of failing the allocation.

use std::ptr::NonNull;

use kmem::faults::{FailPolicy, GLOBAL_STEAL};
use kmem::verify::{verify_arena, verify_conservation, verify_empty};
use kmem::{Faults, HardenedConfig, KmemArena, KmemConfig};
use kmem_testkit::{run_torture, TortureConfig};
use kmem_vm::SpaceConfig;

const SIZE: usize = 256;

/// Registers one handle per CPU, in registration order; callers pick the
/// node they want through `handle.node()`.
fn handles(arena: &KmemArena, ncpus: usize) -> Vec<kmem::CpuHandle> {
    (0..ncpus).map(|_| arena.register_cpu().unwrap()).collect()
}

/// Per-class user-held counts for [`verify_conservation`]: `held` blocks
/// of the single class `SIZE`, zero elsewhere.
fn held_counts(arena: &KmemArena, held: usize) -> Vec<usize> {
    let snap = arena.snapshot();
    snap.classes
        .iter()
        .map(|c| if c.size == SIZE { held } else { 0 })
        .collect()
}

/// Deterministic producer/consumer flow across the node boundary: node 1
/// stocks its shard with freed blocks, node 0 allocates with an empty
/// local shard and must steal. Conservation holds with the stolen chain
/// split between the thief's cache and the caller's hands.
#[test]
fn steals_move_chains_without_losing_blocks() {
    let arena = KmemArena::new(KmemConfig::new(4, SpaceConfig::new(32 << 20)).nodes(2)).unwrap();
    let cpus = handles(&arena, 4);
    let on_node = |n: usize| {
        cpus.iter()
            .find(|c| c.node().index() == n)
            .expect("block mapping places CPUs on both nodes")
    };

    // Node 1 produces: allocate a burst, free it all, flush. The frees
    // overflow the per-CPU cache into node 1's shard (the overflow past
    // the shard bound spills to the shared page layer — also fine).
    let producer = on_node(1);
    let mut blocks: Vec<NonNull<u8>> = (0..400)
        .map(|_| producer.alloc(SIZE).expect("warm pool"))
        .collect();
    for p in blocks.drain(..) {
        // SAFETY: allocated just above, freed exactly once.
        unsafe { producer.free_sized(p, SIZE) };
    }
    producer.flush();
    let stocked = arena.snapshot();
    assert!(
        stocked.nodes[1].shard_blocks > 0,
        "producer flush must stock node 1's shard: {stocked:?}"
    );
    assert_eq!(stocked.nodes[0].stolen_refills, 0);

    // Node 0 consumes: its cache and shard are both empty, so the first
    // refill must steal a whole chain from node 1.
    let thief = on_node(0);
    let held: Vec<NonNull<u8>> = (0..32)
        .map(|_| thief.alloc(SIZE).expect("steal or page refill"))
        .collect();
    let after = arena.snapshot();
    assert!(
        after.nodes[0].stolen_refills > 0,
        "node 0 refilled without stealing: {after:?}"
    );
    assert!(
        after.nodes[1].shard_blocks < stocked.nodes[1].shard_blocks,
        "the victim shard did not shrink"
    );

    // Quiescent cross-shard conservation: every block is in exactly one
    // of page layer / some shard / some cache / the caller's hands.
    verify_arena(&arena);
    verify_conservation(&arena, &held_counts(&arena, held.len()));

    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { thief.free_sized(p, SIZE) };
    }
    for cpu in &cpus {
        cpu.flush();
    }
    arena.reclaim();
    verify_empty(&arena);
}

/// An injected `global.steal` failure must route the refill to the page
/// layer — the allocation still succeeds, nothing is stolen, nothing is
/// lost — and stealing resumes once the site is disarmed.
#[test]
fn steal_failpoint_falls_through_to_the_page_layer() {
    let mut cfg = KmemConfig::new(4, SpaceConfig::new(32 << 20)).nodes(2);
    cfg.faults = Faults::with_plan();
    let arena = KmemArena::new(cfg).unwrap();
    let plan = arena.faults().plan().unwrap().clone();
    let cpus = handles(&arena, 4);
    let on_node = |n: usize| {
        cpus.iter()
            .find(|c| c.node().index() == n)
            .expect("block mapping places CPUs on both nodes")
    };

    // Stock node 1's shard as in the steal test.
    let producer = on_node(1);
    let mut blocks: Vec<NonNull<u8>> = (0..400)
        .map(|_| producer.alloc(SIZE).expect("warm pool"))
        .collect();
    for p in blocks.drain(..) {
        // SAFETY: allocated just above, freed exactly once.
        unsafe { producer.free_sized(p, SIZE) };
    }
    producer.flush();
    let stocked = arena.snapshot();
    let victim_before = stocked.nodes[1].shard_blocks;
    assert!(victim_before > 0, "shard must be stocked: {stocked:?}");

    // Every steal attempt fails: the refill must come from the page
    // layer instead, and the allocation must still succeed.
    plan.set(GLOBAL_STEAL, FailPolicy::EveryNth(1));
    let thief = on_node(0);
    let held: Vec<NonNull<u8>> = (0..32)
        .map(|_| thief.alloc(SIZE).expect("page layer must serve the refill"))
        .collect();
    let faulted = arena.snapshot();
    assert_eq!(
        faulted.nodes[0].stolen_refills, 0,
        "a steal went through despite the failpoint: {faulted:?}"
    );
    assert_eq!(
        faulted.nodes[1].shard_blocks, victim_before,
        "the victim shard changed under a failed steal"
    );
    let fired = plan
        .site_stats()
        .iter()
        .find(|s| s.site == GLOBAL_STEAL)
        .map(|s| s.fired)
        .unwrap_or(0);
    assert!(fired > 0, "the steal site never fired");
    // No block was lost on the forced detour.
    verify_arena(&arena);
    verify_conservation(&arena, &held_counts(&arena, held.len()));

    // Disarm: service resumes — the next starved refill steals again.
    plan.set(GLOBAL_STEAL, FailPolicy::Off);
    let more: Vec<NonNull<u8>> = (0..64)
        .map(|_| thief.alloc(SIZE).expect("steal resumes"))
        .collect();
    let resumed = arena.snapshot();
    assert!(
        resumed.nodes[0].stolen_refills > 0,
        "stealing never resumed after disarm: {resumed:?}"
    );

    for p in held.into_iter().chain(more) {
        // SAFETY: allocated above, freed exactly once.
        unsafe { thief.free_sized(p, SIZE) };
    }
    for cpu in &cpus {
        cpu.flush();
    }
    arena.reclaim();
    verify_empty(&arena);
}

/// A seeded multi-threaded torture round on a 4-node arena: cross-thread
/// frees drain shards unevenly, so the run must exercise real steals, and
/// the checkpoint walkers plus the final drain prove cross-shard
/// conservation at quiescence.
#[test]
fn four_node_torture_round_is_conserving() {
    let cfg = TortureConfig {
        threads: 4,
        ops_per_thread: 50_000,
        // ≥ 5 phases so the fault-mode policy rotation cycles every
        // site through every shape (an alloc-path site stuck on
        // EveryNth(1) for a whole phase would starve the mix).
        phases: 6,
        seed: 0x4_2042,
        ..TortureConfig::standard()
    };
    let mut kcfg = KmemConfig::new(cfg.threads, SpaceConfig::new(128 << 20)).nodes(4);
    // Carry a fault plan so `KMEM_TORTURE_FAULTS=1` (the CI contention
    // round) arms every site — including `global.steal` — under the mix.
    kcfg.faults = Faults::with_plan();
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);
    assert_eq!(report.ops, (cfg.threads * cfg.ops_per_thread) as u64);
    assert!(report.allocs > 1_000, "too few allocs: {report:?}");

    let snap = arena.snapshot();
    assert_eq!(snap.nodes.len(), 4);
    let stolen: u64 = snap.nodes.iter().map(|n| n.stolen_refills).sum();
    let local: u64 = snap.nodes.iter().map(|n| n.local_refills).sum();
    if !cfg.faults_requested() {
        // The clean run must exercise the cross-node machinery for
        // real; with injection armed, fault storms may legitimately
        // suppress the hand-off traffic in some phases.
        assert!(report.cross_frees > 1_000, "no cross-node flow: {report:?}");
        assert!(stolen > 0, "4-node torture never stole: {snap:?}");
    }
    assert!(local > 0, "no refill ever hit a local shard: {snap:?}");
    // Each CPU counts its own refills and a node's row sums its CPUs':
    // every chain a shard handed out is in exactly one of them.
    let served: u64 = snap
        .classes
        .iter()
        .map(|c| c.global.get - c.global.get_miss)
        .sum();
    assert_eq!(local + stolen, served, "{snap:?}");

    arena.reclaim();
    verify_empty(&arena);
}

/// A seeded 2-node torture round with every hardened defense armed: a
/// stolen chain crosses shards *encoded* (both shards share the arena's
/// link key), so real steals must happen and decode cleanly — no false
/// freelist-link detections, conservation at every checkpoint, and an
/// empty arena at the end.
#[test]
fn two_node_hardened_torture_round_steals_encoded_chains() {
    let cfg = TortureConfig {
        threads: 4,
        ops_per_thread: 25_000,
        phases: 3,
        seed: 0x4e55_4d41_4852_4431, // "NUMAHRD1"
        hardened: true,
        ..TortureConfig::standard()
    };
    let kcfg = KmemConfig::new(cfg.threads, SpaceConfig::new(128 << 20))
        .nodes(2)
        .hardened(HardenedConfig::full(cfg.seed));
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);
    assert_eq!(report.ops, (cfg.threads * cfg.ops_per_thread) as u64);
    assert!(report.cross_frees > 500, "no cross-node flow: {report:?}");

    let snap = arena.snapshot();
    assert_eq!(snap.nodes.len(), 2);
    let stolen: u64 = snap.nodes.iter().map(|n| n.stolen_refills).sum();
    assert!(stolen > 0, "hardened 2-node round never stole: {snap:?}");
    assert_eq!(
        snap.corruption_reports, 0,
        "encoded steal traffic tripped a detector: {snap:?}"
    );

    arena.reclaim();
    verify_empty(&arena);
}
