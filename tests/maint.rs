//! Maintenance core, end to end: parity when disabled, one state whether
//! slow-path work runs inline or on the pumped core, the mailbox-routed
//! pressure drain protocol, the per-node spill ledger, conservation under
//! deferred settles, and the background pump thread.

use std::ptr::NonNull;

use kmem::verify::{verify_arena, verify_empty};
use kmem::{AllocError, CpuHandle, KmemArena, KmemConfig, MaintConfig};
use kmem_vm::SpaceConfig;

const SIZE: usize = 1024;

fn starved_config() -> KmemConfig {
    // 64 frames (256 KB) against unbounded demand: a few hundred
    // allocations exhaust the pool outright.
    KmemConfig::new(2, SpaceConfig::new(16 << 20).phys_pages(64).vmblk_shift(16))
}

/// Allocates until the pool is dry, returning everything handed out.
fn drain_pool(cpu: &kmem::CpuHandle) -> Vec<std::ptr::NonNull<u8>> {
    let mut held = Vec::new();
    loop {
        match cpu.alloc(SIZE) {
            Ok(p) => held.push(p),
            Err(AllocError::OutOfMemory { .. }) => return held,
            Err(e) => panic!("starvation must surface as OutOfMemory, got {e}"),
        }
    }
}

/// A deterministic single-threaded churn that exercises every slow-path
/// site: refills, overflow returns, odd-chain flushes, and a reclaim.
fn churn(arena: &KmemArena) {
    let cpu = arena.register_cpu().unwrap();
    let mut held = Vec::new();
    for i in 0..4000usize {
        let size = 16 << (i % 5);
        held.push((cpu.alloc(size).unwrap(), size));
        if held.len() > 48 {
            let (p, s) = held.swap_remove((i * 7) % held.len());
            // SAFETY: allocated above, freed exactly once.
            unsafe { cpu.free_sized(p, s) };
        }
    }
    for (p, s) in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free_sized(p, s) };
    }
    cpu.flush();
}

/// Satellite regression: with the maintenance core compiled in but
/// *disabled* (the default), every slow-path site behaves exactly as
/// before — the maint counters stay zero, the pump is a no-op, and two
/// identical runs produce byte-identical counter sweeps.
#[test]
fn disabled_core_is_byte_for_byte_inline() {
    let run = || {
        let arena = KmemArena::new(KmemConfig::small()).unwrap();
        churn(&arena);
        assert!(!arena.maint_enabled());
        assert_eq!(arena.maint_poll(), 0, "disabled pump drains nothing");
        assert_eq!(arena.maint_backlog(), 0);
        assert!(arena.start_maint_thread().is_none());
        arena.snapshot().to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "disabled maintenance must not perturb determinism");
    // The slow paths really ran inline: spills reached the page layer and
    // the maint group reports disabled-all-zeros.
    assert!(a.contains("\"maint\":{\"enabled\":false,\"posted\":0,\"deduped\":0,\"drained\":0,"));
    let arena = KmemArena::new(KmemConfig::small()).unwrap();
    churn(&arena);
    let snap = arena.snapshot();
    let put: u64 = snap.classes.iter().map(|c| c.global.put).sum();
    assert!(put > 0, "churn must reach the global layer");
    assert_eq!(snap.maint, Default::default());
}

/// Satellite regression: rung 1 of the pressure ladder posts its drain
/// requests through the mailbox exactly once per climb — repeated failures
/// re-apply the deepest rung without posting more work.
#[test]
fn pressure_climb_posts_one_drain_request_per_climb() {
    let arena = KmemArena::new(starved_config().maint(MaintConfig::on())).unwrap();
    let cpu0 = arena.register_cpu().unwrap();
    let cpu1 = arena.register_cpu().unwrap();

    let held = drain_pool(&cpu0);
    assert!(held.len() > 100, "only {} blocks before dry", held.len());
    assert_eq!(arena.snapshot().pressure_level, 3);

    // The climb's posts are in the mailbox; nothing has run yet, so the
    // other CPU has not been asked to drain.
    let posted_after_climb = arena.snapshot().maint.posted;
    assert!(posted_after_climb > 0, "the climb must post work");
    assert_eq!(arena.pending_drains(), 0, "requests sit in the mailbox");

    // Repeated failures re-apply rung 3 inline and post *nothing* new.
    assert!(cpu0.alloc(SIZE).is_err());
    assert!(cpu0.alloc(SIZE).is_err());
    let snap = arena.snapshot();
    assert!(snap.pressure_reapplied >= 2);
    assert_eq!(
        snap.maint.posted, posted_after_climb,
        "re-applied failures must not re-post drain requests"
    );

    // Pumping runs the DrainCpu item: exactly the one other CPU is asked.
    arena.maint_poll();
    assert_eq!(arena.pending_drains(), 1, "ncpus - 1 drain flags per climb");
    cpu1.poll();
    assert_eq!(arena.pending_drains(), 0);

    // Recover, relax the ladder to calm, and climb again: the second climb
    // posts a fresh round (the dedup keys cleared when the first drained).
    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu0.free_sized(p, SIZE) };
    }
    arena.maint_poll();
    for _ in 0..4 {
        let p = cpu0.alloc(SIZE).expect("service resumes after refill");
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu0.free_sized(p, SIZE) };
        cpu0.flush();
        arena.maint_poll();
    }
    assert_eq!(arena.snapshot().pressure_level, 0);
    let posted_between = arena.snapshot().maint.posted;
    let held = drain_pool(&cpu0);
    assert_eq!(arena.snapshot().pressure_level, 3);
    assert!(
        arena.snapshot().maint.posted > posted_between,
        "a fresh climb must post a fresh drain round"
    );
    arena.maint_poll();
    assert_eq!(arena.pending_drains(), 1, "one request per climb, again");
    cpu1.poll();

    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu0.free_sized(p, SIZE) };
    }
    cpu0.flush();
    arena.maint_poll();
    arena.reclaim();
    verify_empty(&arena);
}

/// With the core enabled, deferred puts plus the explicit pump conserve
/// every block and settle the mailbox (`drained == posted - deduped`).
#[test]
fn maint_pump_conserves_blocks_and_settles_the_mailbox() {
    let arena = KmemArena::new(KmemConfig::small().maint(MaintConfig::on())).unwrap();
    assert!(arena.maint_enabled());
    churn(&arena);
    churn(&arena);
    // Pump to quiescence: all deferred trims/regroups/spills run.
    while arena.maint_poll() > 0 {}
    let snap = arena.snapshot();
    assert_eq!(arena.maint_backlog(), 0, "mailbox empty at quiescence");
    assert_eq!(
        snap.maint.drained,
        snap.maint.posted - snap.maint.deduped,
        "every undeduplicated post must drain"
    );
    assert!(snap.maint.posted > 0, "churn must post maintenance work");
    assert!(snap.maint.deduped > 0, "identical crossings must dedupe");
    snap.check_quiescent()
        .unwrap_or_else(|e| panic!("quiescent invariants with maint on: {e}"));
    verify_arena(&arena);
    arena.reclaim();
    verify_empty(&arena);
}

/// The production shape: a background maintenance thread pumps while
/// several CPUs churn concurrently. Dropping the pump settles everything.
#[test]
fn maint_thread_keeps_up_with_concurrent_churn() {
    let arena = KmemArena::new(KmemConfig::small().maint(MaintConfig::on())).unwrap();
    let pump = arena.start_maint_thread().expect("core is enabled");
    std::thread::scope(|s| {
        for _ in 0..3 {
            let handle = arena.register_cpu().unwrap();
            s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..3000usize {
                    let size = 16 << (i % 5);
                    held.push((handle.alloc(size).unwrap(), size));
                    if held.len() > 32 {
                        let (p, s) = held.swap_remove(i % held.len());
                        // SAFETY: allocated above, freed exactly once.
                        unsafe { handle.free_sized(p, s) };
                    }
                }
                for (p, s) in held {
                    // SAFETY: allocated above, freed exactly once.
                    unsafe { handle.free_sized(p, s) };
                }
            });
        }
    });
    // All CPU handles are dropped (their caches flushed); stop the pump,
    // which runs one final drain before joining.
    drop(pump);
    let snap = arena.snapshot();
    assert_eq!(arena.maint_backlog(), 0, "final sweep leaves nothing");
    assert_eq!(snap.maint.drained, snap.maint.posted - snap.maint.deduped);
    verify_arena(&arena);
    arena.reclaim();
    verify_empty(&arena);
}

/// Every block a shard spills is counted against its node, the inline
/// pressure ladder's spills included: a default-profile starved arena
/// whose rung-2 climb finds a shard above `gbltarget`.
#[test]
fn inline_pressure_spills_reach_the_node_ledger() {
    const SMALL: usize = 64;
    let arena = KmemArena::new(starved_config().set_class(SMALL, 4, 8)).unwrap();
    let class = arena.cookie_for(SMALL).unwrap().class_index();
    let cpu0 = arena.register_cpu().unwrap();
    let cpu1 = arena.register_cpu().unwrap();
    // cpu1 stocks the 64-B shard to its 2 * gbltarget bound of 16 blocks.
    let stock: Vec<_> = (0..64).map(|_| cpu1.alloc(SMALL).unwrap()).collect();
    for p in stock {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu1.free_sized(p, SMALL) };
    }
    assert_eq!(arena.snapshot().nodes[0].shard_blocks, 16);

    // cpu0 runs the pool dry in another class; the climb's rung 2 trims
    // the stocked shard to 8 blocks before rung 3 reclaims the rest.
    let held = drain_pool(&cpu0);
    let snap = arena.snapshot();
    assert_eq!(snap.pressure_level, 3);
    assert_eq!(snap.classes[class].global.pressure_spills, 1);
    let node: u64 = snap.nodes.iter().map(|n| n.remote_spills).sum();
    let spilled: u64 = snap.classes.iter().map(|c| c.global.spill_blocks).sum();
    assert_eq!(node, spilled, "a spill escaped the per-node ledger");
    snap.check_quiescent()
        .unwrap_or_else(|e| panic!("quiescent invariants after the climb: {e}"));

    for p in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu0.free_sized(p, SIZE) };
    }
    drop((cpu0, cpu1));
    arena.reclaim();
    verify_empty(&arena);
}

/// One side of the parity test: an arena, its two CPUs and the blocks the
/// stream holds on it.
struct Side {
    arena: KmemArena,
    cpus: [CpuHandle; 2],
    held: Vec<(NonNull<u8>, usize)>,
}

impl Side {
    fn new(config: KmemConfig) -> Side {
        let arena = KmemArena::new(config).unwrap();
        let cpus = [arena.register_cpu().unwrap(), arena.register_cpu().unwrap()];
        Side {
            arena,
            cpus,
            held: Vec::new(),
        }
    }

    /// Everything the two placements must agree on, plus the offset of
    /// the last block handed out.
    fn state(&self, last: usize) -> impl PartialEq + std::fmt::Debug {
        let snap = self.arena.snapshot();
        let layers: Vec<_> = snap.classes.iter().map(|c| (c.global, c.page)).collect();
        (layers, snap.nodes, snap.phys_in_use, last)
    }
}

/// The maintenance core changes *where* slow-path work runs, never *what*
/// it does: one seeded stream over 2 CPUs — cross-CPU frees, a flush every
/// 97 ops, a 256-B class whose small `gbltarget` puts keep crossing — on a
/// default arena and on a core-enabled one pumped empty after every op
/// leaves identical counters, occupancy and addresses after every op.
/// The stream stays clear of pressure climbs, where inline runs a rung's
/// spills before the retry and the core after it.
#[test]
fn inline_and_pumped_core_reach_the_same_state() {
    const SIZES: [usize; 3] = [64, 256, 256];
    let config =
        || KmemConfig::new(2, SpaceConfig::new(16 << 20).vmblk_shift(18)).set_class(256, 4, 4);
    let mut sides = [
        Side::new(config()),
        Side::new(config().maint(MaintConfig::on())),
    ];
    let base: Vec<usize> = sides.iter().map(|s| s.arena.space().base_addr()).collect();
    let mut x = 0x00DD_BA11_u64;
    let mut growing = true;
    for op in 0..4000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = sides[0].held.len();
        growing = match len {
            0 => true,
            160.. => false,
            _ => growing,
        };
        let cpu = (x >> 8) as usize % 2;
        let mut last = [0; 2];
        for (side, (s, base)) in sides.iter_mut().zip(&base).enumerate() {
            if op % 97 == 96 {
                s.cpus[cpu].flush();
            } else if len == 0 || x.is_multiple_of(4) != growing {
                let size = SIZES[(x >> 16) as usize % SIZES.len()];
                let p = s.cpus[cpu].alloc(size).unwrap();
                last[side] = p.as_ptr() as usize - base;
                s.held.push((p, size));
            } else {
                // Often not the allocating CPU: a cross-CPU free.
                let (p, size) = s.held.swap_remove((x >> 32) as usize % len);
                // SAFETY: allocated by this stream, freed exactly once.
                unsafe { s.cpus[cpu].free_sized(p, size) };
            }
            while s.arena.maint_poll() > 0 {}
        }
        assert_eq!(
            sides[0].state(last[0]),
            sides[1].state(last[1]),
            "op {op}: the placements diverged"
        );
    }
    for s in &mut sides {
        let snap = s.arena.snapshot();
        assert_eq!(snap.pressure_escalations, [0; 3], "the stream climbed");
        let class = s.arena.cookie_for(256).unwrap().class_index();
        let global = snap.classes[class].global;
        assert!(global.put_slow > 0 && global.put_miss > 0 && global.put_odd > 0);
        snap.check_quiescent().unwrap();
        for (p, size) in s.held.drain(..) {
            // SAFETY: allocated by this stream, freed exactly once.
            unsafe { s.cpus[0].free_sized(p, size) };
        }
    }
    assert!(sides[1].arena.snapshot().maint.drained > 0);
}
