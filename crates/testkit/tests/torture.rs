//! The acceptance-grade torture runs: real threads, randomized op mixes,
//! invariant walkers at every quiescent checkpoint.

use kmem::verify::{verify_arena, verify_empty};
use kmem::{Faults, HardenedConfig, KmemArena, KmemConfig, MaintConfig};
use kmem_testkit::{check, interleaving, no_shrink, run_torture, TortureConfig};
use kmem_vm::SpaceConfig;

/// Applies the run's hardened request (config or `KMEM_TORTURE_HARDENED`)
/// to the arena configuration: same op streams, every defense armed.
fn apply_hardened(kcfg: KmemConfig, cfg: &TortureConfig) -> KmemConfig {
    if cfg.hardened_requested() {
        let seed = cfg.seed;
        kcfg.hardened(HardenedConfig::full(seed))
    } else {
        kcfg
    }
}

/// Applies the run's maintenance-core request (config or
/// `KMEM_TORTURE_MAINT`): same op streams, slow-path work routed through
/// the mailbox and pumped at every quiescent checkpoint.
fn apply_maint(kcfg: KmemConfig, cfg: &TortureConfig) -> KmemConfig {
    if cfg.maint_requested() {
        kcfg.maint(MaintConfig::on())
    } else {
        kcfg
    }
}

/// 4 threads × 100 000 randomized ops over 4 size classes, with
/// cross-thread frees, flush pressure, and conservation checks at every
/// phase boundary — the headline multi-threaded soak.
/// `KMEM_TORTURE_HARDENED=1` reruns the same mix with every corruption
/// defense armed; `KMEM_TORTURE_MAINT=1` with the maintenance core on.
#[test]
fn standard_torture_run_is_clean() {
    let cfg = TortureConfig::standard();
    let kcfg = apply_maint(
        apply_hardened(
            KmemConfig::new(cfg.threads, SpaceConfig::new(256 << 20)),
            &cfg,
        ),
        &cfg,
    );
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);

    // The run must actually exercise the mix, not degenerate into no-ops.
    assert_eq!(
        report.ops,
        (cfg.threads * cfg.ops_per_thread) as u64,
        "every scheduled op must run"
    );
    assert!(report.allocs > 10_000, "too few allocs: {report:?}");
    assert!(
        report.local_frees > 1_000,
        "too few local frees: {report:?}"
    );
    assert!(
        report.cross_frees > 1_000,
        "cross-thread frees missing: {report:?}"
    );
    assert!(report.exchanges > 1_000, "exchange pool unused: {report:?}");
    assert!(report.flushes > 100, "flush arm unused: {report:?}");
    assert!(report.large_allocs > 0, "large arm unused: {report:?}");
    // One checkpoint per phase plus the post-teardown verification.
    assert_eq!(report.checkpoints, cfg.phases as u64 + 1);

    // Everything came back: the arena drains to empty.
    arena.reclaim();
    verify_empty(&arena);
}

/// The same mix under a starved physical pool: allocations fail, the
/// low-memory flush/drain ladder runs, and the invariants still hold at
/// every checkpoint.
#[test]
fn torture_survives_low_memory_pressure() {
    let cfg = TortureConfig {
        threads: 4,
        ops_per_thread: 25_000,
        phases: 3,
        max_held_per_thread: 1_024,
        ..TortureConfig::standard()
    };
    // 384 KB of frames versus megabytes of steady-state demand: the pool
    // runs dry and the flush/drain-request ladder gets real traffic.
    let kcfg = apply_maint(
        apply_hardened(
            KmemConfig::new(cfg.threads, SpaceConfig::new(64 << 20).phys_pages(96)),
            &cfg,
        ),
        &cfg,
    );
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);

    assert!(
        report.failed_allocs > 0,
        "pool never ran dry — pressure path untested: {report:?}"
    );
    assert!(report.allocs > 1_000, "too few allocs: {report:?}");
    assert_eq!(report.checkpoints, cfg.phases as u64 + 1);

    arena.reclaim();
    verify_empty(&arena);
}

/// Every failpoint site armed in rotation (all five policy shapes over six
/// phases) while the full multi-threaded mix runs. Injected failures must
/// surface as typed errors, never leak a block, and never wedge a drain
/// flag — every checkpoint runs the same invariant walkers as the clean
/// run, plus a dedicated poll round asserting no drain request survives.
///
/// Run any torture test with faults via `KMEM_TORTURE_FAULTS=1`; this one
/// opts in unconditionally so fault coverage is part of plain `cargo test`.
#[test]
fn fault_injection_torture_covers_every_site() {
    let cfg = TortureConfig {
        threads: 3,
        ops_per_thread: 25_000,
        phases: 6, // ≥ 5 phases: every site cycles through every policy shape
        max_held_per_thread: 1_024,
        faults: true,
        ..TortureConfig::standard()
    };
    // Tight enough that the backend sites (vm.carve, phys.claim) see real
    // traffic every phase, loose enough that allocation mostly succeeds.
    // 64 KB vmblks mean page-layer growth carves constantly, so the carve
    // failpoint gets hits in every policy rotation, not just at startup.
    // Two nodes, because the steal site is only consulted when a remote
    // shard exists to steal from.
    let mut kcfg = apply_maint(
        apply_hardened(
            KmemConfig::new(
                cfg.threads,
                SpaceConfig::new(64 << 20).phys_pages(384).vmblk_shift(16),
            )
            .nodes(2),
            &cfg,
        ),
        &cfg,
    );
    // The torture driver programs the plan; the arena only has to carry one.
    kcfg.faults = Faults::with_plan();
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);

    assert_eq!(report.ops, (cfg.threads * cfg.ops_per_thread) as u64);
    assert_eq!(report.checkpoints, cfg.phases as u64 + 1);
    assert!(report.allocs > 1_000, "too few allocs: {report:?}");
    assert!(
        report.injected_faults > 0,
        "no fault ever fired: {report:?}"
    );
    // Coverage: every registered site was both consulted and fired.
    let stats = arena.faults().plan().unwrap().site_stats();
    for site in kmem::faults::ALL_SITES {
        let s = stats
            .iter()
            .find(|s| s.site == site)
            .unwrap_or_else(|| panic!("site {site} never consulted"));
        assert!(s.fired > 0, "site {site} armed but never fired: {s:?}");
    }
    // Every global access is fast (a ready chain taken or landed within
    // the bound) or slow (bucket, miss, fault, over-bound put); the
    // injected-fault mix must have driven both directions down both, or
    // the fault audit lost coverage.
    let snap = arena.snapshot();
    let (mut gf, mut gs, mut pf, mut ps) = (0u64, 0u64, 0u64, 0u64);
    for cs in &snap.classes {
        gf += cs.global.get_fast;
        gs += cs.global.get_slow;
        pf += cs.global.put_fast;
        ps += cs.global.put_slow;
    }
    assert!(gf > 0, "no get ever took a ready chain: {snap:?}");
    assert!(gs > 0, "no get ever took the slow path: {snap:?}");
    assert!(pf > 0, "no put ever landed within the bound: {snap:?}");
    assert!(ps > 0, "no put ever took the slow path: {snap:?}");

    arena.reclaim();
    verify_empty(&arena);
}

/// The full randomized mix with the maintenance core compiled in and ON:
/// slow-path drains, trims, and pressure escalations route through the
/// mailbox, and the torture driver pumps it at every quiescent
/// checkpoint, asserting the mailbox settles exactly
/// (`drained == posted − deduped`, backlog empty) each time. Faults stay
/// on so injected failures and the offload path are exercised together.
#[test]
fn maintenance_core_torture_settles_every_checkpoint() {
    let cfg = TortureConfig {
        threads: 4,
        ops_per_thread: 20_000,
        phases: 4,
        max_held_per_thread: 1_024,
        faults: true,
        maint: true,
        ..TortureConfig::standard()
    };
    // Starved enough that the pressure ladder climbs (mailbox drain
    // requests get traffic), two nodes so Spill work items carry distinct
    // shard keys through the dedup filter.
    let mut kcfg = apply_hardened(
        KmemConfig::new(
            cfg.threads,
            SpaceConfig::new(64 << 20).phys_pages(256).vmblk_shift(16),
        )
        .nodes(2)
        .maint(MaintConfig::on()),
        &cfg,
    );
    kcfg.faults = Faults::with_plan();
    let arena = KmemArena::new(kcfg).unwrap();
    assert!(arena.maint_enabled());
    let report = run_torture(&arena, &cfg);

    assert_eq!(report.ops, (cfg.threads * cfg.ops_per_thread) as u64);
    // One checkpoint per phase plus teardown — each one pumped the
    // mailbox and re-proved the settle identity inside the driver.
    assert_eq!(report.checkpoints, cfg.phases as u64 + 1);
    assert!(report.allocs > 1_000, "too few allocs: {report:?}");

    let m = arena.snapshot().maint;
    assert!(m.enabled);
    assert!(m.posted > 0, "offload never exercised: {m:?}");
    assert_eq!(m.drained, m.posted - m.deduped, "work leaked: {m:?}");
    assert_eq!(arena.maint_backlog(), 0);

    arena.reclaim();
    verify_empty(&arena);
}

/// Deterministic cross-CPU interleavings: several virtual CPUs driven
/// from one thread by a generated fair schedule. Unlike the real-thread
/// torture (where the OS scheduler decides the timing), a failure here
/// shrinks to a minimal schedule.
#[test]
fn interleaved_cpu_schedules_preserve_invariants() {
    const CPUS: usize = 3;
    check(
        "interleaved_cpu_schedules_preserve_invariants",
        20,
        |rng| {
            let schedule = interleaving(CPUS, 120)(rng);
            let seed = rng.next_u64();
            (schedule, seed)
        },
        no_shrink,
        |(schedule, seed)| {
            let arena = KmemArena::new(KmemConfig::new(CPUS, SpaceConfig::new(32 << 20))).unwrap();
            let cpus: Vec<_> = (0..CPUS).map(|_| arena.register_cpu().unwrap()).collect();
            let mut rng = kmem_testkit::Rng::new(*seed);
            let sizes = [48usize, 256, 1024];
            let mut held: Vec<Vec<(std::ptr::NonNull<u8>, usize)>> = vec![Vec::new(); CPUS];
            for &t in schedule {
                let cpu = &cpus[t];
                if held[t].len() < 40 && rng.ratio(3, 5) {
                    let size = *rng.choose(&sizes);
                    if let Ok(p) = cpu.alloc(size) {
                        held[t].push((p, size));
                    }
                } else if !held[t].is_empty() {
                    let i = rng.index(held[t].len());
                    let (p, size) = held[t].swap_remove(i);
                    // SAFETY: allocated above on this handle, freed once.
                    unsafe { cpu.free_sized(p, size) };
                } else if rng.ratio(1, 4) {
                    cpu.flush();
                }
            }
            verify_arena(&arena);
            for (t, blocks) in held.iter_mut().enumerate() {
                for (p, size) in blocks.drain(..) {
                    // SAFETY: allocated above on this handle, freed once.
                    unsafe { cpus[t].free_sized(p, size) };
                }
            }
            for cpu in &cpus {
                cpu.flush();
            }
            arena.reclaim();
            verify_empty(&arena);
            Ok(())
        },
    );
}
