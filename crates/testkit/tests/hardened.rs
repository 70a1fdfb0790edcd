//! Hardened-profile acceptance: the corruption defenses must *detect* in
//! release builds, not just in `debug_assert!`-instrumented ones, and
//! detection must never break block conservation — a caught corruption
//! becomes a typed error plus a counted, deliberate leak, never a silent
//! loss.
//!
//! Four tiers:
//!
//! * typed-error unit flows (double free through both the quarantine and
//!   the poison heuristic, conservation intact after each report);
//! * the same detections through the cookie interface, whose cache hit is
//!   inlined for plain arenas only, under each knob alone and all four;
//! * a property test: flip one random *word* of a freed block to garbage
//!   and the next same-class allocation must report it — the link word
//!   surfaces as a corrupted freelist link, every other word as a
//!   use-after-free poison overwrite;
//! * a seeded multi-threaded torture round with every defense armed, on
//!   the same op mix the default profile runs.

use kmem::verify::{verify_arena, verify_conservation, verify_empty};
use kmem::{CorruptionSite, HardenedConfig, KmemArena, KmemConfig, KmemError};
use kmem_testkit::{check, no_shrink, run_torture, TortureConfig};
use kmem_vm::SpaceConfig;

const SIZE: usize = 256;

/// Per-class held counts for [`verify_conservation`]: `held` blocks of
/// class `SIZE`, zero elsewhere.
fn held_counts(arena: &KmemArena, held: usize) -> Vec<usize> {
    arena
        .snapshot()
        .classes
        .iter()
        .map(|c| if c.size == SIZE { held } else { 0 })
        .collect()
}

/// Double free of a quarantined block: the ring still holds the first
/// free, so the second surfaces as a typed `DoubleFreeQuarantine` (the
/// poison heuristic is disabled here to isolate the ring).
#[test]
fn quarantine_reports_typed_double_free() {
    let mut h = HardenedConfig::full(0xd0_d0);
    h.poison = false;
    let arena = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
    let cpu = arena.register_cpu().unwrap();
    let p = cpu.alloc(SIZE).unwrap();
    // SAFETY: the first free is legal; the second is the misuse under
    // test, and the hardened profile guarantees it is caught, not acted
    // on.
    let (first, second) = unsafe { (cpu.free_checked(p), cpu.free_checked(p)) };
    first.expect("legal free");
    match second {
        Err(KmemError::Corruption { site, addr }) => {
            assert_eq!(site, CorruptionSite::DoubleFreeQuarantine);
            assert_eq!(addr, p.as_ptr() as usize);
        }
        other => panic!("double free not reported: {other:?}"),
    }
    let snap = arena.snapshot();
    assert_eq!(snap.corruption_reports, 1, "{snap:?}");
    assert!(snap.quarantine_len >= 1, "{snap:?}");
    // The block is parked exactly once — the dropped second free did not
    // duplicate it anywhere.
    verify_arena(&arena);
    verify_conservation(&arena, &held_counts(&arena, 0));
    cpu.flush();
    arena.reclaim();
    verify_empty(&arena);
}

/// Double free past the quarantine: with the ring disabled, the intact
/// free poison identifies the block as already-freed in any build.
#[test]
fn poison_reports_typed_double_free_without_quarantine() {
    let mut h = HardenedConfig::full(0xd0_d1);
    h.quarantine = 0;
    let arena = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
    let cpu = arena.register_cpu().unwrap();
    let p = cpu.alloc(SIZE).unwrap();
    // SAFETY: first free legal, second is the misuse under test.
    let (first, second) = unsafe { (cpu.free_checked(p), cpu.free_checked(p)) };
    first.expect("legal free");
    match second {
        Err(KmemError::Corruption { site, .. }) => {
            assert_eq!(site, CorruptionSite::DoubleFreePoison);
        }
        other => panic!("double free not reported: {other:?}"),
    }
    let snap = arena.snapshot();
    assert_eq!(snap.corruption_reports, 1, "{snap:?}");
    assert_eq!(snap.poison_hits, 1, "{snap:?}");
    verify_arena(&arena);
    verify_conservation(&arena, &held_counts(&arena, 0));
    cpu.flush();
    arena.reclaim();
    verify_empty(&arena);
}

/// One cookie-interface misuse against a fresh arena running `h`: frees a
/// victim with `free_cookie` (twice with `refree`), pushes it out of the
/// quarantine ring, if any, so that it heads the per-CPU list, overwrites
/// `word` of it when asked, and — unless it was the double free under
/// test — allocates. Returns the snapshot and the allocation's result,
/// with conservation already checked.
fn cookie_misuse(
    h: HardenedConfig,
    word: Option<usize>,
    refree: bool,
) -> (
    kmem::KmemSnapshot,
    Option<Result<std::ptr::NonNull<u8>, KmemError>>,
) {
    let arena = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
    let cpu = arena.register_cpu().unwrap();
    let cookie = arena.cookie_for(SIZE).unwrap();
    let fillers: Vec<_> = (0..h.quarantine)
        .map(|_| cpu.alloc_cookie(cookie).unwrap())
        .collect();
    let victim = cpu.alloc_cookie(cookie).unwrap();
    // SAFETY: every block was allocated above with this cookie and is freed
    // once, except for the second free of `victim` and the word write,
    // which are the misuses under test.
    let result = unsafe {
        cpu.free_cookie(victim, cookie);
        if refree {
            cpu.free_cookie(victim, cookie);
        }
        for p in fillers {
            cpu.free_cookie(p, cookie);
        }
        if let Some(word) = word {
            (victim.as_ptr() as *mut u64).add(word).write(!0);
        }
        (!refree).then(|| cpu.alloc_cookie(cookie))
    };
    let held = usize::from(matches!(result, Some(Ok(_))));
    verify_arena(&arena);
    verify_conservation(&arena, &held_counts(&arena, held));
    let snap = arena.snapshot();
    if let Some(Ok(p)) = result {
        // SAFETY: allocated just above, freed once.
        unsafe { cpu.free_cookie(p, cookie) };
    }
    (snap, result)
}

/// No hardened handle takes the plain cookie path: each knob alone, and
/// all of them together, still detects through `alloc_cookie` /
/// `free_cookie` what it detects through the standard interface — a
/// double free by the ring or by the intact poison, a write after free, a
/// clobbered link — as typed, counted reports in any build, with
/// conservation intact. A knob that detects nothing (`randomize`) must
/// still run clean.
#[test]
fn cookie_interface_detects_under_each_knob_alone() {
    let off = HardenedConfig {
        seed: 0xc00c_1e55,
        ..HardenedConfig::off()
    };
    let profiles = [
        HardenedConfig {
            encode: true,
            ..off
        },
        HardenedConfig {
            poison: true,
            ..off
        },
        HardenedConfig {
            randomize: true,
            ..off
        },
        HardenedConfig {
            quarantine: 8,
            ..off
        },
        HardenedConfig::full(off.seed),
    ];
    for h in profiles {
        let (clean, got) = cookie_misuse(h, None, false);
        assert!(matches!(got, Some(Ok(_))), "{h:?}: {got:?}");
        assert_eq!(clean.corruption_reports, 0, "{h:?}");

        if h.poison || h.quarantine > 0 {
            // `free_cookie` counts and drops: the site shows in which
            // counter moved (the poison check runs before the ring).
            let (snap, _) = cookie_misuse(h, None, true);
            assert_eq!(snap.corruption_reports, 1, "{h:?}: double free missed");
            assert_eq!(snap.poison_hits, u64::from(h.poison), "{h:?}");
            assert_eq!(snap.encode_faults, 0, "{h:?}");
        }
        let expect = |word, site| match cookie_misuse(h, Some(word), false) {
            (snap, Some(Err(KmemError::Corruption { site: got, .. }))) => {
                assert_eq!(got, site, "{h:?}");
                assert_eq!(snap.corruption_reports, 1, "{h:?}");
            }
            (_, other) => panic!("{h:?}: word {word} overwrite not reported: {other:?}"),
        };
        if h.poison {
            expect(2, CorruptionSite::PoisonOverwrite);
        }
        if h.encode {
            expect(0, CorruptionSite::FreelistLink);
        }
    }
}

/// The detection property: overwrite one random word of a freed block
/// with garbage and the next same-class allocation reports a typed
/// corruption — `FreelistLink` when the encoded link word was hit,
/// `PoisonOverwrite` for any other word — and per-class conservation
/// still balances, the damaged blocks accounted as sunk rather than
/// lost.
#[test]
fn random_single_word_corruption_is_detected_on_next_alloc() {
    check(
        "random_single_word_corruption_is_detected_on_next_alloc",
        40,
        |rng| {
            let word_idx = rng.index(SIZE / 8);
            // Random nonzero garbage. A clobbered link word escapes
            // detection only if it *decodes* into the arena's own
            // 16 MB address range (≈2⁻⁴⁰ per draw), and a body word only
            // by matching the 64-bit poison pattern exactly — with fixed
            // seeds the draws are deterministic, so the test is stable.
            let garbage = rng.next_u64() | 1;
            (rng.next_u64(), word_idx, garbage)
        },
        no_shrink,
        |&(seed, word_idx, garbage)| {
            // Quarantine off so the corrupted block is at the head of the
            // per-CPU list — the very next allocation must walk over it.
            let mut h = HardenedConfig::full(seed);
            h.quarantine = 0;
            let arena = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
            let cpu = arena.register_cpu().unwrap();
            let keep: Vec<_> = (0..3).map(|_| cpu.alloc(SIZE).unwrap()).collect();
            let victim = cpu.alloc(SIZE).unwrap();
            // SAFETY: allocated above, freed exactly once; the word write
            // below is the corruption under test.
            unsafe {
                cpu.free_checked(victim).expect("legal free");
                (victim.as_ptr() as *mut u64).add(word_idx).write(garbage);
            }
            let err = cpu.alloc(SIZE).expect_err("corruption missed");
            match err {
                KmemError::Corruption { site, .. } => {
                    let expected = if word_idx == 0 {
                        CorruptionSite::FreelistLink
                    } else {
                        CorruptionSite::PoisonOverwrite
                    };
                    if site != expected {
                        return Err(format!("word {word_idx} reported as {site:?}"));
                    }
                }
                other => return Err(format!("unexpected error: {other}")),
            }
            let snap = arena.snapshot();
            if snap.corruption_reports != 1 {
                return Err(format!("reports: {}", snap.corruption_reports));
            }
            // The damaged block (and, for a link clobber, everything the
            // broken chain made unreachable) is sunk, not lost:
            // conservation must balance with only the survivors in hand.
            verify_arena(&arena);
            verify_conservation(&arena, &held_counts(&arena, keep.len()));
            for p in keep {
                // SAFETY: allocated above, freed exactly once.
                unsafe { cpu.free_checked(p).expect("legal free") };
            }
            cpu.flush();
            arena.reclaim();
            verify_arena(&arena);
            verify_conservation(&arena, &held_counts(&arena, 0));
            Ok(())
        },
    );
}

/// The full multi-threaded torture mix with every defense armed — same
/// ops, seeded, conservation checked at every phase boundary. Clean
/// traffic must never trip a false detection.
#[test]
fn hardened_torture_round_is_clean() {
    let cfg = TortureConfig {
        threads: 4,
        ops_per_thread: 25_000,
        phases: 3,
        seed: 0x4841_5244_5245_4e44, // "HARDREND"
        hardened: true,
        ..TortureConfig::standard()
    };
    let kcfg = KmemConfig::new(cfg.threads, SpaceConfig::new(256 << 20))
        .hardened(HardenedConfig::full(cfg.seed));
    let arena = KmemArena::new(kcfg).unwrap();
    let report = run_torture(&arena, &cfg);

    assert_eq!(report.ops, (cfg.threads * cfg.ops_per_thread) as u64);
    assert!(report.allocs > 5_000, "too few allocs: {report:?}");
    assert!(report.cross_frees > 500, "no cross-thread flow: {report:?}");
    assert_eq!(report.checkpoints, cfg.phases as u64 + 1);

    let snap = arena.snapshot();
    assert_eq!(
        snap.corruption_reports, 0,
        "clean traffic tripped a detector: {snap:?}"
    );
    arena.reclaim();
    verify_empty(&arena);
}
