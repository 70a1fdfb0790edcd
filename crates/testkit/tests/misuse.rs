//! Misuse detection: the guards must catch API abuse loudly instead of
//! corrupting the arena.
//!
//! Two tiers. In the *default* profile the poisoning guards are
//! `debug_assert!`-based (they must cost nothing in release kernels), so
//! those tests are gated on `debug_assertions`; a foreign cookie asserts
//! in debug builds and is a typed error in release ones. In the
//! *hardened* profile the same abuses are detected in every build — the
//! second half of this file runs the release-capable versions, gated on
//! the profile rather than the compiler. The dope-vector foreign-pointer
//! guard is structural and fires in every build and every profile.

use kmem::{HardenedConfig, KmemArena, KmemConfig};

fn arena() -> KmemArena {
    KmemArena::new(KmemConfig::small()).unwrap()
}

/// A hardened arena that panics on detection, for `should_panic` tests
/// that must behave identically in debug and release builds.
fn hardened_arena() -> KmemArena {
    KmemArena::new(KmemConfig::small().hardened(HardenedConfig::full(0x4d49_5355_5345).panicking()))
        .unwrap()
}

/// A cookie resolved against one arena must be rejected by another:
/// the cookie embeds the issuing arena's id.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "different arena")]
fn cross_arena_cookie_alloc_is_caught() {
    let a = arena();
    let b = arena();
    let cookie_a = a.cookie_for(256).unwrap();
    let cpu_b = b.register_cpu().unwrap();
    let _ = cpu_b.alloc_cookie(cookie_a);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "different arena")]
fn cross_arena_cookie_free_is_caught() {
    let a = arena();
    let b = arena();
    let cookie_a = a.cookie_for(256).unwrap();
    let cpu_b = b.register_cpu().unwrap();
    let p = cpu_b.alloc(256).unwrap();
    // SAFETY: deliberately wrong cookie — the guard must fire before any
    // freelist is touched.
    unsafe { cpu_b.free_cookie(p, cookie_a) };
}

/// Regression: in a release build of the *default* profile the arena-id
/// check used to compile away, so the safe `alloc_cookie` indexed this
/// arena's caches with another ladder's class index — here it handed out a
/// 64-byte block for a 256-byte cookie — and `free_cookie` threaded the
/// block onto the wrong class's freelist. A foreign cookie is a typed,
/// counted error in every profile, and neither call touches a cache.
/// (Debug builds assert instead: the two tests above.)
#[cfg(not(debug_assertions))]
#[test]
fn foreign_cookie_is_a_typed_error_in_the_default_profile() {
    use kmem::{ClassConfig, CorruptionSite, KmemError};
    let mut short_ladder = KmemConfig::small();
    short_ladder.classes = [64, 128, 256].map(ClassConfig::with_heuristics).to_vec();
    let a = KmemArena::new(short_ladder).unwrap();
    let b = arena();
    let foreign = a.cookie_for(256).unwrap();
    let own = b.cookie_for(256).unwrap();
    // Class 2 is 256 bytes in `a` and 64 bytes in `b`.
    assert_eq!(foreign.block_size(), 256);
    assert_eq!(b.snapshot().classes[foreign.class_index()].size, 64);

    let cpu = b.register_cpu().unwrap();
    let p = cpu.alloc_cookie(own).unwrap();
    let warm = cpu.alloc(64).unwrap();
    // SAFETY: allocated just above, freed once.
    unsafe { cpu.free_sized(warm, 64) };
    let before = b.snapshot();
    let cached = cpu.cached_blocks();

    match cpu.alloc_cookie(foreign) {
        Err(KmemError::Corruption { site, .. }) => assert_eq!(site, CorruptionSite::CookieArena),
        other => panic!("foreign cookie not reported: {other:?}"),
    }
    // SAFETY: deliberately the wrong cookie — the free must be dropped and
    // counted, leaving `p` allocated.
    unsafe { cpu.free_cookie(p, foreign) };

    let mut expected = before.clone();
    expected.corruption_reports += 2;
    assert_eq!(b.snapshot().to_json(), expected.to_json());
    assert_eq!(cpu.cached_blocks(), cached);
    // SAFETY: `p` is still allocated; this is its one real free.
    unsafe { cpu.free_cookie(p, own) };
    kmem::verify::verify_arena(&b);
}

/// Freeing the same block twice trips the poison check: the second free
/// sees the poison word the first free wrote.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "double free")]
fn double_free_is_caught() {
    let a = arena();
    let cpu = a.register_cpu().unwrap();
    let p = cpu.alloc(128).unwrap();
    // SAFETY: first free is legal; the second is the violation under test.
    unsafe {
        cpu.free_sized(p, 128);
        cpu.free_sized(p, 128);
    }
}

/// Writing to a block after freeing it is caught when the allocator next
/// hands the block out (the poison word was overwritten).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "use-after-free")]
fn use_after_free_is_caught_at_realloc() {
    let a = arena();
    let cpu = a.register_cpu().unwrap();
    let p = cpu.alloc(128).unwrap();
    // SAFETY: allocated above, freed once; the write below is the
    // violation under test.
    unsafe {
        cpu.free_sized(p, 128);
        core::ptr::write_bytes(p.as_ptr(), 0xff, 128);
    }
    // The freed block sits at the head of the per-CPU freelist, so the
    // next same-class allocation returns it and checks its poison.
    let _ = cpu.alloc(128);
}

// ---------------------------------------------------------------------
// Hardened profile: the same abuses, detected in *release* builds too.
// No `#[cfg(debug_assertions)]` below — these tests are profile-gated,
// not compiler-gated, and CI runs them with `--release`.
// ---------------------------------------------------------------------

/// Double free under the hardened profile: the second free finds the
/// free poison intact and panics (panicking profile) in any build.
#[test]
#[should_panic(expected = "double free")]
fn hardened_double_free_panics_in_any_build() {
    let a = hardened_arena();
    let cpu = a.register_cpu().unwrap();
    let p = cpu.alloc(128).unwrap();
    // SAFETY: first free is legal; the second is the violation under test.
    unsafe {
        cpu.free_sized(p, 128);
        cpu.free_sized(p, 128);
    }
}

/// Use-after-free under the hardened profile: a write through a freed
/// block (past the link word — clobbering the link is the *next* test)
/// is caught when the allocator re-issues the block, in any build.
#[test]
#[should_panic(expected = "use-after-free")]
fn hardened_use_after_free_panics_at_realloc() {
    // Quarantine off so the freed block is the very next one handed out.
    let mut h = HardenedConfig::full(0x0055_4146).panicking();
    h.quarantine = 0;
    let a = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
    let cpu = a.register_cpu().unwrap();
    let p = cpu.alloc(128).unwrap();
    // SAFETY: allocated above, freed once; the write below is the
    // violation under test. Offset 8 lands in the poisoned body, not the
    // encoded link word.
    unsafe {
        cpu.free_sized(p, 128);
        core::ptr::write_bytes(p.as_ptr().add(8), 0xff, 8);
    }
    let _ = cpu.alloc(128);
}

/// Overwriting the *link word* of a freed block decodes to an
/// implausible pointer: the chain walk detects it instead of
/// dereferencing it, in any build.
#[test]
#[should_panic(expected = "corrupted freelist link")]
fn hardened_clobbered_link_panics_at_realloc() {
    let mut h = HardenedConfig::full(0x4c49_4e4b).panicking();
    h.quarantine = 0;
    let a = KmemArena::new(KmemConfig::small().hardened(h)).unwrap();
    let cpu = a.register_cpu().unwrap();
    let p = cpu.alloc(128).unwrap();
    // SAFETY: allocated above, freed once; the link-word write is the
    // violation under test.
    unsafe {
        cpu.free_sized(p, 128);
        (p.as_ptr() as *mut usize).write(!0usize);
    }
    let _ = cpu.alloc(128);
}

/// A cookie resolved against one arena is rejected by a hardened other
/// arena in any build (debug builds trip the assertion, release builds
/// the reported corruption — same message either way).
#[test]
#[should_panic(expected = "different arena")]
fn hardened_cross_arena_cookie_panics_in_any_build() {
    let a = hardened_arena();
    let b = hardened_arena();
    let cookie_a = a.cookie_for(256).unwrap();
    let cpu_b = b.register_cpu().unwrap();
    let _ = cpu_b.alloc_cookie(cookie_a);
}

/// A pointer the arena never issued (here: from the host heap) is
/// rejected by the dope-vector lookup in every build profile.
#[test]
#[should_panic(expected = "does not manage")]
fn foreign_pointer_free_is_caught() {
    let a = arena();
    let cpu = a.register_cpu().unwrap();
    let mut foreign = Box::new([0u8; 256]);
    let p = std::ptr::NonNull::new(foreign.as_mut_ptr()).unwrap();
    // SAFETY: deliberately foreign pointer — the guard must reject it.
    unsafe { cpu.free(p) };
}
