//! Jump pointers (DESIGN.md §2, "Jump pointers"): the word beside a cached
//! free block's link names the block that will be popped `HINT_DISTANCE`
//! pops later, for the pop to prefetch.
//!
//! Only the plain profile of a build without debug assertions writes them
//! — a debug build keeps its poison in that word, the hardened profile its
//! own — so the first two tests exist in release builds only
//! (`scripts/ci.sh` runs this file under `--release`); the third holds in
//! every build.

use kmem::{HardenedConfig, KmemArena, KmemConfig};

/// The second word of the block at `p`.
///
/// # Safety
///
/// `p` must point to at least 16 readable bytes.
unsafe fn word1(p: *mut u8) -> usize {
    // SAFETY: forwarded caller contract.
    unsafe { (p as *const usize).add(1).read() }
}

#[cfg(not(debug_assertions))]
mod plain {
    use std::ptr::NonNull;

    use kmem::percpu::HINT_DISTANCE;
    use kmem::verify::{verify_conservation, verify_empty};
    use kmem::{CpuHandle, KmemArena, KmemConfig};
    use kmem_testkit::{check, no_shrink, Rng};

    use super::word1;

    const SIZE: usize = 256;

    /// A CPU of a fresh plain arena holding `2 * target` allocated blocks
    /// of the `SIZE` class, its cache for the class empty: freeing them all
    /// fills `main` and `aux` exactly, with no overflow.
    fn two_chains() -> (KmemArena, CpuHandle, usize, Vec<NonNull<u8>>) {
        let arena = KmemArena::new(KmemConfig::small()).unwrap();
        let cpu = arena.register_cpu().unwrap();
        let class = arena.cookie_for(SIZE).unwrap().class_index();
        let target = arena.snapshot().classes[class].target;
        let blocks = (0..2 * target).map(|_| cpu.alloc(SIZE).unwrap()).collect();
        cpu.flush();
        assert_eq!(cpu.cache_shape(class), (0, 0));
        (arena, cpu, class, blocks)
    }

    fn held(arena: &KmemArena, class: usize, n: usize) -> Vec<usize> {
        let mut held = vec![0; arena.nclasses()];
        held[class] = n;
        held
    }

    /// Exactness: in a freelist built by frees alone, every block's hint is
    /// the block popped `HINT_DISTANCE` pops after it — through either
    /// interface, and across the `main`/`aux` boundary, for a `target` the
    /// distance does not divide.
    #[test]
    fn a_popped_block_names_the_block_popped_hint_distance_later() {
        for cookies in [true, false] {
            let (arena, cpu, class, blocks) = two_chains();
            let cookie = arena.cookie_for(SIZE).unwrap();
            let n = blocks.len();
            assert_ne!((n / 2) % HINT_DISTANCE, 0, "the boundary case needs a turn");
            for &p in &blocks {
                // SAFETY: allocated by `two_chains`, freed once.
                unsafe {
                    if cookies {
                        cpu.free_cookie(p, cookie);
                    } else {
                        cpu.free_sized(p, SIZE);
                    }
                }
            }
            assert_eq!(cpu.cache_shape(class), (n / 2, n / 2));
            let popped: Vec<NonNull<u8>> = (0..n)
                .map(|_| {
                    if cookies {
                        cpu.alloc_cookie(cookie).unwrap()
                    } else {
                        cpu.alloc(SIZE).unwrap()
                    }
                })
                .collect();
            assert_eq!(cpu.cache_shape(class), (0, 0), "no refill took part");
            for (i, pair) in popped.windows(HINT_DISTANCE + 1).enumerate() {
                // SAFETY: an allocated block of 256 bytes; nothing has
                // written to it since it was popped.
                let hint = unsafe { word1(pair[0].as_ptr()) };
                assert_eq!(
                    hint,
                    pair[HINT_DISTANCE].as_ptr() as usize,
                    "pop {i} of {n} (cookies: {cookies})"
                );
            }
            for p in popped {
                // SAFETY: allocated above, freed once.
                unsafe { cpu.free_sized(p, SIZE) };
            }
            drop(cpu);
            arena.reclaim();
            verify_empty(&arena);
        }
    }

    /// What a use-after-free, a stale ring or a recycled page can leave in
    /// a hint word.
    fn garbage(rng: &mut Rng, foreign: usize) -> usize {
        match rng.index(6) {
            0 => 0,
            // Non-canonical on x86-64: bits 62 and 63 disagree.
            1 => (1 << 63) | (rng.next_u64() as usize & ((1 << 62) - 1)),
            // The zero page and its neighbours: never mapped.
            2 => rng.range_usize(1..4096),
            // Another arena's reservation, block-aligned or not.
            3 => foreign + rng.range_usize(0..1 << 16),
            // The kernel's half of the address space.
            4 => usize::MAX - rng.range_usize(0..1 << 20),
            _ => rng.next_u64() as usize,
        }
    }

    /// Advisory: whatever the hint words of the cached free blocks hold,
    /// the allocator hands out the same blocks in the same order, loses
    /// none, and drains to empty.
    #[test]
    fn garbage_hints_change_nothing() {
        let other = KmemArena::new(KmemConfig::small()).unwrap();
        let other_cpu = other.register_cpu().unwrap();
        let foreign = other_cpu.alloc(SIZE).unwrap();
        check(
            "garbage_hints_change_nothing",
            48,
            |rng| rng.next_u64(),
            no_shrink,
            |&seed| {
                let mut rng = Rng::new(seed);
                let (arena, cpu, class, mut blocks) = two_chains();
                let cookie = arena.cookie_for(SIZE).unwrap();
                let n = blocks.len();
                // Frees `blocks` into the (empty) cache, then overwrites
                // the second word of every one of them.
                let mut free_and_scribble = |blocks: &[NonNull<u8>]| {
                    for &p in blocks {
                        // SAFETY: allocated, freed once per call.
                        unsafe { cpu.free_cookie(p, cookie) };
                    }
                    assert_eq!(cpu.cache_shape(class), (n / 2, n / 2));
                    for &p in blocks {
                        let junk = garbage(&mut rng, foreign.as_ptr() as usize);
                        // SAFETY: a free block in this CPU's cache, which
                        // no other thread touches; the plain profile keeps
                        // nothing but the hint in its second word.
                        unsafe { (p.as_ptr() as *mut usize).add(1).write(junk) };
                    }
                };
                let mut order = Rng::new(seed ^ 0x5eed);
                order.shuffle(&mut blocks);
                free_and_scribble(&blocks);
                // LIFO, `main` before `aux`: the frees, backwards.
                for &want in blocks.iter().rev() {
                    let got = cpu.alloc_cookie(cookie).map_err(|e| format!("{e:?}"))?;
                    if got != want {
                        return Err(format!("popped {got:p}, expected {want:p}"));
                    }
                }
                verify_conservation(&arena, &held(&arena, class, n));

                // Again, and this time the junk travels: frees past the
                // cache's bound send the scribbled chains down through the
                // global layer, and the allocations after them pop (and
                // prefetch through) whatever comes back up.
                let more: Vec<_> = (0..n).map(|_| cpu.alloc_cookie(cookie).unwrap()).collect();
                cpu.flush();
                free_and_scribble(&blocks);
                for &p in &more {
                    // SAFETY: allocated above, freed once.
                    unsafe { cpu.free_cookie(p, cookie) };
                }
                verify_conservation(&arena, &held(&arena, class, 0));
                let mut back: Vec<_> = (0..2 * n)
                    .map(|_| cpu.alloc_cookie(cookie).unwrap())
                    .collect();
                verify_conservation(&arena, &held(&arena, class, 2 * n));
                back.sort();
                back.dedup();
                if back.len() != 2 * n {
                    return Err(format!("{} blocks handed out twice", 2 * n - back.len()));
                }
                for p in back {
                    // SAFETY: allocated above, freed once.
                    unsafe { cpu.free_cookie(p, cookie) };
                }
                drop(cpu);
                arena.reclaim();
                verify_empty(&arena);
                Ok(())
            },
        );
        // SAFETY: allocated above, freed once.
        unsafe { other_cpu.free_sized(foreign, SIZE) };
    }
}

/// The hardened profile has no hints: a freed block's second word is the
/// free poison in every build, checked again when the block is allocated.
#[test]
fn a_hardened_free_block_still_carries_its_poison() {
    let config = KmemConfig::small().hardened(HardenedConfig::full(0x4a55_4d50).panicking());
    let arena = KmemArena::new(config).unwrap();
    let cpu = arena.register_cpu().unwrap();
    let cookie = arena.cookie_for(256).unwrap();
    // Few enough to stay in the quarantine ring and the per-CPU cache.
    let target = arena.snapshot().classes[cookie.class_index()].target;
    let blocks: Vec<_> = (0..2 * target)
        .map(|_| cpu.alloc_cookie(cookie).unwrap())
        .collect();
    cpu.flush();
    for &p in &blocks {
        // SAFETY: allocated above, freed once.
        unsafe { cpu.free_cookie(p, cookie) };
    }
    // SAFETY: free blocks of a live arena; reading them races with nothing.
    unsafe {
        let poison = word1(blocks[0].as_ptr());
        for &p in &blocks {
            assert!(kmem::block::is_free_poisoned(p.as_ptr()));
            assert_eq!(word1(p.as_ptr()), poison);
        }
    }
    // Verify-on-alloc accepts every one of them (it panics otherwise).
    for _ in 0..blocks.len() {
        let p = cpu.alloc_cookie(cookie).unwrap();
        // SAFETY: a block of 256 bytes, allocated just above.
        assert_eq!(
            unsafe { word1(p.as_ptr()) },
            0,
            "accepted blocks lose the poison"
        );
    }
}
