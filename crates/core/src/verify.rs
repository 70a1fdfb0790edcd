//! Cross-layer invariant verification.
//!
//! The paper's worst-case benchmark works only because coalescing is
//! *complete*: after every block of a size is freed, all memory must have
//! flowed back through the page and vmblk layers so the next size can use
//! it. These walkers make that property (and the bounds of every layer)
//! checkable after any test workload. All functions require quiescence:
//! no other thread may be using the arena during verification.

use crate::arena::KmemArena;

/// Checks the structural invariants of every layer.
///
/// * vmblk layer: spans well formed, fully coalesced, freelists and
///   physical-frame accounting exact (see
///   [`crate::vmblklayer::VmblkLayer::verify`]);
/// * global layer: every pool within `2 * gbltarget + ncpus * target`
///   blocks. The pool's count is exact, but a put over the bound lands
///   its chain and leaves the trim to the settle it owes, so each CPU can
///   land one over-bound put before that settle runs (DESIGN.md §9);
/// * page layer: every listed page sits in the bucket of its free count,
///   which matches its freelist length and lies within
///   `1..=blocks_per_page` (a full page stays listed only while a fault
///   defers its coalesce), and the counts sum to the layer's total.
///
/// # Panics
///
/// Panics on any violation.
pub fn verify_arena(arena: &KmemArena) {
    let inner = arena.inner();
    inner.vm().verify();
    let ncpus = arena.ncpus();
    for pool in inner.globals().iter() {
        let len = pool.len();
        let bound = 2 * pool.gbltarget() + ncpus * pool.target();
        assert!(
            len <= bound,
            "global pool holds {len} blocks, bound {bound} \
             (2 * {} + {ncpus} CPUs * {})",
            pool.gbltarget(),
            pool.target()
        );
    }
    for (idx, layer) in inner.pages().iter().enumerate() {
        let bpp = layer.blocks_per_page();
        let mut listed_pages = 0usize;
        let mut summed_counts = 0usize;
        layer.for_each_page(|count, listed| {
            assert_eq!(count, listed, "class {idx}: page count != freelist length");
            assert!(
                count >= 1 && count <= bpp,
                "class {idx}: listed page with {count}/{bpp} free blocks"
            );
            listed_pages += 1;
            summed_counts += count;
        });
        // Conservation across the radix lists: a page listed twice would
        // inflate both sums below, and a released page left in a bucket
        // would trip the freelist-length check above.
        let (pages, free_blocks) = layer.usage();
        assert_eq!(
            summed_counts, free_blocks,
            "class {idx}: per-page free counts sum to {summed_counts} but \
             the layer accounts {free_blocks} free blocks"
        );
        assert!(
            listed_pages <= pages,
            "class {idx}: {listed_pages} listed pages exceed {pages} owned \
             (a released page is still listed, or a page is double-listed)"
        );
    }
    for idx in 0..inner.classes().len() {
        inner.check_cache_bounds(idx);
    }
}

/// Checks block conservation per class, given how many blocks of each
/// class the *caller* currently holds.
///
/// For every class: `pages_owned * blocks_per_page` must equal
/// `page-layer free + global pool + per-CPU caches + quarantined +
/// sunk + user_held`. The last two are hardened-profile terms (both zero
/// in the default profile): blocks parked in per-CPU double-free
/// quarantine rings, and blocks the arena deliberately leaked after a
/// corruption detection — a known, counted loss rather than a silent one.
///
/// # Panics
///
/// Panics on a conservation violation (a lost or duplicated block).
pub fn verify_conservation(arena: &KmemArena, user_held: &[usize]) {
    let inner = arena.inner();
    assert_eq!(user_held.len(), inner.classes().len());
    for (idx, &held) in user_held.iter().enumerate() {
        let layer = &inner.pages()[idx];
        let (pages, page_free) = layer.usage();
        let global = inner.global_blocks(idx);
        let cached = inner.cached_blocks(idx);
        let quarantined = inner.quarantined_blocks(idx);
        let sunk = inner.sunk_blocks(idx);
        let capacity = pages * layer.blocks_per_page();
        assert_eq!(
            capacity,
            page_free + global + cached + quarantined + sunk + held,
            "class {idx}: {pages} pages hold {capacity} blocks but \
             {page_free} (page) + {global} (global) + {cached} (cached) + \
             {quarantined} (quarantined) + {sunk} (sunk) + \
             {held} (user) were found"
        );
    }
}

/// Convenience: full verification for a fully drained arena — no user
/// blocks, no cached pages, no physical frames claimed.
///
/// # Panics
///
/// Panics if anything is still held.
pub fn verify_empty(arena: &KmemArena) {
    verify_arena(arena);
    let zeros = vec![0; arena.inner().classes().len()];
    verify_conservation(arena, &zeros);
    assert_eq!(
        arena.space().phys().in_use(),
        0,
        "drained arena still claims physical frames"
    );
}
