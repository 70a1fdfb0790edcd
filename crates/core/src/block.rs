//! Raw free-block primitives.
//!
//! Free blocks carry their freelist linkage *inside themselves*, exactly as
//! in the kernel: the first word of a free block is the pointer to the next
//! free block. This module is the single home of the raw reads and writes
//! of that word, plus the poisoning that catches use-after-free and
//! double-free. The poison lives in the second word; where no profile
//! keeps poison there, the per-CPU layer keeps a jump pointer in it
//! ([`HINTS`]).
//!
//! # Hardened link encoding
//!
//! Intrusive links are the classic kernel-heap corruption target: a
//! use-after-free write lands directly on a pointer the allocator will
//! dereference. Under the hardened profile every link word is stored
//! XOR-encoded with a [`LinkKey`] — `stored = ptr ⊕ secret ⊕ word_addr`,
//! the SLUB `freelist_ptr` scheme — so an attacker without the per-arena
//! secret cannot aim a forged pointer, and an honest scribble decodes to
//! an implausible value that [`LinkKey::plausible`] rejects instead of the
//! allocator walking into it. Mixing the *word's own address* into the
//! mask means equal pointers encode differently at every slot, and the
//! first and second words of one block use different masks. A `secret` of
//! zero is the identity encoding (the default profile): the mask is zero
//! and every function below degenerates to the plain load/store it was
//! before hardening existed.
//!
//! # Safety
//!
//! Every function here requires that `block` points to the start of a block
//! that (a) lies inside the arena's reservation, (b) is at least 16 bytes,
//! and (c) is *free* — i.e. owned by an allocator layer, not by a caller.
//! These are exactly the conditions under which the kernel scribbles
//! freelist links into memory.

/// Minimum block size: the link word plus the word beside it (the poison
/// or a jump pointer).
pub const MIN_BLOCK: usize = 16;

/// Poison value written into the second word of freed blocks (all builds
/// under the hardened profile; debug builds otherwise).
const POISON: usize = 0xdead_4b4d_454d_beef_u64 as usize;

/// Byte pattern written over the non-pointer body words of freed blocks
/// under hardened poisoning (SLUB's `POISON_FREE` 0x6b, word-replicated).
const BODY_POISON: usize = 0x6b6b_6b6b_6b6b_6b6b_u64 as usize;

/// Per-arena key for encoding intrusive link words.
///
/// Carries the arena's secret plus the bounds of its reservation, so a
/// decoded link can be judged *plausible* (null, or in-reservation and
/// [`MIN_BLOCK`]-aligned) before anything dereferences it. The constant
/// [`LinkKey::PLAIN`] is the identity encoding used by the default
/// profile and by unit tests that build chains from host-heap fakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkKey {
    secret: usize,
    base: usize,
    limit: usize,
}

impl LinkKey {
    /// Identity encoding: links are stored as bare pointers and never
    /// validated. The default (non-hardened) profile.
    pub const PLAIN: LinkKey = LinkKey {
        secret: 0,
        base: 0,
        limit: 0,
    };

    /// An encoding key with the given secret, validating decoded links
    /// against the reservation `[base, limit)`. The secret is forced odd
    /// so it can never collide with the plain encoding.
    pub fn hardened(secret: usize, base: usize, limit: usize) -> LinkKey {
        LinkKey {
            secret: secret | 1,
            base,
            limit,
        }
    }

    /// Whether this key is the identity encoding.
    #[inline]
    pub fn is_plain(self) -> bool {
        self.secret == 0
    }

    /// The XOR mask for the link word at `word_addr`. Zero for the plain
    /// key, so encode/decode are the identity.
    #[inline]
    fn mask(self, word_addr: usize) -> usize {
        if self.secret == 0 {
            0
        } else {
            self.secret ^ word_addr
        }
    }

    /// Whether a decoded link could be a real free-block pointer: null,
    /// or inside the reservation and [`MIN_BLOCK`]-aligned. A clobbered
    /// encoded word decodes to an effectively random value, which this
    /// rejects with probability `1 - reservation_size / 2^64`.
    #[inline]
    pub fn plausible(self, ptr: *mut u8) -> bool {
        let addr = ptr as usize;
        ptr.is_null() || (addr >= self.base && addr < self.limit && addr.is_multiple_of(MIN_BLOCK))
    }
}

/// Reads the next-free-block link from a free block.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions, and its
/// link word must have been written by [`write_next`] under the same key.
#[inline]
pub unsafe fn read_next(block: *mut u8, key: LinkKey) -> *mut u8 {
    // SAFETY: per the function contract, `block` is a live free block with
    // a valid link word at offset 0.
    let raw = unsafe { (block as *mut usize).read() };
    (raw ^ key.mask(block as usize)) as *mut u8
}

/// Writes the next-free-block link into a free block.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions.
#[inline]
pub unsafe fn write_next(block: *mut u8, next: *mut u8, key: LinkKey) {
    // SAFETY: per the function contract, offset 0 of `block` is writable
    // and owned by the allocator.
    unsafe { (block as *mut usize).write(next as usize ^ key.mask(block as usize)) };
}

/// Whether word 1 of a block on a plain per-CPU freelist carries a jump
/// pointer (see [`crate::percpu`]). Builds with debug assertions keep their
/// debug poison in that word, and the hardened profile its [`POISON`], so
/// only the plain profile of an optimized build has the word to spare.
pub(crate) const HINTS: bool = !cfg!(debug_assertions);

/// Reads the jump pointer beside a free block's link. The value is
/// advisory: whatever the word holds, it is fit for [`prefetch`] and for
/// nothing else.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions.
#[inline(always)]
pub(crate) unsafe fn read_hint(block: *mut u8) -> *mut u8 {
    // SAFETY: blocks are at least [`MIN_BLOCK`] bytes, so the second word
    // is in bounds and allocator-owned.
    unsafe { (block as *mut *mut u8).add(1).read() }
}

/// Writes the jump pointer beside a free block's link.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions, on a
/// freelist whose second words nothing checks (see [`HINTS`]).
#[inline(always)]
pub(crate) unsafe fn write_hint(block: *mut u8, hint: *mut u8) {
    // SAFETY: as in `read_hint`.
    unsafe { (block as *mut *mut u8).add(1).write(hint) };
}

/// Asks for the line at `addr` to be brought into every cache level; a
/// no-op off x86-64. `addr` is never dereferenced — a prefetch of an
/// unmapped, non-canonical or null address retires without a fault — so any
/// value is safe to pass.
#[inline(always)]
pub(crate) fn prefetch(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no architectural effect; SSE is
    // part of the x86-64 baseline.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(addr as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// Marks `block` as freed (debug builds only — the default profile's
/// zero-release-cost poison). The hardened profile uses
/// [`poison_free`] instead, which also patterns the body and runs in
/// every build.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions.
#[inline]
pub unsafe fn poison(block: *mut u8) {
    if cfg!(debug_assertions) {
        // SAFETY: blocks are at least [`MIN_BLOCK`] bytes, so the second
        // word is in bounds and allocator-owned.
        unsafe { (block as *mut usize).add(1).write(POISON) };
    }
}

/// Hardened poison-on-free: writes the free poison into the second word
/// and the body pattern into every remaining word of the block, in every
/// build profile. The first word is left alone — it is (or will become)
/// the encoded freelist link.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions and be at
/// least `block_size` bytes.
#[inline]
pub unsafe fn poison_free(block: *mut u8, block_size: usize) {
    let words = block as *mut usize;
    // SAFETY: per the contract, words 1..block_size/8 are in bounds and
    // allocator-owned.
    unsafe {
        words.add(1).write(POISON);
        for i in 2..block_size / core::mem::size_of::<usize>() {
            words.add(i).write(BODY_POISON);
        }
    }
}

/// Hardened verify-on-alloc: checks that the free poison written by
/// [`poison_free`] is intact, returning the address of the first
/// overwritten word if not. Does *not* clear the poison — call
/// [`clear_poison_word`] once the block is accepted.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions and be at
/// least `block_size` bytes.
#[inline]
pub unsafe fn verify_free_poison(block: *mut u8, block_size: usize) -> Result<(), usize> {
    let words = block as *const usize;
    // SAFETY: per the contract, words 1..block_size/8 are in bounds.
    unsafe {
        if words.add(1).read() != POISON {
            return Err(words.add(1) as usize);
        }
        for i in 2..block_size / core::mem::size_of::<usize>() {
            if words.add(i).read() != BODY_POISON {
                return Err(words.add(i) as usize);
            }
        }
    }
    Ok(())
}

/// Whether `block` currently carries the free-poison word — the hardened
/// double-free heuristic (exact for blocks parked on freelists; a live
/// block whose owner stored exactly the poison value is a false positive
/// the quarantine does not share).
///
/// # Safety
///
/// `block` must point to a readable block-sized region.
#[inline]
pub unsafe fn is_free_poisoned(block: *mut u8) -> bool {
    // SAFETY: per the contract, the second word is in bounds.
    unsafe { (block as *const usize).add(1).read() == POISON }
}

/// Clears the free-poison word after a hardened verify accepted the
/// block, so the next free of it is not mistaken for a double free.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions.
#[inline]
pub unsafe fn clear_poison_word(block: *mut u8) {
    // SAFETY: per the contract, the second word is in bounds.
    unsafe { (block as *mut usize).add(1).write(0) };
}

/// Panics (debug builds only) if `block` does not carry the free poison —
/// catching frees of never-allocated pointers — and clears it so a
/// *second* free of the same block is caught as a double free.
///
/// # Safety
///
/// `block` must satisfy the module-level free-block conditions.
#[inline]
pub unsafe fn check_and_clear_poison_on_alloc(block: *mut u8) {
    if cfg!(debug_assertions) {
        // SAFETY: as in `poison`.
        let word = unsafe { (block as *mut usize).add(1) };
        // SAFETY: as in `poison`.
        debug_assert_eq!(
            unsafe { word.read() },
            POISON,
            "allocating a block whose free poison was overwritten \
             (use-after-free?) at {block:p}"
        );
        // SAFETY: as in `poison`.
        unsafe { word.write(0) };
    }
}

/// Panics (debug builds only) if `block` still carries the free poison,
/// i.e. if it is being freed twice without an intervening allocation.
///
/// # Safety
///
/// `block` must point to a block-sized region owned by the caller.
#[inline]
pub unsafe fn check_not_double_free(block: *mut u8) {
    if cfg!(debug_assertions) {
        // SAFETY: as in `poison`.
        let val = unsafe { (block as *const usize).add(1).read() };
        debug_assert_ne!(val, POISON, "double free of block at {block:p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Box<[u8; 32]> {
        Box::new([0u8; 32])
    }

    fn key_for(blocks: &[*mut u8]) -> LinkKey {
        let lo = blocks.iter().map(|&p| p as usize).min().unwrap();
        let hi = blocks.iter().map(|&p| p as usize).max().unwrap();
        LinkKey::hardened(0x5eed_cafe_f00d_1234, lo & !15, (hi & !15) + 32)
    }

    #[test]
    fn link_round_trip() {
        let mut a = block();
        let mut b = block();
        let pa = a.as_mut_ptr();
        let pb = b.as_mut_ptr();
        // SAFETY: `pa` points to 32 owned, writable bytes.
        unsafe { write_next(pa, pb, LinkKey::PLAIN) };
        // SAFETY: link was just written.
        assert_eq!(unsafe { read_next(pa, LinkKey::PLAIN) }, pb);
        // The plain encoding stores the bare pointer.
        assert_eq!(unsafe { (pa as *const usize).read() }, pb as usize);
    }

    #[test]
    fn keyed_link_round_trips_and_scrambles() {
        let mut a = block();
        let mut b = block();
        let pa = a.as_mut_ptr();
        let pb = b.as_mut_ptr();
        let key = key_for(&[pa, pb]);
        // SAFETY: `pa` points to 32 owned, writable bytes.
        unsafe { write_next(pa, pb, key) };
        // SAFETY: link was just written under `key`.
        assert_eq!(unsafe { read_next(pa, key) }, pb);
        // The stored word is NOT the bare pointer (and not null for null).
        assert_ne!(unsafe { (pa as *const usize).read() }, pb as usize);
        // SAFETY: as above.
        unsafe { write_next(pa, core::ptr::null_mut(), key) };
        assert_ne!(unsafe { (pa as *const usize).read() }, 0);
        assert!(unsafe { read_next(pa, key) }.is_null());
        // A different slot encodes the same pointer differently.
        // SAFETY: `pb` points to 32 owned, writable bytes.
        unsafe { write_next(pb, pa, key) };
        // SAFETY: both words just written.
        let wa = unsafe { (pa as *const usize).read() };
        let wb = unsafe { (pb as *const usize).read() };
        assert_ne!(wa, wb);
    }

    #[test]
    fn plausibility_rejects_wild_decodes() {
        let mut a = block();
        let pa = a.as_mut_ptr();
        let key = key_for(&[pa]);
        assert!(key.plausible(core::ptr::null_mut()));
        assert!(key.plausible((pa as usize & !15) as *mut u8));
        // Unaligned, below-base, and random addresses are rejected.
        assert!(!key.plausible((pa as usize & !15).wrapping_add(8) as *mut u8));
        assert!(!key.plausible(8 as *mut u8));
        assert!(!key.plausible(usize::MAX as *mut u8));
        // The plain key never validates (callers skip the check).
        assert!(LinkKey::PLAIN.is_plain());
        assert!(!key.is_plain());
    }

    #[test]
    fn poison_cycle() {
        let mut a = block();
        let pa = a.as_mut_ptr();
        // SAFETY: `pa` points to 32 owned bytes.
        unsafe {
            check_not_double_free(pa);
            poison(pa);
            check_and_clear_poison_on_alloc(pa);
            check_not_double_free(pa);
        }
    }

    #[test]
    fn hardened_poison_covers_the_body() {
        let mut a = block();
        let pa = a.as_mut_ptr();
        // SAFETY: `pa` points to 32 owned bytes.
        unsafe {
            poison_free(pa, 32);
            assert!(is_free_poisoned(pa));
            assert!(verify_free_poison(pa, 32).is_ok());
            // A body scribble (word 2) is pinpointed.
            (pa as *mut usize).add(2).write(0x41414141);
            let bad = verify_free_poison(pa, 32).unwrap_err();
            assert_eq!(bad, (pa as *const usize).add(2) as usize);
            // The poison word itself is covered too.
            (pa as *mut usize).add(2).write(BODY_POISON);
            (pa as *mut usize).add(1).write(0);
            assert!(verify_free_poison(pa, 32).is_err());
            assert!(!is_free_poisoned(pa));
            // Clearing after a successful verify resets the state.
            poison_free(pa, 32);
            clear_poison_word(pa);
            assert!(!is_free_poisoned(pa));
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_is_caught() {
        let mut a = block();
        let pa = a.as_mut_ptr();
        // SAFETY: `pa` points to 32 owned bytes.
        unsafe {
            poison(pa);
            check_not_double_free(pa);
        }
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    #[cfg(debug_assertions)]
    fn foreign_free_is_caught() {
        let mut a = block();
        let pa = a.as_mut_ptr();
        // SAFETY: `pa` points to 32 owned bytes.
        unsafe { check_and_clear_poison_on_alloc(pa) };
    }
}
