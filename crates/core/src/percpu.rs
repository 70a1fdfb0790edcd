//! The per-CPU caching layer (paper Figure 2).
//!
//! "The only purpose of the per-CPU caching layer is to support high-speed
//! allocation and deallocation in the common case." Each (CPU, size class)
//! pair owns one [`CpuCache`]: a *split freelist* made of `main` and `aux`,
//! each holding at most `target` blocks.
//!
//! * Allocation pops from `main`; if `main` is empty the contents of `aux`
//!   are moved over (one O(1) chain move); only if both are empty does the
//!   global layer get involved.
//! * Freeing pushes onto `main`; when `main` already holds `target` blocks,
//!   `aux` (if occupied) is returned to the global layer as a ready-made
//!   `target`-sized chain and `main` is demoted to `aux` — again O(1).
//!
//! The split gives hysteresis: after any interaction with the global layer,
//! at least `target` operations of the same kind must happen before the
//! global layer is touched again, so "the global layer will be accessed at
//! most one time per target-number of accesses".
//!
//! # Jump pointers
//!
//! A block freed on one CPU and allocated on another costs the allocating
//! CPU a cache miss per pop, and the misses are serial: the address of the
//! next block is in the line still in flight. So a push onto `main` writes,
//! beside the link, the address of the block [`HINT_DISTANCE`] positions
//! further down, and a pop prefetches through that word — the lines of the
//! next few blocks are then fetched side by side. The word is a hint and
//! nothing more: it is never dereferenced, counted on or checked, and what
//! a stale or overwritten one costs is a wasted prefetch. It exists only in
//! the plain profile of a build without debug assertions
//! ([`crate::block`] says why); DESIGN.md §2 has the ring's invariant.

use kmem_smp::{ExclusionFlag, LocalCounter};

use crate::block::{self, LinkKey};
use crate::chain::{Chain, ChainFault};
use crate::counters::counters;

/// How far down its freelist a block's jump pointer reaches: a pop
/// prefetches the block that will be popped this many pops later. A power
/// of two — it is also the size of the ring the pointers are taken from.
pub const HINT_DISTANCE: usize = 4;

/// Number of buckets in the cache-occupancy histogram: bucket `i` counts
/// samples where the cache held between `i/8` and `(i+1)/8` of its
/// `2 * target` capacity.
pub const OCC_BUCKETS: usize = 8;

counters! {
    /// Counters of one (CPU, size-class) cache, as captured by a snapshot:
    /// cumulative event counts since arena creation (subtract two captures
    /// with [`CacheCounts::delta`] for a per-interval view).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheCounts {
        /// Allocations presented to this cache (including refills).
        counter alloc: u64,
        /// Allocations that missed (needed a chain from the global layer).
        counter alloc_miss: u64,
        /// Allocation misses that found no memory anywhere (returned
        /// `OutOfMemory`). `alloc - alloc_fail` is the number of blocks
        /// actually handed out — the conservation checks rely on this.
        counter alloc_fail: u64,
        /// Failed attempts inside [`crate::KmemArena`]'s `alloc_sleep`
        /// retry loop; each is also counted in `alloc_fail`, bumped first.
        counter sleep_retries: u64,
        /// Frees presented to this cache (including overflows).
        counter free: u64,
        /// Frees that overflowed a chain to the global layer.
        counter free_miss: u64,
        /// Replenishment chains installed from the layers below.
        counter refill: u64,
        /// Refill chains shorter than `target` — each one erodes the
        /// paper's "at most one global access per `target` operations"
        /// hysteresis, so the DLM experiment wants them visible.
        counter refill_short: u64,
        /// Blocks received across all refills.
        counter refill_blocks: u64,
        /// Flushes via the public API / CPU teardown (flush counters only
        /// count flushes that evicted at least one block).
        counter flush_explicit: u64,
        /// Flushes honouring another CPU's drain request.
        counter flush_drain: u64,
        /// Flushes on this CPU's own low-memory retry path.
        counter flush_lowmem: u64,
        /// Blocks evicted by flushes.
        counter flush_blocks: u64,
        /// Cache-occupancy histogram, sampled every 64th allocation and at
        /// every cold-path event: bucket `i` counts samples at occupancy
        /// `[i/8, (i+1)/8)` of the `2 * target` capacity.
        counter occupancy: [u64; OCC_BUCKETS],
    }
    /// Per-cache event counters, readable from other threads.
    ///
    /// These live *outside* the cache's `UnsafeCell` (in the per-CPU slot)
    /// so that a statistics snapshot taken by another thread never aliases
    /// the owner's exclusive borrow of the cache itself. Every counter is a
    /// single-writer [`LocalCounter`]: only the owning CPU writes it, in its
    /// own (CPU, class) record, aligned so that no other CPU's record shares
    /// a line with it, so increments are plain load/store pairs
    /// — the "zero hot-path cost" telemetry the snapshot layer is built on.
    ///
    /// The rows stand in the owner's write order — the access counter
    /// *before* the corresponding miss counter, the miss counter before any
    /// refill/fail detail — and [`CacheCounts::read`] sweeps them backwards,
    /// which is what lets a concurrent snapshot assert `miss <= access` on
    /// live samples (the sweep order rule of [`crate::counters`]).
    live struct CacheStats<LocalCounter>;
}

impl CacheStats {
    /// Records one occupancy sample: the blocks `cache` holds out of its
    /// `2 * target` bound. Called on cold paths and on a 1-in-64 sampling
    /// cadence from the hit paths.
    #[inline]
    pub(crate) fn sample_occupancy(&self, cache: &CpuCache) {
        let bucket = (cache.len() * OCC_BUCKETS)
            .checked_div(2 * cache.target)
            .map_or(0, |b| b.min(OCC_BUCKETS - 1));
        self.occupancy[bucket].bump();
    }
}

/// What the double-free quarantine said about a freed block.
#[derive(Debug, PartialEq, Eq)]
pub enum QuarantineVerdict {
    /// The block is already parked in the ring: this free is a double
    /// free, caught before it could damage a list.
    Hit,
    /// The block was parked; the free is complete for now (the block
    /// re-enters circulation when it is evicted or the cache flushes).
    Parked,
    /// The block was parked and the oldest resident evicted; the caller
    /// continues the free with the evicted block.
    Evicted(*mut u8),
}

/// One per-(CPU, class) cache: the split freelist plus its bookkeeping.
pub struct CpuCache {
    main: Chain,
    aux: Chain,
    /// Where the jump pointers come from: slot `p % HINT_DISTANCE` holds
    /// the block last pushed at depth `p` of `main`, so a push at depth `p`
    /// finds there the block `HINT_DISTANCE` below it. Kept here and not in
    /// the chains, so it outlives the `main` → `aux` move.
    ring: [*mut u8; HINT_DISTANCE],
    /// Bound on each half of the split freelist.
    target: usize,
    /// `false` selects the single-list ablation (no `aux`; overflow walks
    /// the list to split off a chain).
    split: bool,
    /// Hardened-profile double-free quarantine: the most recently freed
    /// blocks, parked out of circulation. A free whose block is still in
    /// the ring is a double free. Empty (len 0) in the default profile.
    quarantine: Box<[*mut u8]>,
    /// Next ring slot to fill/evict.
    q_pos: usize,
    /// Occupied ring slots (grows to capacity, then stays).
    q_len: usize,
    /// Simulated interrupt disabling: asserts the cache is never
    /// re-entered.
    excl: ExclusionFlag,
}

// SAFETY: the quarantine ring holds free blocks the cache owns outright,
// exactly like the blocks threaded through `main`/`aux`; moving the cache
// to another thread moves that ownership wholesale.
unsafe impl Send for CpuCache {}

impl CpuCache {
    /// Creates an empty cache with the given `target` (plain link
    /// encoding, no quarantine — the default profile).
    pub fn new(target: usize, split: bool) -> Self {
        CpuCache::new_hardened(target, split, LinkKey::PLAIN, 0)
    }

    /// Creates an empty cache whose chains encode links under `key` and
    /// whose double-free quarantine ring holds `quarantine` blocks.
    pub fn new_hardened(target: usize, split: bool, key: LinkKey, quarantine: usize) -> Self {
        CpuCache {
            main: Chain::new_keyed(key),
            aux: Chain::new_keyed(key),
            ring: [core::ptr::null_mut(); HINT_DISTANCE],
            target,
            split,
            quarantine: vec![core::ptr::null_mut(); quarantine].into_boxed_slice(),
            q_pos: 0,
            q_len: 0,
            excl: ExclusionFlag::new(),
        }
    }

    /// This cache's `target` parameter.
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Total blocks currently cached.
    #[inline]
    pub fn len(&self) -> usize {
        self.main.len() + self.aux.len()
    }

    /// Returns whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast-path allocation.
    ///
    /// Returns `None` when both halves are empty; the caller then fetches a
    /// chain from the global layer and calls [`CpuCache::refill`] (and
    /// charges the miss counter in its per-CPU slot).
    #[inline]
    pub fn alloc(&mut self) -> Option<*mut u8> {
        let _irq = self.excl.enter();
        if let Some(block) = self.main.pop() {
            return Some(block);
        }
        if !self.aux.is_empty() {
            // "If main is empty upon allocation, the contents of aux, if
            // any, are moved to main."
            self.main = self.aux.take();
            return self.main.pop();
        }
        None
    }

    /// The hit of [`CpuCache::alloc`] — a pop from `main`, nothing else —
    /// for a caller to run inline before it falls back to `alloc`.
    ///
    /// # Safety
    ///
    /// `PLAIN` only on a cache created with [`LinkKey::PLAIN`].
    #[inline(always)]
    pub(crate) unsafe fn pop_main<const PLAIN: bool>(&mut self) -> Option<*mut u8> {
        let _irq = self.excl.enter();
        // SAFETY: forwarded caller contract.
        let block = unsafe { self.main.pop_as::<PLAIN>() }?;
        if PLAIN && block::HINTS {
            // SAFETY: `block` was a free block until this pop. Its second
            // word may hold anything; it is only ever prefetched.
            block::prefetch(unsafe { block::read_hint(block) });
        }
        Some(block)
    }

    /// Pushes `block` onto `main`; under `PLAIN`, where the word is free
    /// for it, with its jump pointer — which the ring then holds for the
    /// block `HINT_DISTANCE` pushes later.
    ///
    /// # Safety
    ///
    /// As for [`CpuCache::free`]; `PLAIN` only on a cache created with
    /// [`LinkKey::PLAIN`] whose blocks' second words nothing checks.
    #[inline(always)]
    unsafe fn push_hinted<const PLAIN: bool>(&mut self, block: *mut u8) {
        let _irq = self.excl.enter();
        if PLAIN && block::HINTS {
            let slot = &mut self.ring[self.main.len() % HINT_DISTANCE];
            // SAFETY: forwarded caller contract.
            unsafe { block::write_hint(block, *slot) };
            *slot = block;
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.main.push_as::<PLAIN>(block) };
    }

    /// Installs a replenishment chain from the global layer and pops one
    /// block from it.
    ///
    /// The internal allocation path only refills a cache both of whose
    /// halves are empty, but the guard is unconditional: a refill against a
    /// non-empty cache *merges* the resident blocks into the incoming chain
    /// instead of overwriting (and silently leaking) them. (This used to be
    /// a `debug_assert!` followed by a blind overwrite — in release builds
    /// a misused refill leaked every resident block out of the arena's
    /// accounting.)
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty.
    pub fn refill(&mut self, mut chain: Chain) -> *mut u8 {
        let _irq = self.excl.enter();
        assert!(!chain.is_empty(), "refill with empty chain");
        if !(self.main.is_empty() && self.aux.is_empty()) {
            // Defensive merge: keep every resident block accounted for.
            chain.append(&mut self.main);
            chain.append(&mut self.aux);
        }
        self.main = chain;
        self.main.pop().expect("chain was non-empty")
    }

    /// Fast-path free.
    ///
    /// Returns a `target`-sized chain to hand to the global layer when the
    /// cache overflows, `None` otherwise.
    ///
    /// # Safety
    ///
    /// `block` must be a free block of this cache's size class, owned by
    /// the caller, not in any list.
    #[inline]
    pub unsafe fn free(&mut self, block: *mut u8) -> Option<Chain> {
        // SAFETY: forwarded caller contract; `false` claims nothing.
        unsafe { self.free_as::<false>(block) }
    }

    /// The body of [`CpuCache::free`]; under `PLAIN` the pushed block gets
    /// its jump pointer like one pushed by [`CpuCache::push_main`].
    ///
    /// # Safety
    ///
    /// As for [`CpuCache::free`]; `PLAIN` only on a split cache created
    /// with [`LinkKey::PLAIN`] whose blocks' second words nothing checks.
    pub(crate) unsafe fn free_as<const PLAIN: bool>(&mut self, block: *mut u8) -> Option<Chain> {
        if !self.split {
            // SAFETY: forwarded caller contract.
            return unsafe { self.free_single_list(block) };
        }
        let mut overflow = None;
        if self.main.len() == self.target {
            let _irq = self.excl.enter();
            // "If adding another block would cause the main list to exceed
            // target, main is moved to aux. If aux is not empty, its
            // contents are first returned to the global layer."
            if !self.aux.is_empty() {
                overflow = Some(self.aux.take());
            }
            self.aux = self.main.take();
            if PLAIN && block::HINTS {
                // The ring holds the top `HINT_DISTANCE` blocks of what is
                // now `aux`, by depth there; turn it so that depth `j` of
                // the new `main` finds the block `HINT_DISTANCE` pops on.
                let old = self.ring;
                for (j, slot) in self.ring.iter_mut().enumerate() {
                    *slot = old[(self.target + j) % HINT_DISTANCE];
                }
            }
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.push_hinted::<PLAIN>(block) };
        overflow
    }

    /// The hit of [`CpuCache::free`] on a split freelist — a push onto a
    /// `main` below `target`; `false` leaves the block to `free`.
    ///
    /// # Safety
    ///
    /// As for [`CpuCache::free`]; `PLAIN` only on a split cache created
    /// with [`LinkKey::PLAIN`] whose blocks' second words nothing checks.
    #[inline(always)]
    pub(crate) unsafe fn push_main<const PLAIN: bool>(&mut self, block: *mut u8) -> bool {
        debug_assert!(!PLAIN || self.split);
        if self.main.len() == self.target || !(PLAIN || self.split) {
            return false;
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.push_hinted::<PLAIN>(block) };
        true
    }

    /// Single-list ablation: bound `2 * target`, overflow splits off the
    /// oldest `target` blocks by walking the list (the "unnecessary
    /// linked-list operations" the split freelist avoids).
    unsafe fn free_single_list(&mut self, block: *mut u8) -> Option<Chain> {
        let _irq = self.excl.enter();
        let mut overflow = None;
        if self.main.len() == 2 * self.target {
            overflow = Some(self.main.split_first(self.target));
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.main.push(block) };
        overflow
    }

    /// Checks `block` against the double-free quarantine and parks it.
    ///
    /// A hit means `block` is already sitting in the ring — a double free,
    /// reported before any list is damaged. Otherwise the block is parked
    /// and, once the ring is full, the oldest resident is evicted for the
    /// caller to continue freeing. Only called on the hardened free path
    /// (the ring has capacity 0 otherwise).
    ///
    /// The ring is per-(CPU, class): a double free whose second free runs
    /// on another CPU is not caught here (the poison heuristic covers that
    /// window), which keeps the check a short local scan.
    pub fn quarantine_check_insert(&mut self, block: *mut u8) -> QuarantineVerdict {
        let _irq = self.excl.enter();
        if self.quarantine[..self.q_len].contains(&block) {
            return QuarantineVerdict::Hit;
        }
        let evicted = self.quarantine[self.q_pos];
        self.quarantine[self.q_pos] = block;
        self.q_pos = (self.q_pos + 1) % self.quarantine.len();
        if self.q_len < self.quarantine.len() {
            self.q_len += 1;
            QuarantineVerdict::Parked
        } else {
            QuarantineVerdict::Evicted(evicted)
        }
    }

    /// Blocks currently parked in the quarantine ring (a gauge the
    /// conservation check and snapshots account as neither cached nor
    /// free).
    #[inline]
    pub fn quarantine_len(&self) -> usize {
        self.q_len
    }

    /// Whether the ring can park blocks at all.
    #[inline]
    pub fn has_quarantine(&self) -> bool {
        !self.quarantine.is_empty()
    }

    /// Takes the corruption fault latched by a chain walk inside this
    /// cache, if any (hardened alloc path; see [`Chain::take_fault`]).
    pub fn take_fault(&mut self) -> Option<ChainFault> {
        self.main.take_fault().or_else(|| self.aux.take_fault())
    }

    /// Flushes the whole cache, returning every block as one chain.
    ///
    /// Used for low-memory draining and arena teardown. The chain's length
    /// is arbitrary ("odd-sized"), so the global layer routes it through
    /// its bucket list. Quarantined blocks leave the ring and join the
    /// chain: nothing stays parked across a flush.
    pub fn flush(&mut self) -> Chain {
        let _irq = self.excl.enter();
        let mut all = self.main.take();
        let mut aux = self.aux.take();
        all.append(&mut aux);
        for i in 0..self.q_len {
            // SAFETY: a parked block is a free block this cache owns.
            unsafe { all.push(self.quarantine[i]) };
        }
        self.q_len = 0;
        self.q_pos = 0;
        all
    }

    /// (len(main), len(aux)) — for tests and the invariant walker.
    pub fn shape(&self) -> (usize, usize) {
        (self.main.len(), self.aux.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bag of fake blocks the tests can hand to the cache.
    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    struct Blocks {
        store: Vec<Box<[u8; 64]>>,
        next: usize,
    }

    impl Blocks {
        fn new(n: usize) -> Self {
            Blocks {
                store: (0..n).map(|_| Box::new([0u8; 64])).collect(),
                next: 0,
            }
        }

        fn take(&mut self) -> *mut u8 {
            let p = self.store[self.next].as_mut_ptr();
            self.next += 1;
            p
        }
    }

    fn drain_chain(mut c: Chain) -> usize {
        let mut n = 0;
        while c.pop().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn free_fills_main_then_demotes_to_aux() {
        let mut blocks = Blocks::new(16);
        let mut cache = CpuCache::new(3, true);
        // 3 frees fill main.
        for _ in 0..3 {
            // SAFETY: fake blocks are owned and disjoint.
            assert!(unsafe { cache.free(blocks.take()) }.is_none());
        }
        assert_eq!(cache.shape(), (3, 0));
        // 4th free demotes main to aux (no overflow: aux was empty).
        // SAFETY: as above.
        assert!(unsafe { cache.free(blocks.take()) }.is_none());
        assert_eq!(cache.shape(), (1, 3));
        // Fill main again; the next free overflows aux as an exact chain.
        for _ in 0..2 {
            // SAFETY: as above.
            assert!(unsafe { cache.free(blocks.take()) }.is_none());
        }
        assert_eq!(cache.shape(), (3, 3));
        // SAFETY: as above.
        let overflow = unsafe { cache.free(blocks.take()) }.unwrap();
        assert_eq!(overflow.len(), 3);
        assert_eq!(cache.shape(), (1, 3));
        drain_chain(overflow);
        drain_chain(cache.flush());
    }

    #[test]
    fn paper_figure_2_walkthrough() {
        // Reproduces the worked example under Figure 2: target = 3, main
        // holds 1 block, aux holds 3.
        let mut blocks = Blocks::new(16);
        let mut cache = CpuCache::new(3, true);
        for _ in 0..4 {
            // SAFETY: fake blocks are owned and disjoint.
            assert!(unsafe { cache.free(blocks.take()) }.is_none());
        }
        assert_eq!(cache.shape(), (1, 3));

        // "Up to two additional blocks may be freed onto main."
        // SAFETY: as above.
        unsafe {
            assert!(cache.free(blocks.take()).is_none());
            assert!(cache.free(blocks.take()).is_none());
        }
        assert_eq!(cache.shape(), (3, 3));
        // "Freeing a third block would cause the contents of aux to be
        // returned to the global pool [...] At this point, the
        // configuration would again be as shown in Figure 2."
        // SAFETY: as above.
        let spill = unsafe { cache.free(blocks.take()) }.unwrap();
        assert_eq!(spill.len(), 3);
        assert_eq!(cache.shape(), (1, 3));
        drain_chain(spill);

        // "One more block may be allocated from main, at which point main
        // will be empty."
        assert!(cache.alloc().is_some());
        assert_eq!(cache.shape(), (0, 3));
        // "A second allocation will result in the contents of aux being
        // moved to main [...] main will contain two more blocks."
        assert!(cache.alloc().is_some());
        assert_eq!(cache.shape(), (2, 0));
        // "allowing two additional allocations to be made from main."
        assert!(cache.alloc().is_some());
        assert!(cache.alloc().is_some());
        // "The next allocation would find both main and aux empty."
        assert!(cache.alloc().is_none());
    }

    #[test]
    fn refill_then_alloc_hits() {
        let mut blocks = Blocks::new(8);
        let mut cache = CpuCache::new(2, true);
        assert!(cache.alloc().is_none());
        let mut chain = Chain::new();
        for _ in 0..2 {
            // SAFETY: fake blocks are owned and disjoint.
            unsafe { chain.push(blocks.take()) };
        }
        let first = cache.refill(chain);
        assert!(!first.is_null());
        assert!(cache.alloc().is_some());
        assert!(cache.alloc().is_none());
    }

    #[test]
    fn refill_of_nonempty_cache_keeps_resident_blocks() {
        // Regression: `refill` used to overwrite `main` behind a
        // `debug_assert!`, so in release builds a refill against a
        // non-empty cache leaked every resident block. The guard is now
        // unconditional: resident blocks are merged into the new chain.
        let mut blocks = Blocks::new(16);
        let mut cache = CpuCache::new(4, true);
        for _ in 0..6 {
            // SAFETY: fake blocks are owned and disjoint.
            assert!(unsafe { cache.free(blocks.take()) }.is_none());
        }
        assert_eq!(cache.len(), 6); // (2, 4): both halves occupied
        let mut chain = Chain::new();
        for _ in 0..3 {
            // SAFETY: as above.
            unsafe { chain.push(blocks.take()) };
        }
        let got = cache.refill(chain);
        assert!(!got.is_null());
        // 6 resident + 3 incoming - 1 popped: nothing leaked.
        assert_eq!(cache.len(), 8);
        assert_eq!(drain_chain(cache.flush()), 8);
    }

    #[test]
    fn miss_rate_is_bounded_by_one_over_target() {
        // Steady-state alternating bursts: the global layer must be
        // touched at most once per `target` operations.
        let mut blocks = Blocks::new(600);
        let target = 8;
        let mut cache = CpuCache::new(target, true);
        let mut spills = 0u64;
        let mut held = Vec::new();
        let mut ops = 0u64;
        for round in 0..200 {
            if round % 2 == 0 {
                for _ in 0..5 {
                    // SAFETY: blocks come from `blocks` or previous allocs.
                    if unsafe { cache.free(held.pop().unwrap_or_else(|| blocks.take())) }
                        .map(drain_chain)
                        .is_some()
                    {
                        spills += 1;
                    }
                    ops += 1;
                }
            } else {
                for _ in 0..4 {
                    if let Some(b) = cache.alloc() {
                        held.push(b);
                    }
                    ops += 1;
                }
            }
        }
        assert!(
            spills <= ops / target as u64 + 1,
            "{spills} spills in {ops} ops with target {target}"
        );
        drain_chain(cache.flush());
    }

    #[test]
    fn flush_returns_everything() {
        let mut blocks = Blocks::new(16);
        let mut cache = CpuCache::new(3, true);
        for _ in 0..5 {
            // SAFETY: fake blocks are owned and disjoint.
            unsafe { cache.free(blocks.take()) };
        }
        assert_eq!(cache.len(), 5);
        let all = cache.flush();
        assert_eq!(all.len(), 5);
        assert!(cache.is_empty());
        drain_chain(all);
    }

    #[test]
    fn quarantine_catches_a_double_free_and_evicts_fifo() {
        let mut blocks = Blocks::new(8);
        let mut cache = CpuCache::new_hardened(3, true, LinkKey::PLAIN, 2);
        assert!(cache.has_quarantine());
        let a = blocks.take();
        let b = blocks.take();
        let c = blocks.take();
        assert_eq!(cache.quarantine_check_insert(a), QuarantineVerdict::Parked);
        assert_eq!(cache.quarantine_check_insert(b), QuarantineVerdict::Parked);
        assert_eq!(cache.quarantine_len(), 2);
        // Freeing a block still in the ring is the double free.
        assert_eq!(cache.quarantine_check_insert(a), QuarantineVerdict::Hit);
        // A third distinct block evicts the oldest resident (FIFO).
        assert_eq!(
            cache.quarantine_check_insert(c),
            QuarantineVerdict::Evicted(a)
        );
        assert_eq!(cache.quarantine_len(), 2);
        // Flush surfaces the parked blocks and empties the ring.
        let all = cache.flush();
        assert_eq!(all.len(), 2);
        assert_eq!(cache.quarantine_len(), 0);
        drain_chain(all);
    }

    #[test]
    fn hardened_cache_latches_faults_from_its_chains() {
        // Real links must pass the key's 16-alignment plausibility check,
        // so these fakes (unlike `Blocks`) carry the arena alignment.
        #[repr(align(16))]
        struct Aligned([u8; 64]);
        let mut store: Vec<Box<Aligned>> = (0..2).map(|_| Box::new(Aligned([0u8; 64]))).collect();
        let lo = store.iter().map(|s| s.0.as_ptr() as usize).min().unwrap();
        let hi = store.iter().map(|s| s.0.as_ptr() as usize).max().unwrap();
        let key = LinkKey::hardened(0x5eed, lo, hi + 64);
        let mut cache = CpuCache::new_hardened(2, true, key, 0);
        let a = store[0].0.as_mut_ptr();
        let b = store[1].0.as_mut_ptr();
        // SAFETY: fake blocks are owned and disjoint.
        unsafe {
            cache.free(a);
            cache.free(b);
        }
        // Scribble the head's encoded link: the next alloc must miss and
        // latch a fault instead of returning a wild pointer.
        // SAFETY: the fake block is owned by the test.
        unsafe { (b as *mut usize).write(0x4141_4141) };
        assert!(cache.alloc().is_none());
        let fault = cache.take_fault().expect("fault latched");
        assert_eq!(fault.addr, b as usize);
        assert_eq!(fault.lost, 2);
    }

    #[test]
    fn single_list_ablation_bounds_and_spills() {
        let mut blocks = Blocks::new(32);
        let target = 3;
        let mut cache = CpuCache::new(target, false);
        let mut spilled = 0;
        for _ in 0..10 {
            // SAFETY: fake blocks are owned and disjoint.
            if let Some(c) = unsafe { cache.free(blocks.take()) } {
                assert_eq!(c.len(), target);
                spilled += drain_chain(c);
            }
            assert!(cache.len() <= 2 * target);
        }
        assert_eq!(spilled + cache.len(), 10);
        drain_chain(cache.flush());
    }
}
